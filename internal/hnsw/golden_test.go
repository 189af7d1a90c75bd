package hnsw

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sync"
	"testing"

	"spidercache/internal/xrand"
)

// The golden tests pin the exact search output of two seeded indexes, so any
// change to the index's storage or inner loops must reproduce the same graph
// and the same distance bits. Each fixture is built once per test binary and
// shared with the recall tests below.

const (
	fixturePoints  = 4000
	fixtureQueries = 200
	fixtureK       = 10
)

// fixture is a built index together with the vectors it currently holds
// (after updates) and a fixed query set.
type fixture struct {
	ix      *Index
	vecs    [][]float64
	queries [][]float64
}

// gaussianVecs draws n standard-normal vectors of dimension dim.
func gaussianVecs(n, dim int, rng *xrand.Rand) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		v := make([]float64, dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		out[i] = v
	}
	return out
}

// clusteredUnitVecs draws n unit vectors of dimension dim around `clusters`
// random unit centroids (point i in cluster i mod clusters, spread sigma),
// the shape of normalised training embeddings.
func clusteredUnitVecs(n, dim, clusters int, sigma float64, rng *xrand.Rand) [][]float64 {
	centroids := gaussianVecs(clusters, dim, rng)
	for _, c := range centroids {
		normalize(c)
	}
	out := make([][]float64, n)
	for i := range out {
		c := centroids[i%clusters]
		v := make([]float64, dim)
		for j := range v {
			v[j] = c[j] + sigma*rng.NormFloat64()
		}
		normalize(v)
		out[i] = v
	}
	return out
}

func normalize(v []float64) {
	var s float64
	for _, x := range v {
		s += x * x
	}
	s = math.Sqrt(s)
	for j := range v {
		v[j] /= s
	}
}

// buildFixture inserts every vector, then applies two update passes over a
// stride of the IDs: a drift far below UpdateEps (stored vector replaced,
// links kept) and a jump far above it (full re-link of the point).
func buildFixture(vecs [][]float64, queries [][]float64, rng *xrand.Rand) *fixture {
	ix, err := New(DefaultConfig())
	if err != nil {
		panic(err)
	}
	for i, v := range vecs {
		if err := ix.Upsert(i, v); err != nil {
			panic(err)
		}
	}
	eps := ix.cfg.UpdateEps
	for i := 0; i < len(vecs); i += 5 {
		v := make([]float64, len(vecs[i]))
		for j := range v {
			v[j] = vecs[i][j] + eps*0.01*rng.NormFloat64()
		}
		vecs[i] = v
		if err := ix.Upsert(i, v); err != nil {
			panic(err)
		}
	}
	for i := 3; i < len(vecs); i += 7 {
		// Move point i onto a perturbed copy of another point: far above
		// UpdateEps, and into an already dense neighbourhood.
		src := vecs[(i*31+17)%len(vecs)]
		v := make([]float64, len(src))
		for j := range v {
			v[j] = src[j] + 0.05*rng.NormFloat64()
		}
		vecs[i] = v
		if err := ix.Upsert(i, v); err != nil {
			panic(err)
		}
	}
	return &fixture{ix: ix, vecs: vecs, queries: queries}
}

var (
	gaussianOnce, clusteredOnce sync.Once
	gaussianFix, clusteredFix   *fixture
)

// gaussianFixture is 4,000 standard-normal points at dim 32.
func gaussianFixture() *fixture {
	gaussianOnce.Do(func() {
		rng := xrand.New(1201)
		vecs := gaussianVecs(fixturePoints, 32, rng)
		queries := gaussianVecs(fixtureQueries, 32, rng)
		gaussianFix = buildFixture(vecs, queries, rng)
	})
	return gaussianFix
}

// clusteredFixture is 4,000 clustered unit vectors at dim 16.
func clusteredFixture() *fixture {
	clusteredOnce.Do(func() {
		rng := xrand.New(1202)
		vecs := clusteredUnitVecs(fixturePoints, 16, 64, 0.08, rng)
		queries := clusteredUnitVecs(fixtureQueries, 16, 64, 0.08, rng)
		clusteredFix = buildFixture(vecs, queries, rng)
	})
	return clusteredFix
}

// searchHash folds the IDs and distance bits of every query's top-k at beam
// width ef into one FNV-64a hash.
func searchHash(f *fixture, ef int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, q := range f.queries {
		res := f.ix.SearchKNNEf(q, fixtureK, ef)
		binary.LittleEndian.PutUint64(buf[:], uint64(len(res)))
		h.Write(buf[:])
		for _, r := range res {
			binary.LittleEndian.PutUint64(buf[:], uint64(r.ID))
			h.Write(buf[:])
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(r.Dist))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

func TestGoldenSearchResults(t *testing.T) {
	cases := []struct {
		name string
		fix  func() *fixture
		ef   int
		want uint64
	}{
		{"gaussian32/ef10", gaussianFixture, 10, 0x1a51a68f44717d28},
		{"gaussian32/ef64", gaussianFixture, 64, 0xc704cc3251182d9e},
		{"clustered16/ef10", clusteredFixture, 10, 0x16c70dcc43be78ab},
		{"clustered16/ef64", clusteredFixture, 64, 0x6f7d9196cf1c3cf5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := searchHash(c.fix(), c.ef); got != c.want {
				t.Fatalf("search hash = %#x, want %#x", got, c.want)
			}
		})
	}
}

// graphHash folds every slot's external ID and its neighbour lists, layer by
// layer and in stored order, into one FNV-64a hash.
func graphHash(ix *Index) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(ix.entry))
	put(uint64(ix.maxLv))
	for s := 0; s < ix.Len(); s++ {
		put(uint64(ix.nodes[s].id))
		for l := 0; ; l++ {
			links := ix.neighbours(uint32(s), l)
			if links == nil && l > 0 {
				break
			}
			put(uint64(len(links)))
			for _, nb := range links {
				put(uint64(nb))
			}
		}
	}
	return h.Sum64()
}

func TestGoldenGraph(t *testing.T) {
	for _, c := range []struct {
		name string
		fix  func() *fixture
		want uint64
	}{
		{"gaussian32", gaussianFixture, 0x56e44fe4396bf4e9},
		{"clustered16", clusteredFixture, 0xb397c937e645e93a},
	} {
		if got := graphHash(c.fix().ix); got != c.want {
			t.Errorf("%s: graph hash = %#x, want %#x", c.name, got, c.want)
		}
	}
}

// TestGoldenFixtureShape checks the fixtures exercise what the golden hashes
// are meant to cover: several layers, and layer-0 lists pruned at capacity
// (which only happens through linkBack overflow).
func TestGoldenFixtureShape(t *testing.T) {
	for name, fix := range map[string]func() *fixture{
		"gaussian32":  gaussianFixture,
		"clustered16": clusteredFixture,
	} {
		f := fix()
		if f.ix.Len() != fixturePoints {
			t.Fatalf("%s: Len = %d", name, f.ix.Len())
		}
		if f.ix.maxLv < 2 {
			t.Errorf("%s: max level %d, want >= 2", name, f.ix.maxLv)
		}
		full := 0
		for s := 0; s < f.ix.Len(); s++ {
			if len(f.ix.neighbours(uint32(s), 0)) == f.ix.layerCap(0) {
				full++
			}
		}
		if full < fixturePoints/10 {
			t.Errorf("%s: only %d nodes have a full layer-0 list", name, full)
		}
	}
}

// TestRecallAcrossEf measures recall@10 against brute force at growing beam
// widths: recall must never fall as ef grows, and must reach 0.9 at the
// default search width.
func TestRecallAcrossEf(t *testing.T) {
	efs := []int{10, 32, 64, 128}
	for name, fix := range map[string]func() *fixture{
		"gaussian32":  gaussianFixture,
		"clustered16": clusteredFixture,
	} {
		f := fix()
		truth := make([]map[int]bool, len(f.queries))
		for i, q := range f.queries {
			truth[i] = map[int]bool{}
			for _, id := range bruteKNN(f.vecs, q, fixtureK) {
				truth[i][id] = true
			}
		}
		prev := 0.0
		for _, ef := range efs {
			hits := 0
			for i, q := range f.queries {
				for _, r := range f.ix.SearchKNNEf(q, fixtureK, ef) {
					if truth[i][r.ID] {
						hits++
					}
				}
			}
			recall := float64(hits) / float64(fixtureK*len(f.queries))
			t.Logf("%s: recall@%d at ef=%d = %.4f", name, fixtureK, ef, recall)
			if recall < prev {
				t.Errorf("%s: recall fell from %.4f to %.4f at ef=%d", name, prev, recall, ef)
			}
			if ef == 64 && recall < 0.9 {
				t.Errorf("%s: recall@%d at ef=64 = %.4f, want >= 0.9", name, fixtureK, recall)
			}
			prev = recall
		}
	}
}
