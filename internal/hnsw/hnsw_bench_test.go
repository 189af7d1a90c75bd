package hnsw

import (
	"maps"
	"slices"
	"testing"

	"spidercache/internal/xrand"
)

func benchVecs(n, dim int) [][]float64 {
	rng := xrand.New(1)
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

// clone returns a deep copy of ix, level generator state included, so a
// benchmark can time inserts into the same built index on every iteration.
func (ix *Index) clone() *Index {
	rng := *ix.rng
	c := &Index{
		cfg:     ix.cfg,
		ml:      ix.ml,
		rng:     &rng,
		dims:    ix.dims,
		vecs:    slices.Clone(ix.vecs),
		links0:  slices.Clone(ix.links0),
		stride0: ix.stride0,
		nodes:   slices.Clone(ix.nodes),
		byID:    maps.Clone(ix.byID),
		entry:   ix.entry,
		maxLv:   ix.maxLv,
	}
	for i := range c.nodes {
		up := slices.Clone(c.nodes[i].upper)
		for l := range up {
			up[l] = slices.Clone(up[l])
		}
		c.nodes[i].upper = up
	}
	return c
}

// BenchmarkInsert times a fixed batch of fresh inserts into an index of
// 4,000 points at dim 32 (the train-spider shape), restored to that size
// before every iteration so ns/op does not depend on -benchtime.
func BenchmarkInsert(b *testing.B) {
	const (
		n     = 4000
		batch = 256
	)
	vecs := benchVecs(n+batch, 32)
	base, _ := New(DefaultConfig())
	for i, v := range vecs[:n] {
		base.Upsert(i, v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ix := base.clone()
		b.StartTimer()
		for j, v := range vecs[n:] {
			if err := ix.Upsert(n+j, v); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkSearchKNN(b *testing.B) {
	const n = 8000
	vecs := benchVecs(n, 32)
	ix, _ := New(DefaultConfig())
	for i, v := range vecs {
		ix.Upsert(i, v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.SearchKNN(vecs[i%n], 24)
	}
}

// BenchmarkUpdate times updates that move a point past UpdateEps, so every
// one re-links: pass r moves point k onto vector k+1+r, never the vector it
// already holds.
func BenchmarkUpdate(b *testing.B) {
	const n = 4000
	vecs := benchVecs(n, 32)
	ix, _ := New(DefaultConfig())
	for i, v := range vecs {
		ix.Upsert(i, v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ix.Upsert(i%n, vecs[(i+1+i/n)%n]); err != nil {
			b.Fatal(err)
		}
	}
}
