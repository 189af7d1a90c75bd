package main

import (
	"math"

	"spidercache/internal/xrand"
)

// loadResult is the JSON summary the -json flag persists, with one schema
// for both the single-node and cluster modes so A/B tooling (BENCH_6.json,
// BENCH_7.json, scripts/bench.sh) can diff runs field-for-field: mode
// tells them apart ("single" vs "cluster"), throughput/latency/hit-rate
// fields mean the same thing in both, and the cluster-only resilience
// counters are simply zero in a single-node run.
type loadResult struct {
	Mode          string   `json:"mode"`
	StoreMode     string   `json:"store_mode"`
	Admission     string   `json:"admission"`
	Nodes         []string `json:"nodes"`
	Replicas      int      `json:"replicas"`
	Ops           int      `json:"ops"`
	ElapsedSec    float64  `json:"elapsed_seconds"`
	OpsPerSec     float64  `json:"ops_per_sec"`
	MBPerSec      float64  `json:"mb_per_sec"`
	HitRatio      float64  `json:"hit_ratio"`
	NGetOps       int      `json:"nget_ops"`
	NGetExact     int      `json:"nget_exact"`
	NGetNear      int      `json:"nget_near"`
	NGetMiss      int      `json:"nget_miss"`
	NGetMeanDist  float64  `json:"nget_mean_dist"`
	P50Ms         float64  `json:"p50_ms"`
	P95Ms         float64  `json:"p95_ms"`
	P99Ms         float64  `json:"p99_ms"`
	MaxMs         float64  `json:"max_ms"`
	ClientErrors  int64    `json:"client_errors"`
	PoolRetries   int64    `json:"pool_retries"`
	Rerouted      int64    `json:"failover_rerouted"`
	Exhausted     int64    `json:"failover_exhausted"`
	NodesAdded    int64    `json:"discovery_added"`
	NodesRemoved  int64    `json:"discovery_removed"`
	FinalNodeSet  []string `json:"final_node_set"`
	FinalHealth   int      `json:"final_serving_nodes"`
	KeysPopulated int      `json:"keys_populated"`
}

// loadTotals is the raw volume a run accumulated, summed across workers.
type loadTotals struct {
	ops       int
	gets      int // exact GETs only; NGETs are counted separately
	hits      int
	bytes     int64
	ngets     int
	ngetExact int
	ngetNear  int
	ngetMiss  int
	ngetDist  float64 // sum of NEAR distances, for the mean
}

// add folds another worker's totals into t.
func (t *loadTotals) add(o loadTotals) {
	t.ops += o.ops
	t.gets += o.gets
	t.hits += o.hits
	t.bytes += o.bytes
	t.ngets += o.ngets
	t.ngetExact += o.ngetExact
	t.ngetNear += o.ngetNear
	t.ngetMiss += o.ngetMiss
	t.ngetDist += o.ngetDist
}

// count folds one finished window into t. A failed window arrives with
// zeroed results and setBytes 0, so its reads count as misses and its
// writes move no bytes.
func (t *loadTotals) count(w *window, setBytes int) {
	for i, r := range w.res[:w.n] {
		switch w.kinds[i] {
		case opGet:
			t.gets++
			if r.Found {
				t.hits++
			}
		case opNGet:
			t.ngets++
			switch {
			case r.Near != nil:
				t.ngetNear++
				t.ngetDist += r.Near.Dist
			case r.Found:
				t.ngetExact++
			default:
				t.ngetMiss++
			}
		default:
			t.bytes += int64(setBytes)
		}
		t.bytes += int64(len(r.Value))
	}
	t.ops += w.n
}

// fillTotals populates the volume-derived fields of a loadResult from the
// aggregated worker totals. Every division is guarded: a run with zero
// GETs (-get 0, or -nget-mix 1 which turns all reads into NGETs) must
// report a 0.0 hit ratio rather than NaN — NaN is not valid JSON, so one
// unguarded division would make the -json file unparsable and poison any
// A/B diff built on it. Same for the mean NEAR distance when no NGET was
// answered semantically.
func (res *loadResult) fillTotals(t loadTotals, elapsedSec float64) {
	res.Ops = t.ops
	res.ElapsedSec = elapsedSec
	res.OpsPerSec = ratio(float64(t.ops), elapsedSec)
	res.MBPerSec = ratio(float64(t.bytes)/(1<<20), elapsedSec)
	res.HitRatio = ratio(float64(t.hits), float64(t.gets))
	res.NGetOps = t.ngets
	res.NGetExact = t.ngetExact
	res.NGetNear = t.ngetNear
	res.NGetMiss = t.ngetMiss
	res.NGetMeanDist = ratio(t.ngetDist, float64(t.ngetNear))
}

// ratio is num/den with a 0.0 (not NaN/Inf) result for an empty or
// degenerate denominator.
func ratio(num, den float64) float64 {
	if den <= 0 || math.IsNaN(den) {
		return 0
	}
	return num / den
}

// buildEmbeddings returns one unit-norm embedding per key, drawn from
// `clusters` independent random centroids plus small within-cluster
// noise; key i belongs to cluster i%clusters. This makes the key space
// genuinely clustered in embedding space: same-cluster keys sit at a
// cosine distance of a few hundredths of each other while cross-cluster
// pairs are near-orthogonal (cosine distance ≈ 1), so an NGET threshold
// in between serves only true semantic neighbors.
func buildEmbeddings(seed uint64, n, dim, clusters int) [][]float32 {
	rng := xrand.New(seed ^ 0x9e3779b97f4a7c15)
	if clusters > n {
		clusters = n
	}
	cents := make([][]float64, clusters)
	for c := range cents {
		cents[c] = randUnitVec(rng, dim)
	}
	const noise = 0.08 // std-dev per component around the centroid
	out := make([][]float32, n)
	v := make([]float64, dim)
	for k := range out {
		cent := cents[k%clusters]
		for i := range v {
			v[i] = cent[i] + noise*rng.NormFloat64()
		}
		normalizeVec(v)
		emb := make([]float32, dim)
		for i := range v {
			emb[i] = float32(v[i])
		}
		out[k] = emb
	}
	return out
}

func randUnitVec(rng *xrand.Rand, dim int) []float64 {
	v := make([]float64, dim)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	normalizeVec(v)
	return v
}

func normalizeVec(v []float64) {
	var n float64
	for _, x := range v {
		n += x * x
	}
	n = math.Sqrt(n)
	if n == 0 {
		v[0] = 1 // degenerate draw; any unit vector will do
		return
	}
	for i := range v {
		v[i] /= n
	}
}
