package hnsw

import (
	"testing"

	"spidercache/internal/xrand"
)

// TestAllocsPerOp pins the heap allocations of the two per-batch operations
// of the scoring loop on a built index: an update Upsert that moves a point
// past UpdateEps (a full re-link), and a SearchKNNEf at the default width.
// The search allocates only the result slice it returns.
func TestAllocsPerOp(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	const (
		n   = 2000
		dim = 32
	)
	rng := xrand.New(1203)
	ix, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range gaussianVecs(n, dim, rng) {
		if err := ix.Upsert(i, v); err != nil {
			t.Fatal(err)
		}
	}
	moves := gaussianVecs(256, dim, rng)
	queries := gaussianVecs(64, dim, rng)

	i := 0
	upsert := testing.AllocsPerRun(500, func() {
		if err := ix.Upsert((i*7)%n, moves[i%len(moves)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	j := 0
	search := testing.AllocsPerRun(500, func() {
		if res := ix.SearchKNNEf(queries[j%len(queries)], 10, 64); len(res) != 10 {
			t.Fatalf("got %d results", len(res))
		}
		j++
	})
	t.Logf("allocs/op: update Upsert %v, SearchKNNEf %v", upsert, search)
	if want := 0.0; upsert > want {
		t.Errorf("update Upsert allocates %v/op, want <= %v", upsert, want)
	}
	if want := 1.0; search > want {
		t.Errorf("SearchKNNEf allocates %v/op, want <= %v", search, want)
	}
}
