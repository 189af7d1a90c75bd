package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	var tm timing
	for _, v := range []int64{50, 10, 40, 20, 30, 100, 90, 80, 70, 60} {
		tm.add(time.Duration(v))
	}
	cases := []struct {
		q    float64
		want time.Duration
	}{
		{0, 10}, {0.1, 10}, {0.11, 20}, {0.5, 50}, {0.51, 60}, {0.95, 100}, {0.99, 100}, {1, 100},
	}
	for _, c := range cases {
		if got := tm.quantile(c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if tm.count() != 10 {
		t.Errorf("count %d, want 10", tm.count())
	}
	var empty timing
	if empty.quantile(0.5) != 0 {
		t.Errorf("empty quantile = %v, want 0", empty.quantile(0.5))
	}
}

func TestQuantileAfterMerge(t *testing.T) {
	var a, b timing
	for i := 1; i <= 50; i++ {
		a.add(time.Duration(2 * i))
		b.add(time.Duration(2*i - 1))
	}
	if got := a.quantile(0.5); got != 50 {
		t.Fatalf("a p50 = %v, want 50", got)
	}
	a.merge(&b) // a was sorted; the merge must invalidate that
	if got := a.quantile(0.5); got != 50 {
		t.Errorf("merged p50 = %v, want 50", got)
	}
	if got := a.quantile(0.99); got != 99 {
		t.Errorf("merged p99 = %v, want 99", got)
	}
}

func TestTopPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{10, 0, false}, {19, 0, false}, {20, 50, true}, {100, 90, true},
		{999, 90, true}, {1000, 99, true}, {20000, 99.9, true}, {100000, 99.99, true},
	}
	for _, c := range cases {
		p, ok := topPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("topPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
	}
}

func TestUnionLen(t *testing.T) {
	cases := []struct {
		ivs  []interval
		want int64
	}{
		{nil, 0},
		{[]interval{{0, 10}}, 10},
		{[]interval{{0, 10}, {20, 25}}, 15},
		{[]interval{{0, 10}, {5, 15}}, 15},
		{[]interval{{5, 15}, {0, 10}, {2, 3}}, 15},
		{[]interval{{0, 10}, {10, 20}}, 20},
		{[]interval{{0, 30}, {5, 10}, {12, 14}}, 30},
		{[]interval{{0, 4}, {2, 6}, {8, 9}, {5, 7}}, 8},
	}
	for _, c := range cases {
		if got := unionLen(c.ivs); got != c.want {
			t.Errorf("unionLen(%v) = %d, want %d", c.ivs, got, c.want)
		}
	}
}

// A batch whose scoring span has two overlapping parallel searches: the
// searches own the union of their intervals once, and the selves of all
// names add up to the root span.
func TestAnalyzeParallelChildren(t *testing.T) {
	spans := []span{
		{name: "trainer.batch", start: 0, end: 100, parent: -1},
		{name: "policy.lookup", start: 0, end: 5, parent: 0},
		{name: "policy.on_batch_end", start: 10, end: 60, parent: 0},
		{name: "hnsw.upsert", start: 10, end: 15, parent: 2},
		{name: "hnsw.search", start: 20, end: 40, parent: 2},
		{name: "hnsw.search", start: 30, end: 50, parent: 2},
		{name: "trainer.gap", start: 100, end: 120, parent: -1},
		{name: "policy.on_epoch_end", start: 110, end: 112, parent: 6},
	}
	lt := analyze(spans)
	wantSelf := map[string]time.Duration{
		"trainer.batch":       100 - 5 - 50,
		"policy.lookup":       5,
		"policy.on_batch_end": 50 - 5 - 30,
		"hnsw.upsert":         5,
		"hnsw.search":         30,
		"trainer.gap":         18,
		"policy.on_epoch_end": 2,
	}
	if !reflect.DeepEqual(lt.self, wantSelf) {
		t.Errorf("self = %v, want %v", lt.self, wantSelf)
	}
	if lt.busy["hnsw.search"] != 40 {
		t.Errorf("search busy = %v, want 40", lt.busy["hnsw.search"])
	}
	var total time.Duration
	for _, d := range lt.self {
		total += d
	}
	if total != 120 {
		t.Errorf("selves add to %v, want the 120 the root spans cover", total)
	}
	if got := lt.dur["hnsw.search"].quantile(1); got != 20 {
		t.Errorf("search max = %v, want 20", got)
	}
}

// BENCHMARK.json must declare exactly the metrics the program reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json = %+v, program reports %+v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from the program's perLayer table")
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadOrder) {
		t.Errorf("workloads in BENCHMARK.json = %v, program runs %v", names, workloadOrder)
	}
}
