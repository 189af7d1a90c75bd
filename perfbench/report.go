package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef is one metric as BENCHMARK.json declares it; bound is set on
// end-to-end metrics only.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.2},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p95_ms", "ms", "lower", 0.25},
	{"hit_ratio", "ratio", "higher", 0.15},
}

// perLayer are the metrics a traced run reports. A layer a workload does
// not exercise reports 0. Training counts and times are per 5-epoch
// training run; serving ones cover the measured phase.
var perLayer = []metricDef{
	{"trainer.batches", "count", "lower", 0},
	{"trainer.self_s", "s", "lower", 0},
	{"policy.lookup.calls", "count", "lower", 0},
	{"policy.lookup.busy_s", "s", "lower", 0},
	{"policy.on_miss.calls", "count", "lower", 0},
	{"policy.on_miss.busy_s", "s", "lower", 0},
	{"policy.on_batch_end.calls", "count", "lower", 0},
	{"policy.on_batch_end.busy_s", "s", "lower", 0},
	{"policy.epoch_order.calls", "count", "lower", 0},
	{"policy.epoch_order.busy_s", "s", "lower", 0},
	{"policy.on_epoch_end.calls", "count", "lower", 0},
	{"policy.on_epoch_end.busy_s", "s", "lower", 0},
	{"semgraph.self_s", "s", "lower", 0},
	{"semgraph.searchknn", "count", "lower", 0},
	{"semgraph.snapshot_hits", "count", "higher", 0},
	{"hnsw.upsert.calls", "count", "lower", 0},
	{"hnsw.upsert.busy_s", "s", "lower", 0},
	{"hnsw.upsert.p50_us", "us", "lower", 0},
	{"hnsw.upsert.p99_us", "us", "lower", 0},
	{"hnsw.search.calls", "count", "lower", 0},
	{"hnsw.search.busy_s", "s", "lower", 0},
	{"hnsw.search.p50_us", "us", "lower", 0},
	{"hnsw.search.p99_us", "us", "lower", 0},
	{"tensor.kernels.parallel", "count", "higher", 0},
	{"tensor.kernels.serial", "count", "lower", 0},
	{"par.tasks.pooled", "count", "higher", 0},
	{"par.tasks.inline", "count", "lower", 0},
	{"cluster.get.calls", "count", "lower", 0},
	{"cluster.get.busy_s", "s", "lower", 0},
	{"cluster.get.p50_us", "us", "lower", 0},
	{"cluster.get.p99_us", "us", "lower", 0},
	{"cluster.set.calls", "count", "lower", 0},
	{"cluster.set.busy_s", "s", "lower", 0},
	{"cluster.set.p50_us", "us", "lower", 0},
	{"cluster.set.p99_us", "us", "lower", 0},
	{"cluster.replication_pushes", "count", "lower", 0},
	{"cluster.retries", "count", "lower", 0},
	{"cluster.failover_rerouted", "count", "lower", 0},
	{"cluster.errors", "count", "lower", 0},
	{"cluster.remote_hit_ratio", "ratio", "higher", 0},
	{"train.final_acc", "ratio", "higher", 0},
	{"train.sim_epoch_s", "s", "lower", 0},
	{"kvserver.window.count", "count", "higher", 0},
	{"kvserver.window.p99_ms", "ms", "lower", 0},
	{"kvserver.window.max_ms", "ms", "lower", 0},
	{"kvserver.ops_per_flush", "count", "higher", 0},
	{"kvserver.pool.retries", "count", "lower", 0},
	{"kvserver.items", "count", "higher", 0},
	{"kvserver.nget.exact", "count", "higher", 0},
	{"kvserver.nget.near", "count", "higher", 0},
	{"kvserver.nget.miss", "count", "lower", 0},
	{"kvserver.nget.near_ratio", "ratio", "higher", 0},
	{"kvserver.nget.near_dist_mean", "dist", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_s", "s", "lower", 0},
	{"runtime.alloc_mb", "MB", "lower", 0},
	{"runtime.cpu_s", "s", "lower", 0},
	{"trace.ops_per_s", "1/s", "higher", 0},
	{"trace.coverage", "ratio", "higher", 0},
}

// report collects one run's metrics, output checks and notes.
type report struct {
	values    map[string]float64
	attempted int64
	failed    int64
	problems  []string
	notes     []string
}

func newReport() *report { return &report{values: make(map[string]float64)} }

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) setRuntime(rt runtimeStats, per float64) {
	r.set("runtime.gc_cycles", float64(rt.gcCycles)/per)
	r.set("runtime.gc_pause_s", rt.gcPause.Seconds()/per)
	r.set("runtime.alloc_mb", float64(rt.allocBytes)/(1<<20)/per)
	r.set("runtime.cpu_s", rt.cpu.Seconds()/per)
}

// setTiming reports a span name's call count, summed duration and whole-run
// median and 99th percentile, averaged per run where per > 1.
func (r *report) setTiming(prefix string, lt layerTimes, span string, per float64) {
	t := lt.dur[span]
	if t == nil {
		t = &timing{}
	}
	r.set(prefix+".calls", float64(t.count())/per)
	r.set(prefix+".busy_s", lt.busy[span].Seconds()/per)
	r.set(prefix+".p50_us", us(t.quantile(0.5)))
	r.set(prefix+".p99_us", us(t.quantile(0.99)))
	if t.count() > 0 {
		r.note("%s: %s", span, t.describe())
	}
}

func (r *report) setTrainLayers(lt layerTimes, per float64, graph bool) {
	r.set("trainer.self_s", (lt.self["trainer.batch"]+lt.self["trainer.gap"]).Seconds()/per)
	for _, name := range []string{"lookup", "on_miss", "on_batch_end", "epoch_order", "on_epoch_end"} {
		span := "policy." + name
		n := 0
		if t := lt.dur[span]; t != nil {
			n = t.count()
		}
		r.set(span+".calls", float64(n)/per)
		r.set(span+".busy_s", lt.busy[span].Seconds()/per)
	}
	if graph {
		// OnBatchEnd outside the index is the graph scoring (plus the
		// policy's cache and sampler updates it drives).
		r.set("semgraph.self_s", lt.self["policy.on_batch_end"].Seconds()/per)
	}
	r.setTiming("hnsw.upsert", lt, "hnsw.upsert", per)
	r.setTiming("hnsw.search", lt, "hnsw.search", per)
	r.setTiming("cluster.get", lt, "cluster.get", per)
	r.setTiming("cluster.set", lt, "cluster.set", per)
}

// setTraceMeta reports the traced run's own throughput and the share of
// wall time its layer self times account for, and notes each layer's
// share.
func (r *report) setTraceMeta(lt layerTimes, wall time.Duration, throughput float64) {
	r.set("trace.ops_per_s", throughput)
	var total time.Duration
	names := make([]string, 0, len(lt.self))
	for name, d := range lt.self {
		total += d
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return lt.self[names[i]] > lt.self[names[j]] })
	cov := total.Seconds() / wall.Seconds()
	r.set("trace.coverage", cov)
	r.note("self times cover %.1f%% of %v traced wall time:", 100*cov, wall.Round(time.Millisecond))
	for _, name := range names {
		r.note("  %-22s self %9.4fs  %5.1f%%  busy %9.4fs", name, lt.self[name].Seconds(),
			100*lt.self[name].Seconds()/wall.Seconds(), lt.busy[name].Seconds())
	}
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// write prints the notes and then the result line holding the metrics of
// defs. An end-to-end metric the workload did not produce is a bug.
func (r *report) write(w io.Writer, defs []metricDef, requireAll bool) error {
	res := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok && requireAll {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "FAILED CHECK:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// runtimeStats are the Go runtime's and the kernel's process counters.
type runtimeStats struct {
	gcCycles   uint32
	gcPause    time.Duration
	allocBytes uint64
	cpu        time.Duration
}

func readRuntime() runtimeStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	rt := runtimeStats{gcCycles: m.NumGC, gcPause: time.Duration(m.PauseTotalNs), allocBytes: m.TotalAlloc}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		rt.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return rt
}

func (a runtimeStats) since(b runtimeStats) runtimeStats {
	return runtimeStats{
		gcCycles:   a.gcCycles - b.gcCycles,
		gcPause:    a.gcPause - b.gcPause,
		allocBytes: a.allocBytes - b.allocBytes,
		cpu:        a.cpu - b.cpu,
	}
}

// releaseMemory collects garbage and returns freed memory to the OS, so
// that each round or training run starts from the same heap and the peak
// RSS is that of one, not of the garbage several leave behind.
func releaseMemory() { debug.FreeOSMemory() }

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
