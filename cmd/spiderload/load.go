package main

import (
	"sync"
	"time"

	"spidercache/internal/kvserver"
	"spidercache/internal/telemetry"
	"spidercache/internal/xrand"
)

// The op kinds a window's slots are drawn from.
const (
	opSet = iota
	opGet
	opNGet
)

// window is one request window: n ops sent together and their results.
type window struct {
	n     int
	kinds []uint8
	ids   []int
	res   []kvserver.Result
}

// loadConfig is the part of the run every worker shares.
type loadConfig struct {
	ops     int
	conns   int
	valueSz int
	window  int  // ops per request window
	batch   bool // each window is one MGET or MSET
	getFrac float64
	ngetMix float64
	keys    int
	zipfS   float64
	seed    uint64
}

// workerResult is what one worker, or the whole run, accumulated.
type workerResult struct {
	loadTotals
	retries int64 // window re-issues
	errors  int64 // ops in windows that failed on every attempt
	lastErr error
}

// draw fills the first w.n slots of w from the worker's one random
// stream, in the order seeded runs depend on. A pipelined or single-op
// window draws per slot: a zipf key, then GET vs SET, then, for a read on
// an NGET run, NGET vs GET. A batch window draws all its keys, then one
// GET vs SET for the whole MGET or MSET.
func (c *loadConfig) draw(w *window, rng *xrand.Rand, zipf *xrand.Zipf) {
	if c.batch {
		for i := range w.n {
			w.ids[i] = zipf.Next()
		}
		kind := uint8(opSet)
		if rng.Float64() < c.getFrac {
			kind = opGet
		}
		for i := range w.n {
			w.kinds[i] = kind
		}
		return
	}
	for i := range w.n {
		w.ids[i] = zipf.Next()
		switch {
		case rng.Float64() >= c.getFrac:
			w.kinds[i] = opSet
		case c.ngetMix > 0 && rng.Float64() < c.ngetMix:
			w.kinds[i] = opNGet
		default:
			w.kinds[i] = opGet
		}
	}
}

// driveLoad fans the run's ops over cfg.conns closed-loop workers, the
// first ops%conns of them taking one extra op, and returns their summed
// results, the wall time and the window latency quantiles.
func driveLoad(t target, cfg loadConfig, reg *telemetry.Registry) (workerResult, time.Duration, telemetry.HistogramSnapshot) {
	quota := make([]int, cfg.conns)
	windows := 0
	for w := range quota {
		quota[w] = cfg.ops / cfg.conns
		if w < cfg.ops%cfg.conns {
			quota[w]++
		}
		windows += (quota[w] + cfg.window - 1) / cfg.window
	}
	rtLat := newRTHistogram(reg, windows)

	root := xrand.New(cfg.seed)
	results := make([]workerResult, cfg.conns)
	var wg sync.WaitGroup
	start := time.Now()
	for w := range results {
		rng := root.Split()
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[w] = runWorker(t, &cfg, quota[w], rng, rtLat)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	var total workerResult
	for _, r := range results {
		total.add(r.loadTotals)
		total.retries += r.retries
		total.errors += r.errors
		if r.lastErr != nil {
			total.lastErr = r.lastErr
		}
	}
	return total, elapsed, rtLat.Snapshot()
}

// newRTHistogram is the single registration site for load_rt_seconds.
// Its window holds every request window of the run, so the quantiles
// cover the whole run and not only its tail.
func newRTHistogram(reg *telemetry.Registry, windows int) *telemetry.Histogram {
	reg.Describe("load_rt_seconds", "client-observed round-trip latency per request window, re-issues included")
	return reg.HistogramWindow("load_rt_seconds", windows, nil)
}

// runWorker is one closed-loop lane: it keeps one request window in
// flight until its quota of ops is spent. A window's ops are drawn before
// sending, so a re-issued window has identical contents. A window that
// fails on every attempt is counted and the lane goes on, so the run
// reports the full extent of the damage.
func runWorker(t target, cfg *loadConfig, ops int, rng *xrand.Rand, rtLat *telemetry.Histogram) workerResult {
	var res workerResult
	zipf := xrand.NewZipf(rng, cfg.zipfS, cfg.keys)
	w := &window{
		kinds: make([]uint8, cfg.window),
		ids:   make([]int, cfg.window),
		res:   make([]kvserver.Result, cfg.window),
	}
	for res.ops < ops {
		w.n = min(cfg.window, ops-res.ops)
		cfg.draw(w, rng, zipf)
		start := time.Now()
		err := retryWindow(t.attempts(), &res.retries, func() error {
			clear(w.res[:w.n])
			return t.issue(w)
		})
		rtLat.Observe(time.Since(start).Seconds())
		setBytes := cfg.valueSz
		if err != nil {
			clear(w.res[:w.n])
			setBytes = 0
			res.errors += int64(w.n)
			res.lastErr = err
		}
		res.count(w, setBytes)
	}
	return res
}
