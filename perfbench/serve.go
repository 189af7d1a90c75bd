package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"spidercache/internal/kvserver"
	"spidercache/internal/telemetry"
	"spidercache/internal/xrand"
)

// Serving workload parameters: the BENCH_7/BENCH_10 exact_get shape. The
// store holds a quarter of the keys, so the 10% SETs keep evicting while
// the reads run.
const (
	serveCapacity  = 4096
	serveKeys      = 16384
	serveValueSize = 3072
	serveZipf      = 0.99
	serveGetFrac   = 0.9
	serveConns     = 2
	servePipeline  = 16
	embedDim       = 16
	embedClusters  = 64
	embedNoise     = 0.08 // per-component spread around a cluster centroid
	// embedMinSep is the least cosine distance between two centroids. At
	// this separation a key's nearest resident neighbours lie in its own
	// cluster, which the NEAR check relies on; random centroids alone can
	// nearly coincide.
	embedMinSep   = 0.6
	ngetThreshold = 0.3
	preloadChunk  = 64
	// serveSlice is the stretch of a round whose throughput and latency
	// quantiles are one sample of the reported medians.
	serveSlice = time.Second
)

type serveSpec struct {
	nget bool // every read is an NGET; preload also ESETs every key
	// rounds is how many fresh servers the process sets up and measures,
	// each for an equal share of the run.
	rounds int
}

// serveData is the generated input of a serving run: keys, the payload
// bytes every key must read back, and the clustered embedding space.
type serveData struct {
	seed uint64
	keys []string
	base []byte      // payload body; the first 8 bytes carry the key's id
	embs [][]float32 // per-key unit embeddings; key i is in cluster i%embedClusters
}

func newServeData(spec serveSpec, seed uint64) *serveData {
	rng := xrand.New(seed)
	d := &serveData{seed: seed, keys: make([]string, serveKeys), base: make([]byte, serveValueSize)}
	for i := range d.keys {
		d.keys[i] = "k:" + strconv.Itoa(i)
	}
	for i := range d.base {
		d.base[i] = byte(rng.Intn(256))
	}
	if !spec.nget {
		return d
	}
	cents := make([][]float64, 0, embedClusters)
	for len(cents) < embedClusters {
		c := make([]float64, embedDim)
		for i := range c {
			c[i] = rng.NormFloat64()
		}
		normalize(c)
		if separated(c, cents) {
			cents = append(cents, c)
		}
	}
	d.embs = make([][]float32, serveKeys)
	v := make([]float64, embedDim)
	for k := range d.embs {
		for i := range v {
			v[i] = cents[k%embedClusters][i] + embedNoise*rng.NormFloat64()
		}
		normalize(v)
		d.embs[k] = make([]float32, embedDim)
		for i := range v {
			d.embs[k][i] = float32(v[i])
		}
	}
	return d
}

// separated reports whether unit vector c is at least embedMinSep in
// cosine distance from every vector of cents.
func separated(c []float64, cents [][]float64) bool {
	for _, o := range cents {
		var dot float64
		for i := range c {
			dot += c[i] * o[i]
		}
		if 1-dot < embedMinSep {
			return false
		}
	}
	return true
}

func normalize(v []float64) {
	var n float64
	for _, x := range v {
		n += x * x
	}
	n = math.Sqrt(n)
	for i := range v {
		v[i] /= n
	}
}

// payload writes key id's value into buf.
func (d *serveData) payload(id int, buf []byte) []byte {
	buf = append(buf[:0], d.base...)
	binary.LittleEndian.PutUint64(buf, uint64(id))
	return buf
}

// valid reports whether v is exactly key id's value.
func (d *serveData) valid(id int, v []byte) bool {
	return len(v) == len(d.base) && binary.LittleEndian.Uint64(v) == uint64(id) && bytes.Equal(v[8:], d.base[8:])
}

func keyID(key string) (int, bool) {
	s, ok := strings.CutPrefix(key, "k:")
	if !ok {
		return 0, false
	}
	id, err := strconv.Atoi(s)
	return id, err == nil && id >= 0 && id < serveKeys
}

type serveEnv struct {
	srv     *kvserver.Server
	pool    *kvserver.Pool
	poolReg *telemetry.Registry
}

func (e *serveEnv) close() {
	if e.pool != nil {
		e.pool.Close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
}

// setupServe starts an in-process server with the default mutex store and
// no admission, dials the client pool and preloads every key (and, for
// NGET, every key's embedding).
func setupServe(d *serveData) (*serveEnv, error) {
	cfg := kvserver.DefaultConfig()
	cfg.Capacity = serveCapacity
	cfg.PoolSize = serveConns
	env := &serveEnv{poolReg: telemetry.NewRegistry()}
	srv, err := kvserver.ServeWith("127.0.0.1:0", cfg.ServerOptions(nil))
	if err != nil {
		return nil, err
	}
	env.srv = srv
	env.pool, err = kvserver.NewPool(srv.Addr(), cfg.PoolOptions("bench", false, env.poolReg))
	if err != nil {
		env.close()
		return nil, err
	}
	if err := preload(env.pool, d); err != nil {
		env.close()
		return nil, err
	}
	return env, nil
}

func preload(pool *kvserver.Pool, d *serveData) error {
	bufs := make([][]byte, preloadChunk)
	for lo := 0; lo < serveKeys; lo += preloadChunk {
		hi := min(lo+preloadChunk, serveKeys)
		vals := bufs[:hi-lo]
		for i := range vals {
			vals[i] = d.payload(lo+i, vals[i])
		}
		if err := pool.MSet(d.keys[lo:hi], vals); err != nil {
			return fmt.Errorf("preload MSET: %w", err)
		}
		if d.embs == nil {
			continue
		}
		err := pool.Do(func(c *kvserver.Client) error {
			p := c.Pipeline()
			for id := lo; id < hi; id++ {
				p.ESet(d.keys[id], d.embs[id])
			}
			rs, err := p.Exec()
			if err != nil {
				return err
			}
			for _, r := range rs {
				if r.Err != nil {
					return r.Err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("preload ESET: %w", err)
		}
	}
	return nil
}

// slice is what completed within one serveSlice of a round.
type slice struct {
	ops int64
	lat timing
}

// laneResult is what one closed-loop connection saw.
type laneResult struct {
	ops, reads, failed     int64
	hits                   int64 // GET hits, or NGET exact hits
	near, nearMiss         int64 // NGET substitutes served, NGET misses
	nearDist               float64
	windows                timing
	slices                 []slice // by whole serveSlices since the round began
	problems               []string
	windowStart, windowEnd []int64 // traced runs: each window's span
}

const (
	opSet = iota
	opGet
	opNGet
)

// runLane keeps one request window of servePipeline ops in flight on one
// connection until the deadline: it sends the next window only after the
// previous one's replies have all arrived.
func runLane(env *serveEnv, d *serveData, rng *xrand.Rand, begin, deadline time.Time, tr *tracer) *laneResult {
	res := &laneResult{}
	zipf := xrand.NewZipf(rng, serveZipf, serveKeys)
	kinds := make([]int, servePipeline)
	ids := make([]int, servePipeline)
	buf := make([]byte, 0, serveValueSize)
	read := opGet
	if d.embs != nil {
		read = opNGet
	}
	for time.Now().Before(deadline) {
		for i := range ids {
			ids[i] = zipf.Next()
			kinds[i] = read
			if rng.Float64() >= serveGetFrac {
				kinds[i] = opSet
			}
		}
		var rs []kvserver.Result
		var start int64
		if tr != nil {
			start = tr.now()
		}
		t0 := time.Now()
		err := env.pool.Do(func(c *kvserver.Client) error {
			p := c.Pipeline()
			for i, id := range ids {
				switch kinds[i] {
				case opGet:
					p.Get(d.keys[id])
				case opNGet:
					p.NGet(d.keys[id], d.embs[id], ngetThreshold)
				default:
					buf = d.payload(id, buf)
					p.Set(d.keys[id], buf)
				}
			}
			var err error
			rs, err = p.Exec()
			return err
		})
		done := time.Now()
		res.windows.add(done.Sub(t0))
		k := int(done.Sub(begin) / serveSlice)
		for len(res.slices) <= k {
			res.slices = append(res.slices, slice{})
		}
		res.slices[k].ops += int64(len(ids))
		res.slices[k].lat.add(done.Sub(t0))
		if tr != nil {
			res.windowStart = append(res.windowStart, start)
			res.windowEnd = append(res.windowEnd, tr.now())
		}
		res.ops += int64(len(ids))
		if err != nil {
			res.failed += int64(len(ids))
			res.problem("window: %v", err)
			continue
		}
		for i, r := range rs {
			res.check(d, kinds[i], ids[i], r)
		}
	}
	return res
}

func (res *laneResult) problem(format string, args ...any) {
	if len(res.problems) < 10 {
		res.problems = append(res.problems, fmt.Sprintf(format, args...))
	}
}

// check verifies one reply: an exact hit carries the key's own bytes; a
// NEAR reply names a key of the query's cluster within the threshold and
// carries that key's bytes.
func (res *laneResult) check(d *serveData, kind, id int, r kvserver.Result) {
	if r.Err != nil {
		res.failed++
		res.problem("key %d: %v", id, r.Err)
		return
	}
	if kind == opSet {
		return
	}
	res.reads++
	switch {
	case r.Near != nil:
		nid, ok := keyID(r.Near.Key)
		if !ok || nid == id || nid%embedClusters != id%embedClusters || r.Near.Dist > ngetThreshold || !d.valid(nid, r.Value) {
			res.failed++
			res.problem("key %d: bad NEAR substitute %q at %v", id, r.Near.Key, r.Near.Dist)
			return
		}
		res.near++
		res.nearDist += r.Near.Dist
	case r.Found:
		if !d.valid(id, r.Value) {
			res.failed++
			res.problem("key %d: hit returned wrong bytes", id)
			return
		}
		res.hits++
	case kind == opNGet:
		res.nearMiss++
	}
}

// serveRound is one set-up server measured for a share of the run.
type serveRound struct {
	setup, wall time.Duration
	lanes       []*laneResult
	total       laneResult
	slices      []slice // the round's whole slices, both connections
	sliceLen    time.Duration
	flushes     int64 // network flushes during the measured phase
	retries     int64
	items       int
	eset, nget  telemetry.HistogramSnapshot // the server's own op timers
}

// runServeRound sets up a fresh server and measures it closed loop until
// the deadline.
func runServeRound(d *serveData, measure time.Duration, tr *tracer) (*serveRound, error) {
	t0 := time.Now()
	env, err := setupServe(d)
	if err != nil {
		return nil, err
	}
	defer env.close()
	r := &serveRound{setup: time.Since(t0), lanes: make([]*laneResult, serveConns)}
	flushes0 := env.srv.Metrics().Snapshot().Counters["kv_net_flushes_total"]
	root := xrand.New(d.seed)
	t0 = time.Now()
	deadline := t0.Add(measure)
	var wg sync.WaitGroup
	for i := range r.lanes {
		rng := root.Split()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r.lanes[i] = runLane(env, d, rng, t0, deadline, tr)
		}(i)
	}
	wg.Wait()
	r.wall = time.Since(t0)

	for _, l := range r.lanes {
		r.total.add(l)
	}
	// Only whole slices are samples; a round shorter than one slice is one.
	n := int(measure / serveSlice)
	r.sliceLen = serveSlice
	if n == 0 {
		n, r.sliceLen = 1, r.wall
	}
	r.slices = make([]slice, n)
	for _, l := range r.lanes {
		for k := 0; k < n && k < len(l.slices); k++ {
			r.slices[k].ops += l.slices[k].ops
			r.slices[k].lat.merge(&l.slices[k].lat)
		}
	}
	snap := env.srv.Metrics().Snapshot()
	r.flushes = snap.Counters["kv_net_flushes_total"] - flushes0
	for id, v := range env.poolReg.Snapshot().Counters {
		if strings.HasPrefix(id, "kv_retries_total{") {
			r.retries += v
		}
	}
	r.items, _, _ = env.srv.Stats()
	r.eset = snap.Histograms[`kv_op_seconds{op="eset"}`]
	r.nget = snap.Histograms[`kv_op_seconds{op="nget"}`]
	return r, nil
}

func (t *laneResult) add(l *laneResult) {
	t.ops += l.ops
	t.reads += l.reads
	t.failed += l.failed
	t.hits += l.hits
	t.near += l.near
	t.nearMiss += l.nearMiss
	t.nearDist += l.nearDist
	t.windows.merge(&l.windows)
	t.problems = append(t.problems, l.problems...)
}

// runServeWorkload measures spec.rounds fresh servers. Throughput and
// window latency quantiles are medians over the rounds' one-second slices,
// so a slow stretch of a shared machine, or a rare pause, moves no result
// (pauses show in kvserver.window.max_ms).
func runServeWorkload(spec serveSpec, o runOpts) (*report, error) {
	rep := newReport()
	d := newServeData(spec, o.seed)
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	rt0 := readRuntime()
	var rounds []*serveRound
	for i := 0; i < spec.rounds; i++ {
		releaseMemory()
		r, err := runServeRound(d, o.seconds/time.Duration(spec.rounds), tr)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
	}
	rt := readRuntime().since(rt0)

	var total laneResult
	var setups, rates, p50s, p95s, hitRatios []float64
	var wall time.Duration
	var flushes, retries int64
	for _, r := range rounds {
		total.add(&r.total)
		wall += r.wall
		flushes += r.flushes
		retries += r.retries
		setups = append(setups, r.setup.Seconds())
		for _, sl := range r.slices {
			rates = append(rates, float64(sl.ops)/r.sliceLen.Seconds())
			p50s = append(p50s, ms(sl.lat.quantile(0.5)))
			p95s = append(p95s, ms(sl.lat.quantile(0.95)))
		}
		hitRatios = append(hitRatios, ratio(r.total.hits+r.total.near, r.total.reads))
	}
	rep.attempted, rep.failed, rep.problems = total.ops, total.failed, total.problems

	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	rep.note("rounds' set-up s, sorted: %.3f", sorted(setups))
	sr := sorted(rates)
	rep.note("%d one-second slices: ops/s min %.0f median %.0f max %.0f", len(sr), sr[0], median(sr), sr[len(sr)-1])
	rep.set("setup_s", median(setups))
	rep.set("peak_rss_mb", rss)
	rep.set("ops_per_s", median(rates))
	rep.set("p50_ms", median(p50s))
	rep.set("p95_ms", median(p95s))
	rep.set("hit_ratio", median(hitRatios))
	rep.note("%d rounds, %d ops in %v over %d connections, pipeline %d; window round trip %s",
		len(rounds), total.ops, wall.Round(time.Millisecond), serveConns, servePipeline, total.windows.describe())

	last := rounds[len(rounds)-1]
	rep.set("kvserver.window.count", float64(total.windows.count()))
	rep.set("kvserver.window.p99_ms", ms(total.windows.quantile(0.99)))
	rep.set("kvserver.window.max_ms", ms(total.windows.max()))
	rep.set("kvserver.ops_per_flush", ratio(total.ops, flushes))
	rep.set("kvserver.pool.retries", float64(retries))
	rep.set("kvserver.items", float64(last.items))
	if spec.nget {
		rep.set("kvserver.nget.exact", float64(total.hits))
		rep.set("kvserver.nget.near", float64(total.near))
		rep.set("kvserver.nget.miss", float64(total.nearMiss))
		rep.set("kvserver.nget.near_ratio", ratio(total.near, total.near+total.nearMiss))
		if total.near > 0 {
			rep.set("kvserver.nget.near_dist_mean", total.nearDist/float64(total.near))
		}
		// The index lives inside the server, so its cost is read from the
		// server's own ESET and NGET counts and summed service times over
		// each measured server's life, preload included. An ESET is one
		// index upsert; an NGET that misses exactly (near + miss above)
		// makes one index search. The server keeps quantiles only for a
		// trailing window, so none are reported here.
		var eset, nget telemetry.HistogramSnapshot
		for _, r := range rounds {
			eset.Count += r.eset.Count
			eset.Sum += r.eset.Sum
			nget.Count += r.nget.Count
			nget.Sum += r.nget.Sum
		}
		rep.set("hnsw.upsert.calls", float64(eset.Count))
		rep.set("hnsw.upsert.busy_s", eset.Sum)
		rep.set("hnsw.search.calls", float64(nget.Count))
		rep.set("hnsw.search.busy_s", nget.Sum)
	}
	rep.setRuntime(rt, 1)
	if tr != nil {
		// Each connection is one closed loop: its windows are analysed, and
		// covered against the wall time, on their own.
		var spans []span
		lt := layerTimes{self: map[string]time.Duration{}, busy: map[string]time.Duration{}, dur: map[string]*timing{}}
		for ri, r := range rounds {
			for li, l := range r.lanes {
				lane := make([]span, len(l.windowStart))
				for w := range lane {
					trace := int64(ri)<<48 | int64(li)<<32 | int64(w)
					lane[w] = span{name: "kvserver.window", start: l.windowStart[w], end: l.windowEnd[w], parent: -1, trace: trace}
				}
				lt.add(analyze(lane))
				spans = append(spans, lane...)
			}
		}
		rep.setTraceMeta(lt, time.Duration(serveConns)*wall, median(rates))
		if err := writeSpans(o.spanPath, spans); err != nil {
			return nil, err
		}
		rep.note("wrote %d spans to %s", len(spans), o.spanPath)
	}
	return rep, nil
}
