// Command spiderload is a closed-loop load generator for the kvserver
// cache tier: N connections issue a configurable GET/SET mix over a
// zipfian key population at a configurable pipeline depth, and the run
// reports sustained ops/s plus round-trip latency percentiles taken from
// the telemetry histograms.
//
// Usage:
//
//	spiderload                               # in-process server, defaults
//	spiderload -addr 127.0.0.1:7070          # against a running server
//	spiderload -conns 8 -pipeline 32         # deeper pipelining
//	spiderload -pipeline 1                   # one op per round trip (the
//	                                         # pre-batching serving path)
//	spiderload -batch 16                     # MGET/MSET batch verbs
//	spiderload -get 0.5 -value 8192 -zipf 0  # write-heavy, uniform keys
//	spiderload -store-mode arena -admission tinylfu
//	                                         # GC-free arena store with
//	                                         # TinyLFU admission in the
//	                                         # in-process server
//	spiderload -json out.json                # persist the run summary
//	                                         # (same schema as cluster mode)
//	spiderload -metrics                      # server METRICS dump at exit
//	spiderload -fault-reset 0.01 -fault-partial 0.02
//	                                         # robustness run: the in-process
//	                                         # server's listener injects
//	                                         # faults; retries absorb them
//	spiderload -cluster 127.0.0.1:7461       # ring-aware cluster client
//	spiderload -nodes 3                      # boot 3 in-process daemons
//
// Closed loop means every connection keeps exactly one request window in
// flight and issues the next only after the previous reply lands, so the
// reported throughput is what the server actually sustains at that
// concurrency, not an open-loop arrival rate.
//
// One driver serves both modes over a target (target.go): a single
// server through a connection pool, whose windows are pipelines or
// MGET/MSET batches, or a cluster through cluster.Client, whose windows
// are single ops because the client routes per key. Every window's
// latency is kept, so the quantiles cover the whole run.
//
// With any -fault-* flag set, the in-process server's accepted connections
// run behind internal/faultnet: resets, partial writes, read/write errors
// and added latency hit the wire with the given per-op probabilities,
// seed-deterministically. The pool target re-issues a failed window up to
// -retries times (the load is synthetic, so re-sending is always safe).
// The cluster target never re-issues: the client's own retries and
// failover must absorb a dead daemon. In both modes a window that still
// fails is a client-visible error; the run finishes, reports it and
// exits 3.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"spidercache/internal/faultnet"
	"spidercache/internal/kvserver"
	"spidercache/internal/telemetry"
)

// options holds every flag value.
type options struct {
	store         kvserver.Config // store flags, -timeout and -retries
	addr          string
	conns         int
	pipeline      int
	batch         int
	ngetMix       float64
	ngetThreshold float64
	embedDim      int
	embedClusters int
	valueSz       int
	getFrac       float64
	keys          int
	zipfS         float64
	ops           int
	preload       bool
	seed          uint64
	metrics       bool
	clusterSeeds  string
	nodes         int
	replicas      int
	jsonOut       string
	fault         faultnet.Config // Registry is non-nil when faults are on
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command; it returns the exit status: 0 on a clean
// run, 1 when setup fails, 2 on a bad flag and 3 when any op failed.
func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err == flag.ErrHelp {
		return 0
	}
	if err != nil {
		fmt.Fprintln(stderr, "spiderload:", err)
		return 2
	}

	var (
		t       target
		wl      = newWorkload(o)
		reg     = telemetry.NewRegistry()
		closeFn func()
		pt      *poolTarget // nil in cluster mode
	)
	if o.clusterSeeds != "" || o.nodes > 0 {
		t, closeFn, err = startCluster(o, wl, reg, stdout)
	} else {
		pt, closeFn, err = startPool(o, wl, reg, stdout)
		t = pt
	}
	if err != nil {
		fmt.Fprintln(stderr, "spiderload:", err)
		return 1
	}
	defer closeFn()

	cfg := loadConfig{
		ops:     o.ops,
		conns:   o.conns,
		valueSz: o.valueSz,
		window:  o.pipeline,
		batch:   o.batch > 0,
		getFrac: o.getFrac,
		ngetMix: o.ngetMix,
		keys:    o.keys,
		zipfS:   o.zipfS,
		seed:    o.seed,
	}
	mode := fmt.Sprintf("pipeline=%d", o.pipeline)
	switch {
	case pt == nil:
		cfg.window = 1
		mode = fmt.Sprintf("replicas=%d single-op windows", o.replicas)
	case cfg.batch:
		cfg.window = o.batch
		mode = fmt.Sprintf("batch=%d (MGET/MSET)", o.batch)
	}
	if o.ngetMix > 0 {
		mode += fmt.Sprintf(" nget-mix=%.2f threshold=%.2f dim=%d clusters=%d",
			o.ngetMix, o.ngetThreshold, o.embedDim, o.embedClusters)
	}
	fmt.Fprintf(stdout, "spiderload: addr=%s conns=%d %s value=%dB get=%.2f keys=%d zipf=%.2f ops=%d\n",
		strings.Join(t.seeds(), ","), o.conns, mode, o.valueSz, o.getFrac, o.keys, o.zipfS, o.ops)

	if o.preload {
		start := time.Now()
		if err := t.preload(); err != nil {
			fmt.Fprintln(stderr, "spiderload: preload:", err)
			return 1
		}
		fmt.Fprintf(stdout, "preloaded %d keys in %v\n", o.keys, time.Since(start).Round(time.Millisecond))
	}

	total, elapsed, snap := driveLoad(t, cfg, reg)

	// One summarizer (fillTotals) derives every ratio for both the report
	// lines and the -json file, so the division guards live in one place.
	counters := reg.Snapshot().Counters
	res := loadResult{
		Mode:          "single",
		StoreMode:     o.store.StoreMode,
		Admission:     o.store.Admission,
		Nodes:         t.seeds(),
		Replicas:      1,
		P50Ms:         snap.P50 * 1000,
		P95Ms:         snap.P95 * 1000,
		P99Ms:         snap.P99 * 1000,
		MaxMs:         snap.Max * 1000,
		ClientErrors:  total.errors,
		PoolRetries:   prefixSum(counters, "kv_retries_total{"),
		Rerouted:      counters[`kv_failover_total{result="rerouted"}`],
		Exhausted:     counters[`kv_failover_total{result="exhausted"}`],
		NodesAdded:    counters[`cluster_discovery_total{result="added"}`],
		NodesRemoved:  counters[`cluster_discovery_total{result="removed"}`],
		KeysPopulated: o.keys,
	}
	if pt == nil {
		res.Mode, res.Replicas = "cluster", o.replicas
	}
	res.FinalNodeSet, res.FinalHealth = t.health()
	res.fillTotals(total.loadTotals, elapsed.Seconds())

	fmt.Fprintf(stdout, "ran %d ops in %v: %.0f ops/s, %.1f MB/s, hit %.1f%%\n",
		res.Ops, elapsed.Round(time.Millisecond), res.OpsPerSec, res.MBPerSec, 100*res.HitRatio)
	if res.NGetOps > 0 {
		fmt.Fprintf(stdout, "nget: %d ops (exact=%d near=%d miss=%d), mean near dist=%.4f\n",
			res.NGetOps, res.NGetExact, res.NGetNear, res.NGetMiss, res.NGetMeanDist)
	}
	fmt.Fprintf(stdout, "round-trip latency (per request window of %d): p50=%s p95=%s p99=%s max=%s\n",
		cfg.window, fmtDur(snap.P50), fmtDur(snap.P95), fmtDur(snap.P99), fmtDur(snap.Max))
	if o.fault.Registry != nil {
		fmt.Fprintf(stdout, "faults injected: %s\n", faultSummary(o.fault.Registry))
	}
	fmt.Fprintf(stdout, "resilience: client errors=%d, window retries=%d, pool retries=%d, failover rerouted=%d exhausted=%d, discovery +%d/-%d, final nodes=%d (%d serving)\n",
		res.ClientErrors, total.retries, res.PoolRetries, res.Rerouted, res.Exhausted,
		res.NodesAdded, res.NodesRemoved, len(res.FinalNodeSet), res.FinalHealth)

	if o.jsonOut != "" {
		if err := writeJSON(o.jsonOut, res); err != nil {
			fmt.Fprintln(stderr, "spiderload:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", o.jsonOut)
	}
	if o.metrics {
		text, err := pt.metrics()
		if err != nil {
			fmt.Fprintln(stderr, "spiderload: metrics:", err)
			return 1
		}
		fmt.Fprint(stdout, text)
	}
	if total.errors > 0 {
		fmt.Fprintf(stderr, "spiderload: %d client-visible errors (last: %v)\n", total.errors, total.lastErr)
		return 3
	}
	return 0
}

// parseFlags binds and validates every flag. The server-side knobs
// (-capacity, -shards, -store-mode, -admission) come from the canonical
// kvserver.Config so spiderload accepts exactly the flags spiderkv does;
// they configure the in-process server (single-node mode) or the booted
// daemons (-nodes cluster mode). -timeout and -retries land in the same
// Config, which the booted daemons' peer pools take too.
func parseFlags(args []string, stderr io.Writer) (*options, error) {
	o := &options{store: kvserver.DefaultConfig()}
	fs := flag.NewFlagSet("spiderload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o.store.BindStoreFlags(fs)
	fs.StringVar(&o.addr, "addr", "", "server address; empty starts an in-process server")
	fs.IntVar(&o.conns, "conns", 4, "concurrent client connections")
	fs.IntVar(&o.pipeline, "pipeline", 16, "requests per round trip (1 = no pipelining)")
	fs.IntVar(&o.batch, "batch", 0, "use MGET/MSET with this many keys per command instead of pipelined GET/SET (0 = off)")

	fs.Float64Var(&o.ngetMix, "nget-mix", 0, "fraction of reads issued as semantic NGETs instead of exact GETs (0 = off)")
	fs.Float64Var(&o.ngetThreshold, "nget-threshold", 0.3, "cosine-distance threshold for NGET near hits")
	fs.IntVar(&o.embedDim, "embed-dim", 16, "embedding dimensionality for the NGET workload")
	fs.IntVar(&o.embedClusters, "embed-clusters", 64, "number of semantic clusters the key population is drawn from")

	fs.IntVar(&o.valueSz, "value", 3072, "payload bytes per value")
	fs.Float64Var(&o.getFrac, "get", 0.9, "fraction of operations that are GETs (rest are SETs)")
	fs.IntVar(&o.keys, "keys", 16384, "key population size")
	fs.Float64Var(&o.zipfS, "zipf", 0.99, "zipfian skew exponent over the key population (0 = uniform)")
	fs.IntVar(&o.ops, "ops", 200000, "total operations across all connections")
	fs.BoolVar(&o.preload, "preload", true, "SET every key once before measuring")
	fs.Uint64Var(&o.seed, "seed", 42, "random seed")
	fs.DurationVar(&o.store.Timeout, "timeout", 10*time.Second, "per-connection dial/read/write timeout")
	fs.BoolVar(&o.metrics, "metrics", false, "print the server METRICS snapshot at exit")

	fs.StringVar(&o.clusterSeeds, "cluster", "", "comma-separated spiderkv seed addresses; drives a ring-aware cluster client instead of one server")
	fs.IntVar(&o.nodes, "nodes", 0, "boot this many in-process cluster daemons and drive them (implies cluster mode)")
	fs.IntVar(&o.replicas, "replicas", 2, "cluster replication factor (cluster mode)")
	fs.StringVar(&o.jsonOut, "json", "", "write a JSON result summary to this file (same schema in single-node and cluster mode)")

	fs.IntVar(&o.store.Retries, "retries", 8, "attempts per request window before a fault is client-visible (1 = no retries)")
	fs.Float64Var(&o.fault.ResetProb, "fault-reset", 0, "per-op probability of a connection reset (in-process server only)")
	fs.Float64Var(&o.fault.PartialWriteProb, "fault-partial", 0, "per-write probability of a torn partial write")
	fs.Float64Var(&o.fault.ReadErrProb, "fault-read-err", 0, "per-read probability of an injected read error")
	fs.Float64Var(&o.fault.WriteErrProb, "fault-write-err", 0, "per-write probability of an injected write error")
	fs.DurationVar(&o.fault.Latency, "fault-latency", 0, "added latency per network op")
	fs.Uint64Var(&o.fault.Seed, "fault-seed", 1, "seed for the deterministic fault streams")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	if o.conns < 1 || o.pipeline < 1 || o.keys < 1 || o.ops < 1 || o.valueSz < 0 ||
		o.getFrac < 0 || o.getFrac > 1 || o.batch < 0 ||
		o.ngetMix < 0 || o.ngetMix > 1 || o.ngetThreshold < 0 ||
		o.embedDim < 1 || o.embedDim > kvserver.MaxEmbedDim || o.embedClusters < 1 || o.replicas < 1 {
		return nil, fmt.Errorf("invalid flag value")
	}
	if o.ngetMix > 0 && o.batch > 0 {
		return nil, fmt.Errorf("-nget-mix needs the pipelined GET/SET path (drop -batch)")
	}
	if err := o.store.Validate(); err != nil {
		return nil, err
	}
	if err := o.fault.Validate(); err != nil {
		return nil, err
	}
	faultsOn := o.fault != (faultnet.Config{Seed: o.fault.Seed})
	if o.clusterSeeds != "" || o.nodes > 0 {
		if o.addr != "" || faultsOn || o.batch > 0 || o.metrics {
			return nil, fmt.Errorf("cluster mode excludes -addr, -fault-* (kill a daemon instead), -batch and -metrics")
		}
	} else if faultsOn && o.addr != "" {
		return nil, fmt.Errorf("-fault-* flags need the in-process server (drop -addr)")
	}
	if faultsOn {
		o.fault.Registry = telemetry.NewRegistry()
	}
	return o, nil
}

// faultSummary renders the injected-fault counters in a fixed kind order,
// reading through Snapshot so reporting never registers new series.
func faultSummary(reg *telemetry.Registry) string {
	counters := reg.Snapshot().Counters
	var out []string
	for _, kind := range []string{"reset", "partial_write", "read_error", "write_error", "short_read", "latency"} {
		if n := counters[fmt.Sprintf("kv_faults_injected_total{kind=%q}", kind)]; n > 0 {
			out = append(out, fmt.Sprintf("%s=%d", kind, n))
		}
	}
	if out == nil {
		return "none"
	}
	return strings.Join(out, " ")
}

// prefixSum adds every counter series whose id starts with prefix, such
// as kv_retries_total across all ops of all pools.
func prefixSum(counters map[string]int64, prefix string) int64 {
	var n int64
	for id, v := range counters {
		if strings.HasPrefix(id, prefix) {
			n += v
		}
	}
	return n
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fmtDur(seconds float64) time.Duration {
	return time.Duration(seconds * float64(time.Second)).Round(time.Microsecond)
}
