package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"spidercache/internal/leakcheck"
	"spidercache/internal/telemetry"
)

// runCapture invokes run() and returns its exit status, stdout, stderr
// and, when the run wrote one, the -json summary.
func runCapture(t *testing.T, args ...string) (int, string, string, *loadResult) {
	t.Helper()
	out := filepath.Join(t.TempDir(), "run.json")
	var stdout, stderr bytes.Buffer
	code := run(append(args, "-json", out), &stdout, &stderr)
	data, err := os.ReadFile(out)
	if err != nil {
		return code, stdout.String(), stderr.String(), nil
	}
	var res loadResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("unmarshal %s: %v", data, err)
	}
	return code, stdout.String(), stderr.String(), &res
}

// runOK drives one run that must exit 0 with every op accounted for and
// no client-visible error, and returns its -json summary.
func runOK(t *testing.T, ops int, args ...string) *loadResult {
	t.Helper()
	leakcheck.Check(t)
	code, stdout, stderr, res := runCapture(t, args...)
	if code != 0 || res == nil {
		t.Fatalf("run %v: exit %d\nstdout:\n%s\nstderr:\n%s", args, code, stdout, stderr)
	}
	if res.Ops != ops {
		t.Errorf("ops = %d, want %d", res.Ops, ops)
	}
	if res.ClientErrors != 0 {
		t.Errorf("client_errors = %d, want 0", res.ClientErrors)
	}
	if got := res.NGetExact + res.NGetNear + res.NGetMiss; got != res.NGetOps {
		t.Errorf("nget exact+near+miss = %d, want nget_ops %d", got, res.NGetOps)
	}
	if res.P50Ms <= 0 || res.MaxMs < res.P99Ms {
		t.Errorf("latency p50=%v p99=%v max=%v", res.P50Ms, res.P99Ms, res.MaxMs)
	}
	return res
}

// small keeps every end-to-end run short: a small key space and values.
var small = []string{"-keys", "500", "-value", "64", "-capacity", "4096"}

func TestRunPipelined(t *testing.T) {
	// 2001 ops over 3 connections: the remainder must still run.
	res := runOK(t, 2001, append(small, "-ops", "2001", "-conns", "3", "-pipeline", "8")...)
	if res.Mode != "single" || res.Replicas != 1 || len(res.Nodes) != 1 || res.FinalHealth != 1 {
		t.Errorf("single-node identity = %+v", res)
	}
	if res.HitRatio != 1 {
		t.Errorf("hit_ratio = %v, want 1 with every key preloaded", res.HitRatio)
	}
}

func TestRunOpsRemainder(t *testing.T) {
	runOK(t, 10, append(small, "-ops", "10", "-conns", "4", "-pipeline", "1")...)
}

func TestRunBatch(t *testing.T) {
	res := runOK(t, 1001, append(small, "-ops", "1001", "-conns", "2", "-batch", "16")...)
	if res.HitRatio != 1 {
		t.Errorf("hit_ratio = %v, want 1 with every key preloaded", res.HitRatio)
	}
}

func TestRunNGetMix(t *testing.T) {
	res := runOK(t, 1000, append(small, "-ops", "1000", "-conns", "2", "-nget-mix", "1")...)
	if res.NGetOps == 0 || res.NGetExact == 0 {
		t.Errorf("nget counters = %+v, want exact hits on a preloaded key space", res)
	}
}

// Injected faults must be absorbed by the pool's retries and the
// window re-issues: the run ends with zero client-visible errors.
func TestRunFaulted(t *testing.T) {
	runOK(t, 2000, append(small, "-ops", "2000", "-conns", "2",
		"-fault-reset", "0.01", "-fault-partial", "0.02")...)
}

func TestRunCluster(t *testing.T) {
	res := runOK(t, 1000, append(small, "-ops", "1000", "-conns", "2", "-nodes", "2")...)
	if res.Mode != "cluster" || res.Replicas != 2 || len(res.Nodes) != 2 {
		t.Errorf("cluster identity = %+v", res)
	}
	if res.HitRatio != 1 {
		t.Errorf("hit_ratio = %v, want 1 with every key preloaded", res.HitRatio)
	}
}

// The booted daemons take -capacity: 2 nodes of 100 items cannot hold
// 2,000 uniformly drawn keys.
func TestRunClusterHonoursCapacity(t *testing.T) {
	res := runOK(t, 4000, "-nodes", "2", "-replicas", "1", "-capacity", "100", "-keys", "2000",
		"-ops", "4000", "-conns", "2", "-get", "1", "-zipf", "0", "-value", "64")
	if res.HitRatio > 0.5 {
		t.Errorf("hit_ratio = %v, want well below 1 for 200 slots over 2000 keys", res.HitRatio)
	}
}

// Every failed op is counted, the run finishes and exits 3: here no
// server listens at all.
func TestRunCountsClientErrors(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	code, _, stderr, res := runCapture(t, "-addr", addr, "-preload=false", "-retries", "1",
		"-ops", "10", "-conns", "2", "-pipeline", "3")
	if code != 3 || res == nil {
		t.Fatalf("exit %d, summary %v; want 3 and a summary (stderr: %s)", code, res, stderr)
	}
	if res.Ops != 10 || res.ClientErrors != 10 {
		t.Errorf("ops=%d client_errors=%d, want 10 and 10", res.Ops, res.ClientErrors)
	}
}

func TestRunRejectsFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-nodes", "1", "-addr", "127.0.0.1:1"},
		{"-cluster", "127.0.0.1:1", "-fault-reset", "0.1"},
		{"-nodes", "1", "-fault-latency", "1ms"},
		{"-nodes", "1", "-batch", "4"},
		{"-cluster", "127.0.0.1:1", "-metrics"},
		{"-nget-mix", "0.5", "-batch", "4"},
		{"-addr", "127.0.0.1:1", "-fault-partial", "0.1"},
		{"-ops", "0"},
		{"-nodes", "1", "-replicas", "0"},
		{"-capacity", "0"},
		{"-no-such-flag"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run %v: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 || stderr.Len() == 0 {
			t.Errorf("run %v: stdout %q stderr %q", args, stdout.String(), stderr.String())
		}
	}
}

// fakeTarget answers every window at once, except that the first slow
// windows sleep and every window fails its first failFirst attempts.
type fakeTarget struct {
	slow      int
	failFirst int
	windows   int
	failed    int
}

func (f *fakeTarget) preload() error          { return nil }
func (f *fakeTarget) attempts() int           { return 3 }
func (f *fakeTarget) seeds() []string         { return []string{"fake"} }
func (f *fakeTarget) health() ([]string, int) { return f.seeds(), 1 }

func (f *fakeTarget) issue(w *window) error {
	if f.failed < f.failFirst {
		f.failed++
		return errors.New("injected")
	}
	f.failed = 0
	f.windows++
	if f.windows <= f.slow {
		time.Sleep(time.Millisecond)
	}
	for i := range w.res[:w.n] {
		w.res[i].Found = true
	}
	return nil
}

// The latency quantiles cover the whole run: slow windows at the start
// of a run longer than the old 32,768-sample window must still set the
// reported p99 and max.
func TestQuantilesCoverWholeRun(t *testing.T) {
	const ops, slow = 40000, 800 // 2% slow: above the 1% tail p99 reads
	f := &fakeTarget{slow: slow}
	cfg := loadConfig{ops: ops, conns: 1, window: 1, getFrac: 1, keys: 100, seed: 1}
	total, _, snap := driveLoad(f, cfg, telemetry.NewRegistry())
	if total.ops != ops || snap.Count != ops {
		t.Fatalf("ops=%d observations=%d, want %d", total.ops, snap.Count, ops)
	}
	if snap.P99 < time.Millisecond.Seconds() || snap.Max < time.Millisecond.Seconds() {
		t.Errorf("p99=%v max=%v, want both >= 1ms from the slow start", snap.P99, snap.Max)
	}
}

// A window that fails and then lands on a re-issue counts a retry, not
// an error; its results are those of the attempt that landed.
func TestReissuedWindowsCountRetries(t *testing.T) {
	f := &fakeTarget{failFirst: 2}
	cfg := loadConfig{ops: 100, conns: 1, window: 8, getFrac: 1, keys: 100, seed: 1}
	total, _, snap := driveLoad(f, cfg, telemetry.NewRegistry())
	// 100 ops in windows of 8 is 13 windows, each sent three times.
	if total.errors != 0 || total.retries != 2*13 || snap.Count != 13 {
		t.Errorf("errors=%d retries=%d windows=%d, want 0, 26 and 13", total.errors, total.retries, snap.Count)
	}
	if total.ops != 100 || total.gets != 100 || total.hits != 100 {
		t.Errorf("totals = %+v, want 100 ops, gets and hits", total.loadTotals)
	}
}
