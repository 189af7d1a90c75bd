// Command perfbench is the repository's benchmark. Each invocation runs one
// workload in a fresh process, closed loop, for a fixed measured time, checks
// every output it gets, and prints one JSON result as its last line of
// standard output:
//
//	perfbench --workload train-spider --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with no instrumentation beyond
// the batch and request-window clocks. --trace 1 runs the same workload with
// spans recorded around every call into the layers below it and reports the
// per-layer metrics instead; the spans are written to --spans when the run
// ends.
//
// --all runs every workload untraced and traced, each in its own child
// process, and prints a table with each workload's tracing overhead and the
// share of traced wall time the layer self times account for.
//
// See README.md in this directory for the workloads, the metrics and what
// each per-layer metric is expected to move.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(runOpts) (*report, error){
	"train-spider": func(o runOpts) (*report, error) {
		return runTrainWorkload(trainSpec{policy: "spider"}, o)
	},
	"train-remote": func(o runOpts) (*report, error) {
		return runTrainWorkload(trainSpec{policy: "baseline", remote: true}, o)
	},
	"serve-get": func(o runOpts) (*report, error) {
		return runServeWorkload(serveSpec{rounds: 5}, o)
	},
	"serve-nget": func(o runOpts) (*report, error) {
		// Each set-up ESETs every key, which takes seconds, so fewer
		// rounds.
		return runServeWorkload(serveSpec{nget: true, rounds: 3}, o)
	},
}

// workloadOrder is the order --all runs them in.
var workloadOrder = []string{"train-spider", "train-remote", "serve-get", "serve-nget"}

type runOpts struct {
	seed     uint64
	seconds  time.Duration
	trace    bool
	spanPath string
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: train-spider, train-remote, serve-get or serve-nget")
		seed     = flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Int("seconds", 15, "measured time per run, in seconds")
		trace    = flag.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
		spans    = flag.String("spans", filepath.Join(".bench_build", "spans"), "directory traced runs write their spans to")
		all      = flag.Bool("all", false, "run every workload untraced and traced, in child processes, and print the tracing overhead")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if *all {
		if err := runAll(*seed, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", *workload, workloadOrder)
		os.Exit(2)
	}
	o := runOpts{
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		spanPath: filepath.Join(*spans, fmt.Sprintf("%s-seed%d.tsv", *workload, *seed)),
	}
	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	if err := rep.write(os.Stdout, defs, !o.trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if rep.failed > 0 {
		os.Exit(1)
	}
}

// runAll runs each workload untraced and then traced in child processes of
// this binary and tabulates the tracing overhead.
func runAll(seed uint64, seconds int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	table := fmt.Sprintf("%-13s %14s %14s %9s %9s\n", "workload", "ops_per_s", "traced", "overhead", "coverage")
	for _, w := range workloadOrder {
		var got [2]result
		for t := 0; t < 2; t++ {
			cmd := exec.Command(self, "--workload", w, "--seed", strconv.FormatUint(seed, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(t))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			fmt.Print(string(out))
			if err != nil {
				return fmt.Errorf("%s --trace %d: %w", w, t, err)
			}
			if got[t], err = lastResult(out); err != nil {
				return fmt.Errorf("%s --trace %d: %w", w, t, err)
			}
		}
		plain := got[0].Metrics["ops_per_s"].Value
		traced := got[1].Metrics["trace.ops_per_s"].Value
		table += fmt.Sprintf("%-13s %14.1f %14.1f %8.1f%% %8.1f%%\n", w, plain, traced,
			100*(plain-traced)/plain, 100*got[1].Metrics["trace.coverage"].Value)
	}
	fmt.Print("\ntracing overhead (untraced vs traced throughput) and traced wall time covered by layer self times:\n" + table)
	return nil
}

func lastResult(out []byte) (result, error) {
	var res result
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) == 0 {
		return res, errors.New("no output")
	}
	err := json.Unmarshal(lines[len(lines)-1], &res)
	return res, err
}
