// Command perfbench is the repository's benchmark, from the work-stealing
// deque up to ssspd's HTTP API.
//
// An untraced run (--trace 0) generates one workload's graph from
// --seed, writes it as .wspb bundles, starts the real ssspd binary on
// them with default flags, drives /sssp and PATCH /graph over HTTP for
// --seconds, checks every answer against a serial-Dijkstra oracle, and
// prints the end-to-end metrics. A traced run (--trace 1) replays the
// same request sequence in-process through the library stack with a
// span around every call into a layer, runs the per-layer micro-cases,
// and prints the per-layer metrics. README.md lists the workloads and
// every metric.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {"p50_ms": {"value": 1.2, "unit": "ms"}, ...}}
//
// Exit status: 0 when every checked answer was right, 1 when one was
// wrong, 2 when the run could not complete, 3 when the open-loop
// generator fell behind its own schedule (the run is invalid and
// reports nothing), 4 when the daemon's /metrics counters disagree with
// what the client saw it serve.
//
// Usage (run.sh builds both binaries first):
//
//	perfbench --ssspd .bench_build/ssspd --workload road-hot --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

type config struct {
	workload string
	seed     uint64
	seconds  int
	traced   bool
	toy      bool // toy-scale inputs, set by the smoke test
	ssspd    string
	workdir  string
	repo     string
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: road-hot, twitter-cold or road-mutate")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.IntVar(&cfg.seconds, "seconds", 30, "seconds of measured load")
	flag.IntVar(&trace, "trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	flag.StringVar(&cfg.ssspd, "ssspd", "", "path of the ssspd binary")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build/work", "directory for bundles, daemon logs and result files")
	flag.StringVar(&cfg.repo, "repo", ".", "root of the measured checkout, for the source id")
	flag.Parse()
	cfg.traced = trace == 1
	if (trace != 0 && trace != 1) || cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1, --seconds at least 1")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, cfg, os.Stdout)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, cfg config, stdout io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	w, err := lookupWorkload(cfg.workload, cfg.toy)
	if err != nil {
		return fail(err)
	}
	if !cfg.traced && cfg.ssspd == "" {
		return fail(fmt.Errorf("--ssspd is required"))
	}
	// The load generator may use every core but no more connections
	// than there are cores.
	runtime.GOMAXPROCS(runtime.NumCPU())
	cfg.workdir = filepath.Join(cfg.workdir, fmt.Sprintf("%s-%d-%d", w.name, cfg.seed, btoi(cfg.traced)))
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return fail(err)
	}
	r := &result{Workload: w.name, Seed: cfg.seed, Traced: cfg.traced, Facts: collectFacts(cfg.repo)}
	r.Facts.Conns = runtime.NumCPU()

	in, err := buildInputs(w, cfg.seed, cfg.workdir)
	if err != nil {
		return fail(err)
	}
	steal := startStealClock()
	start := time.Now()
	if cfg.traced {
		err = runTraced(ctx, cfg, w, in, r)
	} else {
		err = runEndToEnd(ctx, cfg, w, in, r, steal)
	}
	steal.close()
	r.Facts.StealFrac = steal.share(start, time.Now())
	if err != nil {
		return fail(err)
	}
	for _, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fail(fmt.Errorf("metric %s has no value (%d samples)", m.Name, m.Samples))
		}
	}
	// The result file carries the phases and host facts in full; the
	// printed summary does not depend on it.
	if b, err := json.MarshalIndent(r, "", "  "); err == nil {
		if err := os.WriteFile(filepath.Join(cfg.workdir, "result.json"), b, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write result file:", err)
		}
	}
	if r.Invalid != "" {
		fmt.Fprintln(os.Stderr, "perfbench: invalid run:", r.Invalid)
		return 3
	}
	if err := r.print(stdout); err != nil {
		return fail(err)
	}
	if code := r.status(); code != 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d wrong distances, %d counter mismatches\n", len(r.Wrong), len(r.Mismatch))
		return code
	}
	return 0
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
