package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// instances is how many daemon processes one run measures, one after
// another; each gets an equal share of every phase.
const instances = 5

// setupStarts is how many times each instance starts its daemon. Only
// the last start serves load; the others time set-up alone, so that
// setup_s rests on more starts than there are instances.
const setupStarts = 3

// primeWrites is how many PATCH batches precede the measured phases of a
// mutating workload: enough to fill ssspd's default version history of 2.
const primeWrites = 3

// window is the length of the slices the open and closed loops are cut
// into. Each slice gets the host's steal share over it, and the
// latency and goodput figures leave out the slices with the most steal
// (see quiet).
const window = 500 * time.Millisecond

// quietSteal is the steal share up to which a sample is always taken.
const quietSteal = 0.02

// maxLatenessP99 is the generator lateness beyond which an open-loop
// phase did not send at its rate and the run is invalid.
const maxLatenessP99 = 50 * time.Millisecond

// daemonCounters are the /metrics series a phase reports as deltas.
var daemonCounters = map[string]string{
	"cache_hits":        "ssspd_cache_hits_total",
	"cache_misses":      "ssspd_cache_misses_total",
	"cache_coalesced":   "ssspd_cache_coalesced_total",
	"cache_warm":        "ssspd_cache_warm_starts_total",
	"cache_cold":        "ssspd_cache_cold_starts_total",
	"cache_evicted":     "ssspd_cache_evicted_total",
	"cache_reuse_shed":  "ssspd_cache_reuse_shed_total",
	"solves":            "ssspd_solve_duration_seconds_count",
	"solves_completed":  "ssspd_solves_completed_total",
	"solves_degraded":   "ssspd_solves_degraded_total",
	"shed":              "ssspd_requests_shed_total",
	"governor_sheds":    "ssspd_governor_sheds_total",
	"audits":            "ssspd_audits_total",
	"mutations":         "ssspd_mutations_total",
	"sched_relaxations": "ssspd_scheduler_relaxations_total",
	"sched_stale":       "ssspd_scheduler_stale_skips_total",
	"sched_steal_tries": "ssspd_scheduler_steal_attempts_total",
	"sched_steal_hits":  "ssspd_scheduler_steal_hits_total",
}

// phaseRun is one phase's raw outcome.
type phaseRun struct {
	summary phaseSummary
	ops     []op
	writes  []write
	late    []time.Duration
	start   time.Time
	elapsed time.Duration
}

// phase scrapes /metrics, runs fn, scrapes again, and records the
// client's counts beside the daemon's counter deltas.
func phase(ctx context.Context, c *client, name string, fn func() ([]op, []write, []time.Duration)) (*phaseRun, error) {
	before, err := c.scrape(ctx)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	ops, writes, late := fn()
	elapsed := time.Since(start)
	after, err := c.scrape(ctx)
	if err != nil {
		return nil, err
	}
	p := &phaseRun{ops: ops, writes: writes, late: late, start: start, elapsed: elapsed}
	p.summary = phaseSummary{Name: name, Seconds: elapsed.Seconds(), Reads: len(ops), Writes: len(writes), Daemon: map[string]float64{}}
	for i := range ops {
		if ops[i].exact() {
			p.summary.Exact++
		}
	}
	for k, series := range daemonCounters {
		p.summary.Daemon[k] = counterDelta(before, after, series)
	}
	if len(late) > 0 {
		xs := make([]float64, len(late))
		for i, l := range late {
			xs[i] = ms(l)
		}
		p.summary.Lateness = &latenessSummary{P99MS: quantile(xs, 0.99), MaxMS: quantile(xs, 1)}
	}
	return p, nil
}

// crossCheck compares the daemon's counter deltas with the client's own
// counts for one phase. It returns one line per check and the lines of
// the checks that failed. A phase in which a read was refused or lost
// in transport is not compared: such a read may or may not have reached
// the cache.
func (p *phaseRun) crossCheck() (lines, failed []string) {
	d := p.summary.Daemon
	answered := 0
	for i := range p.ops {
		if p.ops[i].err == nil && p.ops[i].status/100 == 2 {
			answered++
		}
	}
	if other := len(p.ops) - answered; other > 0 {
		return []string{fmt.Sprintf("%s: not comparable: %d reads refused or lost", p.summary.Name, other)}, nil
	}
	check := func(ok bool, line string) {
		if ok {
			lines = append(lines, line+": ok")
			return
		}
		lines = append(lines, line+": MISMATCH")
		failed = append(failed, line)
	}
	lookups := d["cache_hits"] + d["cache_misses"] + d["cache_coalesced"]
	check(lookups == float64(answered), fmt.Sprintf("%s: cache hits %g + misses %g + coalesced %g = %g vs %d reads answered",
		p.summary.Name, d["cache_hits"], d["cache_misses"], d["cache_coalesced"], lookups, answered))
	check(d["solves"] == d["cache_misses"], fmt.Sprintf("%s: solves observed %g vs cache misses %g", p.summary.Name, d["solves"], d["cache_misses"]))
	if d["solves_completed"] < 0 {
		lines = append(lines, fmt.Sprintf("%s: ssspd_solves_completed_total fell by %g (the counter restarts with each new pool)", p.summary.Name, -d["solves_completed"]))
	}
	return lines, failed
}

// sample is one measurement and the interval it was taken over.
type sample struct {
	value    float64
	from, to time.Time
}

// slice is one window of a load phase: the latencies of the exact
// answers that fall in it, in ms, and the host's steal share over it.
type slice struct {
	seconds, steal float64
	lat            []float64
}

// slices cuts a load phase of nominal length dur into windows of about
// window each, and puts every exact answer into the window its key
// time falls in. Answers keyed after the phase's nominal end, such as
// the closed loop's last in-flight reads, fall in none.
func slices(p *phaseRun, dur time.Duration, key func(*op) time.Time, steal *stealClock) []slice {
	k := max(1, int((dur+window/2)/window))
	step := dur / time.Duration(k)
	out := make([]slice, k)
	for j := range out {
		a := p.start.Add(time.Duration(j) * step)
		out[j] = slice{seconds: step.Seconds(), steal: steal.share(a, a.Add(step))}
	}
	for i := range p.ops {
		o := &p.ops[i]
		if j := int(key(o).Sub(p.start) / step); o.exact() && j >= 0 && j < k {
			out[j].lat = append(out[j].lat, ms(o.latency()))
		}
	}
	return out
}

// quiet returns the indexes of the samples to take, given each one's
// steal share: every sample with at most quietSteal, or the half of them,
// rounded up, with the least steal when fewer qualify. When the host
// does not report steal, it returns them all.
func quiet(steals []float64) []int {
	idx := make([]int, len(steals))
	for i := range idx {
		idx[i] = i
	}
	for _, s := range steals {
		if s < 0 {
			return idx
		}
	}
	sort.SliceStable(idx, func(a, b int) bool { return steals[idx[a]] < steals[idx[b]] })
	n := (len(idx) + 1) / 2
	for n < len(idx) && steals[idx[n]] <= quietSteal {
		n++
	}
	sel := idx[:n]
	sort.Ints(sel)
	return sel
}

// quietMedian returns the median value of the quiet samples of xs, how
// many there are, and a line saying which samples it took.
func quietMedian(name, unit string, xs []sample, steal *stealClock) (float64, int, string) {
	steals := make([]float64, len(xs))
	for i, x := range xs {
		steals[i] = steal.share(x.from, x.to)
	}
	sel := quiet(steals)
	vals := make([]float64, len(sel))
	for i, j := range sel {
		vals[i] = xs[j].value
	}
	return median(vals), len(vals), selection(name, unit, steals, sel)
}

// selection describes which of a figure's samples were taken.
func selection(name, unit string, steals []float64, sel []int) string {
	taken := make([]float64, len(sel))
	for i, j := range sel {
		taken[i] = steals[j]
	}
	return fmt.Sprintf("%s: %d of %d %s, steal at most %.3f (all: at most %.3f)",
		name, len(sel), len(steals), unit, quantile(taken, 1), quantile(append([]float64(nil), steals...), 1))
}

// instance is what one daemon process measured.
type instance struct {
	setups       []sample // seconds
	warmup       sample   // seconds
	rss          float64  // MiB
	phases       []*phaseRun
	open, closed *phaseRun
	reads        []op
	writes       []write // the read daemon's writes, in order, for the oracle's timeline
	mut          []sample
}

// runInstance starts one daemon and runs one share of every phase on
// it: set-up, warm-up, (on road-mutate) priming, open loop, closed loop
// and, where the workload has one, a write probe.
func runInstance(ctx context.Context, cfg config, w workload, in *inputs, i int, warmReqs []request, open, closed time.Duration, probe, conns int) (*instance, error) {
	it := &instance{}
	var d *daemon
	for k := range setupStarts {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		var setup time.Duration
		var err error
		if d, setup, err = startDaemon(ctx, cfg.ssspd, in.bundleDir, filepath.Join(cfg.workdir, fmt.Sprintf("ssspd-%d-%d.log", i, k))); err != nil {
			return nil, err
		}
		it.setups = append(it.setups, sample{setup.Seconds(), t0, t0.Add(setup)})
	}
	defer d.stop()
	c := newClient(d.base, conns)
	defer c.close()
	run := func(name string, fn func() ([]op, []write, []time.Duration)) (*phaseRun, error) {
		p, err := phase(ctx, c, fmt.Sprintf("%d/%s", i, name), fn)
		if err != nil {
			return nil, err
		}
		it.phases = append(it.phases, p)
		it.reads = append(it.reads, p.ops...)
		it.writes = append(it.writes, p.writes...)
		return p, nil
	}
	warm, err := run("warmup", func() ([]op, []write, []time.Duration) {
		return runList(ctx, c, warmReqs, conns), nil, nil
	})
	if err != nil {
		return nil, err
	}
	it.warmup = sample{warm.elapsed.Seconds(), warm.start, warm.start.Add(warm.elapsed)}

	in.writes.restart() // every daemon starts from the generated graph
	var stopW chan struct{}
	var writesC <-chan []write
	if w.mutate > 0 {
		// Fill the daemon's version history, then the hot set again, so
		// the measured phases start from the steady state of a mutating
		// graph rather than from a cache with nothing to repair.
		if _, err := run("prime", func() ([]op, []write, []time.Duration) {
			writes := probeWrites(ctx, c, in.writes, readGraph, primeWrites)
			return runList(ctx, c, warmReqs, conns), writes, nil
		}); err != nil {
			return nil, err
		}
		stopW = make(chan struct{})
		writesC = writer(ctx, c, in.writes, readGraph, w.mutate, stopW)
		defer func() { // on an early return, stop the writer and wait for it
			if stopW != nil {
				close(stopW)
				<-writesC
			}
		}()
	}
	if it.open, err = run("open", func() ([]op, []write, []time.Duration) {
		ops, late := openLoop(ctx, c, in.reqs.Next, w.openRPS, open, conns)
		return ops, nil, late
	}); err != nil {
		return nil, err
	}
	if it.closed, err = run("closed", func() ([]op, []write, []time.Duration) {
		ops := closedLoop(ctx, c, in.reqs.Next, closed, conns)
		var writes []write
		if stopW != nil {
			close(stopW)
			writes, stopW = <-writesC, nil
		}
		return ops, writes, nil
	}); err != nil {
		return nil, err
	}

	// mut_p50_ms times the writes beside the reads on road-mutate and
	// the probe elsewhere.
	timed := it.closed.writes
	if probe > 0 {
		p, err := runProbe(ctx, cfg, in, i, d, c, probe, conns, it)
		if err != nil {
			return nil, err
		}
		timed = p.writes
	}
	for _, wr := range timed {
		if wr.ok() {
			it.mut = append(it.mut, sample{ms(wr.done.Sub(wr.sent)), wr.sent, wr.done})
		}
	}
	if it.rss == 0 {
		if it.rss, err = d.peakRSSMiB(); err != nil {
			return nil, fmt.Errorf("read daemon peak RSS: %w", err)
		}
	}
	return it, nil
}

// runProbe sends the write probe's k batches one after another. A
// relabeled version refuses mutations, so on a relabeled workload the
// probe goes to a daemon of its own serving only an unrelabeled twin of
// the graph, started once the read daemon d is measured and stopped;
// the read daemon's set-up time and peak RSS then cover the read graph
// alone.
func runProbe(ctx context.Context, cfg config, in *inputs, i int, d *daemon, c *client, k, conns int, it *instance) (*phaseRun, error) {
	if in.twinDir == "" {
		p, err := phase(ctx, c, fmt.Sprintf("%d/probe", i), func() ([]op, []write, []time.Duration) {
			return nil, probeWrites(ctx, c, in.writes, readGraph, k), nil
		})
		if err != nil {
			return nil, err
		}
		it.phases, it.writes = append(it.phases, p), append(it.writes, p.writes...)
		return p, nil
	}
	var err error
	if it.rss, err = d.peakRSSMiB(); err != nil {
		return nil, fmt.Errorf("read daemon peak RSS: %w", err)
	}
	d.stop()
	td, _, err := startDaemon(ctx, cfg.ssspd, in.twinDir, filepath.Join(cfg.workdir, fmt.Sprintf("ssspd-%d-twin.log", i)))
	if err != nil {
		return nil, err
	}
	defer td.stop()
	tc := newClient(td.base, conns)
	defer tc.close()
	p, err := phase(ctx, tc, fmt.Sprintf("%d/probe-twin", i), func() ([]op, []write, []time.Duration) {
		return nil, probeWrites(ctx, tc, in.writes, writeTwin, k), nil
	})
	if err != nil {
		return nil, err
	}
	it.phases = append(it.phases, p)
	return p, nil
}

// runEndToEnd runs the untraced measurement. The measured seconds are
// shared out over instances daemon processes run one after another.
// Every figure comes from the samples, or the windows of the load
// phases, taken while the hypervisor stole little from the host (see
// quiet). On a shared host that keeps a burst of steal in part of a run
// from deciding the run's figure. Every exact answer is checked against
// the oracle.
func runEndToEnd(ctx context.Context, cfg config, w workload, in *inputs, r *result, steal *stealClock) error {
	conns := r.Facts.Conns
	or := newOracle(in.g)
	or.solve(in.hot, conns)
	// The load generator needs a fraction of one core. With one P its
	// goroutines do not compete with the daemon for both cores, which
	// on a two-core host made every latency figure noisier.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r.Facts.GOMAXPROCS = 1
	r.Facts.DaemonFlags = daemonFlags("127.0.0.1:<free port>", in.bundleDir)

	seconds := time.Duration(cfg.seconds) * time.Second
	open := time.Duration(w.openFrac*float64(seconds)) / instances
	closed := seconds/instances - open
	warmReqs := in.reqs.warmup()
	var its []*instance
	for i := range instances {
		it, err := runInstance(ctx, cfg, w, in, i, warmReqs, open, closed, (w.probe+instances-1)/instances, conns)
		if err != nil {
			return err
		}
		its = append(its, it)
	}

	steal.sample() // every interval measured so far now has a sample after it
	var setups, warmups, mut []sample
	var rss, late []float64
	var openWins, closedWins []slice
	var reads []op
	intended := func(o *op) time.Time { return o.intended }
	done := func(o *op) time.Time { return o.done }
	for _, it := range its {
		setups, warmups, rss = append(setups, it.setups...), append(warmups, it.warmup), append(rss, it.rss)
		mut = append(mut, it.mut...)
		openWins = append(openWins, slices(it.open, open, intended, steal)...)
		closedWins = append(closedWins, slices(it.closed, closed, done, steal)...)
		for _, l := range it.open.late {
			late = append(late, ms(l))
		}
		reads = append(reads, it.reads...)
		for _, p := range it.phases {
			r.Phases = append(r.Phases, p.summary)
			r.Attempted += len(p.ops) + len(p.writes)
			for j := range p.ops {
				if !p.ops[j].exact() {
					r.Failed++
				}
			}
			for j := range p.writes {
				if !p.writes[j].ok() {
					r.Failed++
				}
			}
			if len(p.ops) > 0 {
				lines, failed := p.crossCheck()
				r.Checks, r.Mismatch = append(r.Checks, lines...), append(r.Mismatch, failed...)
			}
		}
	}

	if len(in.hot) == 0 {
		or.solve(sampleSources(reads, freshChecked, cfg.seed), conns)
	}
	for _, it := range its {
		wrong, err := or.check(it.reads, it.writes)
		if err != nil {
			return err
		}
		r.Wrong = append(r.Wrong, wrong...)
	}
	r.Checks = append(r.Checks, fmt.Sprintf("oracle: %d sources, %d exact answers checked", len(or.dist), countChecked(reads, or)))
	if p99 := quantile(late, 0.99); p99 > ms(maxLatenessP99) {
		r.Invalid = fmt.Sprintf("open-loop generator ran late: p99 lateness %.2f ms > %v", p99, maxLatenessP99)
	}

	figure := func(name, unit, what string, xs []sample) {
		v, n, line := quietMedian(name, what, xs, steal)
		r.add(name, v, unit, n)
		r.Selection = append(r.Selection, line)
	}
	figure("setup_s", "s", "daemon starts", setups)
	figure("warmup_s", "s", "warm-ups", warmups)

	openSel := quiet(steals(openWins))
	var lat []float64
	for _, j := range openSel {
		lat = append(lat, openWins[j].lat...)
	}
	r.add("p50_ms", quantile(lat, 0.5), "ms", len(lat))
	// p99 follows the hypervisor's steal time more than the daemon on a
	// shared two-core host, so it is reported but not part of the result.
	r.Info = append(r.Info, metric{"p99_ms", quantile(lat, 0.99), "ms", len(lat)})
	r.Selection = append(r.Selection, selection("p50_ms", fmt.Sprintf("open-loop windows of %v", window), steals(openWins), openSel))

	closedSel := quiet(steals(closedWins))
	answers, secs := 0, 0.0
	for _, j := range closedSel {
		answers, secs = answers+len(closedWins[j].lat), secs+closedWins[j].seconds
	}
	r.add("goodput_rps", float64(answers)/secs, "1/s", answers)
	r.Selection = append(r.Selection, selection("goodput_rps", fmt.Sprintf("closed-loop windows of %v", window), steals(closedWins), closedSel))

	figure("mut_p50_ms", "ms", "PATCH batches", mut)
	r.add("peak_rss_mb", median(rss), "MiB", len(rss))
	return nil
}

func steals(ws []slice) []float64 {
	out := make([]float64, len(ws))
	for i, w := range ws {
		out[i] = w.steal
	}
	return out
}

func countChecked(ops []op, or *oracle) int {
	n := 0
	for i := range ops {
		if _, ok := or.dist[ops[i].req.src]; ok && ops[i].exact() {
			n++
		}
	}
	return n
}
