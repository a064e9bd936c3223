package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wasp"
)

// Shares of --seconds a traced run spends on each part; the per-layer
// micro-cases run fixed iteration counts after them.
const (
	tracedHTTPFrac   = 0.35
	tracedReplayFrac = 0.35
	replayBlock      = 250 * time.Millisecond // traced and untraced replay alternate per block
)

// span is one timed call into a layer. Spans of one replayed request
// share the parent chain rooted at its registry span.
type span struct {
	ID      int           `json:"id"`
	Parent  int           `json:"parent,omitempty"`
	Name    string        `json:"name"`
	Start   time.Duration `json:"start_ns"` // since the tracer's base
	End     time.Duration `json:"end_ns"`
	Outcome string        `json:"outcome,omitempty"` // registry.run only: hit, coalesced, warm, cold or repair
}

// tracer keeps spans in memory. The replay is sequential, so the open
// registry span is the parent of any solve the pool reports meanwhile.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	on    atomic.Bool
	open  int
	spans []span
}

func (t *tracer) begin(name string) (int, time.Time) {
	now := time.Now()
	if !t.on.Load() {
		return 0, now
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Start: now.Sub(t.base)})
	t.open = len(t.spans)
	return t.open, now
}

func (t *tracer) end(id int, outcome string) {
	if id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End, s.Outcome = time.Since(t.base), outcome
	t.open = 0
}

// onSolve is the pool's public OnSolve hook: it records the solve as a
// child of the open registry span.
func (t *tracer) onSolve(o wasp.SolveObservation) {
	if !t.on.Load() {
		return
	}
	end := time.Since(t.base)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: t.open, Name: "pool.solve", Start: end - o.Elapsed, End: end})
}

// selfTimes returns each span's duration minus the part its children
// cover, by span ID.
func selfTimes(spans []span) map[int]time.Duration {
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] += s.End - s.Start
		if s.Parent != 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// stack is the library stack ssspd builds, with ssspd's default flags:
// 64 MiB cache, governor, async 1% auditor, 2 sessions, queue 8,
// 100 ms queue wait, trace capacity 4096.
type stack struct {
	reg   *wasp.Registry
	cache *wasp.Cache
}

func newStack(ctx context.Context, dir string, onSolve func(wasp.SolveObservation)) (*stack, error) {
	cache := wasp.NewCache(wasp.CacheOptions{MaxBytes: 64 << 20})
	gov := wasp.NewGovernor(wasp.GovernorConfig{
		QueueDelayBudget: 100 * time.Millisecond,
		DegradedDeadline: 50 * time.Millisecond,
		MaxRetryAfter:    30 * time.Second,
		Slots:            2,
	})
	reg := wasp.NewRegistry(wasp.RegistryOptions{
		Options: wasp.Options{Algorithm: wasp.AlgoWasp, Workers: runtime.GOMAXPROCS(0), Delta: 1},
		Cache:   cache,
		Pool: wasp.PoolOptions{
			Sessions:   2,
			QueueDepth: 8,
			QueueWait:  100 * time.Millisecond,
			Observe:    &wasp.ObserverConfig{TraceCapacity: 4096},
			OnSolve:    onSolve,
			Governor:   gov,
		},
		History:      2,
		DrainTimeout: 10 * time.Second,
		Audit:        &wasp.AuditorOptions{SampleRate: 0.01, Async: true},
	})
	files, err := filepath.Glob(filepath.Join(dir, "*.wspb"))
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		if _, _, err := reg.LoadFile(ctx, f); err != nil {
			_ = reg.Close(ctx) // the load error is the one to report
			return nil, fmt.Errorf("load %s: %w", f, err)
		}
	}
	return &stack{reg: reg, cache: cache}, nil
}

func (s *stack) close(ctx context.Context) { _ = s.reg.Close(ctx) } // nothing is served after a run

// replayed is one in-process request as the replay saw it.
type replayed struct {
	req     request
	traced  bool
	latency time.Duration
	outcome string
	dist    uint32
	reached int
}

// replay runs the workload's seeded read sequence sequentially through
// Registry.Run for dur, alternating untraced and traced blocks. On a
// mutating workload it applies one batch per openRPS·mutate reads
// through Registry.Mutate, as ssspd does for PATCH /graph.
func replay(ctx context.Context, w workload, in *inputs, seed uint64, dur time.Duration, tr *tracer) (reads []replayed, mutated int, err error) {
	st, err := newStack(ctx, in.bundleDir, tr.onSolve)
	if err != nil {
		return nil, 0, err
	}
	defer st.close(ctx)
	rs := newRequestStream(w, in, seed)
	ws := newWriteStream(in.g, seed)
	perWrite := max(1, int(w.openRPS*w.mutate.Seconds()))
	harvested := map[int]bool{} // sources whose first read after a mutation repairs
	served := map[int]bool{}

	// one runs a read; warm-up reads are not recorded.
	one := func(r request, traced, record bool) error {
		before := st.cache.Stats()
		tr.on.Store(traced)
		id, start := tr.begin("registry.run")
		res, err := st.reg.Run(ctx, r.graph, wasp.Vertex(r.src))
		lat := time.Since(start)
		after := st.cache.Stats()
		if err != nil {
			return fmt.Errorf("replay source %d: %w", r.src, err)
		}
		oc := outcomeOf(before, after)
		if oc == "warm" && harvested[r.src] {
			oc = "repair"
		}
		delete(harvested, r.src)
		served[r.src] = true
		tr.end(id, oc)
		if record {
			reads = append(reads, replayed{r, traced, lat, oc, res.Dist[r.tgt], res.Reached()})
		}
		return nil
	}
	for _, r := range rs.warmup() {
		if err := one(r, false, false); err != nil {
			return nil, 0, err
		}
	}
	start := time.Now()
	for i := 0; time.Since(start) < dur; i++ {
		traced := int(time.Since(start)/replayBlock)%2 == 1
		if w.mutate > 0 && i > 0 && i%perWrite == 0 {
			batch, _ := ws.Next()
			tr.on.Store(traced)
			id, _ := tr.begin("registry.mutate")
			if _, _, err := st.reg.Mutate(ctx, readGraph, mutations(batch)); err != nil {
				return nil, 0, fmt.Errorf("replay mutate: %w", err)
			}
			mutated++
			tr.end(id, "")
			for s := range served {
				harvested[s] = true
			}
			served = map[int]bool{}
		}
		if err := one(rs.Next(), traced, true); err != nil {
			return nil, 0, err
		}
	}
	tr.on.Store(false)
	return reads, mutated, nil
}

// outcomeOf classifies one sequential read from the cache counters it
// moved.
func outcomeOf(before, after wasp.CacheStats) string {
	switch {
	case after.Hits > before.Hits:
		return "hit"
	case after.Coalesced > before.Coalesced:
		return "coalesced"
	case after.WarmStarts > before.WarmStarts:
		return "warm"
	default:
		return "cold"
	}
}

func mutations(batch []edit) []wasp.Mutation {
	out := make([]wasp.Mutation, len(batch))
	for i, e := range batch {
		out[i] = wasp.Mutation{Kind: wasp.MutSetWeight, From: wasp.Vertex(e.from), To: wasp.Vertex(e.to), W: e.weight}
	}
	return out
}

// tracedHTTP is a traced run's HTTP part: warm-up, then one connection
// in a closed loop, so latencies compare with the sequential in-process
// replay of the same sequence. Like the untraced run it sends load with
// GOMAXPROCS=1.
func tracedHTTP(ctx context.Context, cfg config, w workload, in *inputs, dur time.Duration) (warm, seq *phaseRun, writes []write, err error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	d, _, err := startDaemon(ctx, cfg.ssspd, in.bundleDir, filepath.Join(cfg.workdir, "ssspd.log"))
	if err != nil {
		return nil, nil, nil, err
	}
	defer d.stop()
	c := newClient(d.base, 1)
	defer c.close()
	rs := newRequestStream(w, in, cfg.seed)
	if warm, err = phase(ctx, c, "warmup", func() ([]op, []write, []time.Duration) {
		return runList(ctx, c, rs.warmup(), 1), nil, nil
	}); err != nil {
		return nil, nil, nil, err
	}
	var stopW chan struct{}
	var writesC <-chan []write
	if w.mutate > 0 {
		stopW = make(chan struct{})
		writesC = writer(ctx, c, in.writes, readGraph, w.mutate, stopW)
		defer func() { // on an early return, stop the writer and wait for it
			if stopW != nil {
				close(stopW)
				<-writesC
			}
		}()
	}
	seq, err = phase(ctx, c, "closed-1", func() ([]op, []write, []time.Duration) {
		ops := closedLoop(ctx, c, rs.Next, dur, 1)
		if stopW != nil {
			close(stopW)
			writes, stopW = <-writesC, nil
		}
		return ops, writes, nil
	})
	return warm, seq, writes, err
}

// runTraced measures the per-layer metrics: a short HTTP part against
// the daemon for the counters /metrics exposes and the HTTP overhead,
// the in-process replay with spans, and the layer micro-cases.
func runTraced(ctx context.Context, cfg config, w workload, in *inputs, r *result) error {
	conns := r.Facts.Conns
	or := newOracle(in.g)
	or.solve(in.hot, conns)
	httpDur := time.Duration(tracedHTTPFrac * float64(cfg.seconds) * float64(time.Second))
	replayDur := time.Duration(tracedReplayFrac * float64(cfg.seconds) * float64(time.Second))

	warm, seq, writes, err := tracedHTTP(ctx, cfg, w, in, httpDur)
	if err != nil {
		return err
	}
	r.Facts.DaemonFlags = daemonFlags("127.0.0.1:<free port>", in.bundleDir)
	reads := append(append([]op(nil), warm.ops...), seq.ops...)
	for _, p := range []*phaseRun{warm, seq} {
		r.Phases = append(r.Phases, p.summary)
		lines, failed := p.crossCheck()
		r.Checks, r.Mismatch = append(r.Checks, lines...), append(r.Mismatch, failed...)
	}

	tr := &tracer{base: time.Now()}
	rep, mutated, err := replay(ctx, w, in, cfg.seed, replayDur, tr)
	if err != nil {
		return err
	}
	r.Spans = len(tr.spans)
	if err := writeSpans(filepath.Join(cfg.workdir, "spans.jsonl"), tr.spans); err != nil {
		return err
	}

	// Correctness: every checked answer, over HTTP and in-process.
	if len(in.hot) == 0 {
		srcs := sampleSources(reads, freshChecked/2, cfg.seed)
		for _, x := range rep[:min(len(rep), freshChecked/2)] {
			srcs = append(srcs, x.req.src)
		}
		or.solve(srcs, conns)
	}
	var overlapping []write
	if w.mutate > 0 {
		overlapping = writes
	}
	if r.Wrong, err = or.check(reads, overlapping); err != nil {
		return err
	}
	for _, x := range rep {
		if d0, ok := or.dist[x.req.src]; ok && w.mutate == 0 && (d0[x.req.tgt] != x.dist || or.reached[x.req.src] != x.reached) {
			r.Wrong = append(r.Wrong, fmt.Sprintf("in-process source %d target %d: distance %d, oracle %d", x.req.src, x.req.tgt, x.dist, d0[x.req.tgt]))
		}
	}
	r.Attempted = len(reads) + len(writes) + len(rep) + mutated
	for i := range reads {
		if !reads[i].exact() {
			r.Failed++
		}
	}
	for i := range writes {
		if !writes[i].ok() {
			r.Failed++
		}
	}

	// ssspd layer: the HTTP answers against the same sequence in-process.
	var httpLat, inproc, solveMS, clientMS []float64
	for i := range seq.ops {
		if o := &seq.ops[i]; o.exact() {
			httpLat = append(httpLat, us(o.latency()))
			solveMS = append(solveMS, o.ans.ElapsedMS)
			clientMS = append(clientMS, ms(o.latency()))
		}
	}
	for _, x := range rep {
		if !x.traced {
			inproc = append(inproc, us(x.latency))
		}
	}
	dd := seq.summary.Daemon
	r.add("ssspd.overhead_us", median(httpLat)-median(inproc), "us", len(httpLat))
	r.add("ssspd.solve_frac", sum(solveMS)/sum(clientMS), "frac", len(solveMS))
	r.add("ssspd.shed", dd["shed"], "count", 1)
	r.add("ssspd.degraded", dd["solves_degraded"], "count", 1)
	lookups := dd["cache_hits"] + dd["cache_misses"] + dd["cache_coalesced"]
	r.add("cache.hit_frac", dd["cache_hits"]/lookups, "frac", int(lookups))
	r.add("cache.warm_frac", dd["cache_warm"]/max(dd["cache_misses"], 1), "frac", int(dd["cache_misses"]))
	r.add("cache.evicted", dd["cache_evicted"], "count", 1)
	r.add("auditor.audits", dd["audits"], "count", 1)
	// The scheduler counters restart with every new pool, so a phase with
	// mutations cannot difference them; the warm-up never mutates.
	wd := warm.summary.Daemon
	r.add("sched.relax_per_solve", wd["sched_relaxations"]/max(wd["solves"], 1), "count", int(wd["solves"]))
	r.add("sched.steal_hit_frac", wd["sched_steal_hits"]/max(wd["sched_steal_tries"], 1), "frac", int(wd["sched_steal_tries"]))

	// Replay spans: registry.run total and self time, and the tracing
	// overhead as traced over untraced median latency.
	self := selfTimes(tr.spans)
	var runs, selfs, traced, children []float64
	for _, s := range tr.spans {
		switch s.Name {
		case "registry.run":
			runs = append(runs, us(s.End-s.Start))
			selfs = append(selfs, us(self[s.ID]))
		case "pool.solve":
			children = append(children, us(s.End-s.Start))
		}
	}
	for _, x := range rep {
		if x.traced {
			traced = append(traced, us(x.latency))
		}
	}
	r.add("replay.run_us", median(runs), "us", len(runs))
	r.add("replay.self_us", median(selfs), "us", len(selfs))
	r.add("replay.solve_frac", sum(children)/sum(runs), "frac", len(children))
	r.add("trace.overhead_frac", median(traced)/median(inproc)-1, "frac", len(traced))
	r.Checks = append(r.Checks, fmt.Sprintf("replay: %d reads (%s), %d mutations, %d spans", len(rep), outcomeCounts(rep), mutated, len(tr.spans)))

	return microCases(ctx, w, in, cfg.seed, r)
}

// writeSpans writes the spans kept in memory, one JSON object a line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func outcomeCounts(rep []replayed) string {
	n := map[string]int{}
	for _, x := range rep {
		n[x.outcome]++
	}
	return fmt.Sprintf("hit %d, coalesced %d, warm %d, cold %d, repair %d", n["hit"], n["coalesced"], n["warm"], n["cold"], n["repair"])
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
