package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wasp"
	"wasp/internal/baseline/dijkstra"
	"wasp/internal/chunk"
	"wasp/internal/core"
	"wasp/internal/deque"
	"wasp/internal/verify"
)

// Iteration counts of the layer micro-cases. Each case times calls into
// one layer's public functions on the workload's own graph, except the
// deque and the session-reuse case, which are graph-independent.
const (
	microSolves   = 6       // solves per solver-bound case
	microHits     = 200     // cache and registry hits
	microTiny     = 2000    // pool admissions on the tiny graph
	microDequeOps = 1 << 20 // deque push/pop pairs
	microKron     = 50      // session-reuse iterations on kron 8192
	microMutates  = 6       // Registry.Mutate batches
)

// timeIt runs fn n times and returns the median wall time.
func timeIt(n int, fn func(i int) error) (time.Duration, error) {
	ds := make([]float64, n)
	for i := range ds {
		start := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		ds[i] = float64(time.Since(start))
	}
	return time.Duration(median(ds)), nil
}

// allocsPer runs fn n times and returns the mean heap objects and bytes
// allocated per call.
func allocsPer(n int, fn func(i int) error) (allocs, bytes float64, err error) {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	for i := range n {
		if err := fn(i); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n), nil
}

// microSources are the first distinct sources of the workload's read
// sequence.
func microSources(w workload, in *inputs, seed uint64, k int) []int {
	rs := newRequestStream(w, in, seed)
	seen := map[int]bool{}
	var out []int
	for len(out) < k {
		r := rs.Next()
		if !seen[r.src] {
			seen[r.src] = true
			out = append(out, r.src)
		}
	}
	return out
}

func sessionOptions() wasp.Options {
	return wasp.Options{Algorithm: wasp.AlgoWasp, Workers: runtime.GOMAXPROCS(0), Delta: 1}
}

// microCases runs every layer micro-case and adds its metrics to r.
func microCases(ctx context.Context, w workload, in *inputs, seed uint64, r *result) error {
	for _, c := range []func(context.Context, workload, *inputs, uint64, *result) error{
		dequeCase, coreCase, sessionCase, poolCase, cacheCase, registryCase, bundleCase,
	} {
		if err := c(ctx, w, in, seed, r); err != nil {
			return err
		}
	}
	return nil
}

// dequeCase times the Chase-Lev deque: owner push+pop pairs alone, then
// steals by a thief running beside an owner that keeps pushing and
// popping.
func dequeCase(_ context.Context, _ workload, _ *inputs, _ uint64, r *result) error {
	chunks := make([]*chunk.Chunk, 64)
	for i := range chunks {
		chunks[i] = new(chunk.Chunk)
	}
	d := deque.New(64)
	start := time.Now()
	for i := 0; i < microDequeOps/len(chunks); i++ {
		for _, c := range chunks {
			d.PushBottom(c)
		}
		for range chunks {
			if d.PopBottom() == nil {
				return errors.New("deque: owner pop of a pushed chunk returned nil")
			}
		}
	}
	r.add("deque.push_pop_ns", float64(time.Since(start))/microDequeOps, "ns", microDequeOps)

	var done atomic.Bool
	var steals, empty int64
	var stealTime time.Duration
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t0 := time.Now()
		for !done.Load() {
			if d.Steal() == nil {
				empty++
			}
			steals++
		}
		stealTime = time.Since(t0)
	}()
	for i := 0; i < microDequeOps/len(chunks)/4; i++ {
		for _, c := range chunks {
			d.PushBottom(c)
		}
		for d.PopBottom() != nil {
		}
	}
	done.Store(true)
	wg.Wait()
	r.add("deque.steal_ns", float64(stealTime)/float64(max(steals, 1)), "ns", int(steals))
	r.add("deque.steal_empty_frac", float64(empty)/float64(max(steals, 1)), "frac", int(steals))
	return nil
}

// coreCase runs core.Solver and serial Dijkstra on the workload's graph
// and sources, and checks that they agree.
func coreCase(_ context.Context, w workload, in *inputs, seed uint64, r *result) error {
	g := in.g
	srcs := microSources(w, in, seed, microSolves)
	s := core.NewSolver(g, core.Options{Workers: runtime.GOMAXPROCS(0)})
	s.Solve(wasp.Vertex(srcs[0]), nil) // first solve grows the chunk pools
	n := len(srcs)
	var relax, improve, stale, tries, hits int64
	got := make([][]uint32, n)
	solve, err := timeIt(n, func(i int) error {
		s.Metrics().Reset()
		res := s.Solve(wasp.Vertex(srcs[i]), nil)
		if !res.Complete {
			return fmt.Errorf("core: solve from %d incomplete", srcs[i])
		}
		got[i] = append([]uint32(nil), res.Dist...) // Dist is the solver's own array
		t := s.Metrics().Totals()
		relax, improve, stale = relax+t.Relaxations, improve+t.Improvements, stale+t.StaleSkips
		tries, hits = tries+t.StealAttempts, hits+t.StealHits
		return nil
	})
	if err != nil {
		return err
	}
	dists := make([][]uint32, n)
	dij, _ := timeIt(n, func(i int) error {
		dists[i] = dijkstra.Distances(g, wasp.Vertex(srcs[i]))
		return nil
	})
	for i := range srcs {
		if err := verify.Equal(got[i], dists[i]); err != nil {
			return fmt.Errorf("core: solve from %d disagrees with Dijkstra: %w", srcs[i], err)
		}
	}
	r.add("core.solve_ms", ms(solve), "ms", n)
	r.add("core.relax_per_edge", float64(relax)/float64(int64(n)*g.NumEdges()), "ratio", n)
	r.add("core.steal_hit_frac", float64(hits)/float64(max(tries, 1)), "frac", int(tries))
	r.add("core.stale_frac", float64(stale)/float64(max(improve, 1)), "frac", int(improve))
	r.add("core.dijkstra_ms", ms(dij), "ms", n)
	r.add("core.speedup", float64(dij)/float64(solve), "x", n)

	sc := verify.NewScratch(runtime.GOMAXPROCS(0))
	cert, err := timeIt(n, func(i int) error { return sc.Certificate(g, wasp.Vertex(srcs[i]), dists[i]) })
	if err != nil {
		return fmt.Errorf("verify: oracle distances fail the certificate: %w", err)
	}
	r.add("verify.certificate_ms", ms(cert), "ms", n)
	return nil
}

// sessionCase times Session.Run on the workload's graph, and the
// per-call versus reused-session comparison on kron 8192.
func sessionCase(ctx context.Context, w workload, in *inputs, seed uint64, r *result) error {
	srcs := microSources(w, in, seed, microSolves)
	sess, err := wasp.NewSession(in.g, sessionOptions())
	if err != nil {
		return err
	}
	run := func(i int) error {
		_, err := sess.Run(ctx, wasp.Vertex(srcs[i%len(srcs)]))
		return err
	}
	if err := run(0); err != nil {
		return err
	}
	t, err := timeIt(len(srcs), run)
	if err != nil {
		return err
	}
	allocs, bytes, err := allocsPer(len(srcs), run)
	if err != nil {
		return err
	}
	r.add("session.run_ms", ms(t), "ms", len(srcs))
	r.add("session.overhead_ms", ms(t)-metricValue(r, "core.solve_ms"), "ms", len(srcs))
	r.add("session.allocs", allocs, "count", len(srcs))
	r.add("session.bytes", bytes, "B", len(srcs))

	// The case BENCH_session.json pins: kron 8192, seed 42, Δ=4.
	kg, err := wasp.GenerateWorkload("kron", wasp.WorkloadConfig{N: 1 << 13, Seed: 42})
	if err != nil {
		return err
	}
	ksrc := wasp.SourceInLargestComponent(kg, 42)
	kopt := sessionOptions()
	kopt.Delta = 4
	ks, err := wasp.NewSession(kg, kopt)
	if err != nil {
		return err
	}
	reuse := func(int) error { _, err := ks.Run(ctx, ksrc); return err }
	perCall := func(int) error { _, err := wasp.Run(kg, ksrc, kopt); return err }
	for _, c := range []struct {
		name string
		fn   func(int) error
	}{{"reuse", reuse}, {"percall", perCall}} {
		if err := c.fn(0); err != nil {
			return err
		}
		t, err := timeIt(microKron, c.fn)
		if err != nil {
			return err
		}
		a, _, err := allocsPer(microKron, c.fn)
		if err != nil {
			return err
		}
		r.add("session.kron_"+c.name+"_us", us(t), "us", microKron)
		r.add("session.kron_"+c.name+"_allocs", a, "count", microKron)
	}
	return nil
}

// poolCase times pool admission on a tiny graph, where the solve costs
// next to nothing, and queue wait on the workload's graph with more
// callers than sessions.
func poolCase(ctx context.Context, w workload, in *inputs, seed uint64, r *result) error {
	tiny := wasp.FromEdges(4, false, []wasp.Edge{{From: 0, To: 1, W: 1}, {From: 1, To: 2, W: 1}, {From: 2, To: 3, W: 1}})
	conf := wasp.PoolOptions{Sessions: 2, QueueDepth: 8, QueueWait: 100 * time.Millisecond}
	tp, err := wasp.NewPool(tiny, sessionOptions(), conf)
	if err != nil {
		return err
	}
	defer tp.Close(ctx)
	ts, err := wasp.NewSession(tiny, sessionOptions())
	if err != nil {
		return err
	}
	viaPool, err := timeIt(microTiny, func(int) error { _, err := tp.Run(ctx, 0); return err })
	if err != nil {
		return err
	}
	direct, err := timeIt(microTiny, func(int) error { _, err := ts.Run(ctx, 0); return err })
	if err != nil {
		return err
	}
	r.add("pool.admit_us", us(viaPool-direct), "us", microTiny)

	// Three callers on two sessions: span minus the solve's own time is
	// what the call waited in the pool. The wait is unbounded here, so a
	// slow host lengthens it instead of shedding the call.
	srcs := microSources(w, in, seed, 3*microSolves/2)
	var mu sync.Mutex
	solved := map[wasp.Vertex]time.Duration{}
	conf.QueueWait = 0
	conf.OnSolve = func(o wasp.SolveObservation) {
		mu.Lock()
		solved[o.Source] = o.Elapsed
		mu.Unlock()
	}
	p, err := wasp.NewPool(in.g, sessionOptions(), conf)
	if err != nil {
		return err
	}
	defer p.Close(ctx)
	spans := make([]time.Duration, len(srcs))
	errs := make([]error, len(srcs))
	var wg sync.WaitGroup
	for c := range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(srcs); i += 3 {
				t0 := time.Now()
				_, errs[i] = p.Run(ctx, wasp.Vertex(srcs[i]))
				spans[i] = time.Since(t0)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("pool: %w", err)
	}
	waits := make([]float64, len(srcs))
	for i, src := range srcs {
		waits[i] = ms(spans[i] - solved[wasp.Vertex(src)])
	}
	r.add("pool.wait_ms", median(waits), "ms", len(waits))
	return nil
}

// cacheCase times a pool fronted by a cache: exact hits, cold misses,
// nearest-source warm misses (the one-entry-budget case of
// BENCH_cache.json; directed graphs cannot warm-start, so there it is
// a cold solve), and a follower coalescing onto a leader's solve.
func cacheCase(ctx context.Context, w workload, in *inputs, seed uint64, r *result) error {
	g := in.g
	srcs := microSources(w, in, seed, microSolves+1)
	newPool := func(c *wasp.Cache) (*wasp.Pool, error) {
		return wasp.NewPool(g, sessionOptions(), wasp.PoolOptions{Sessions: 2, QueueDepth: 8, Cache: c})
	}

	hc := wasp.NewCache(wasp.CacheOptions{MaxBytes: 64 << 20})
	hp, err := newPool(hc)
	if err != nil {
		return err
	}
	defer hp.Close(ctx)
	src := wasp.Vertex(srcs[0])
	hit := func(int) error { _, err := hp.Run(ctx, src); return err }
	if err := hit(0); err != nil {
		return err
	}
	t, err := timeIt(microHits, hit)
	if err != nil {
		return err
	}
	allocs, bytes, err := allocsPer(microHits, hit)
	if err != nil {
		return err
	}
	r.add("cache.hit_us", us(t), "us", microHits)
	r.add("cache.hit_bytes", bytes, "B", microHits)
	r.add("cache.hit_allocs", allocs, "count", microHits)

	// Cold: warm seeding off, every source new.
	cc := wasp.NewCache(wasp.CacheOptions{MaxBytes: 64 << 20, DisableWarm: true})
	cp, err := newPool(cc)
	if err != nil {
		return err
	}
	defer cp.Close(ctx)
	t, err = timeIt(microSolves, func(i int) error { _, err := cp.Run(ctx, wasp.Vertex(srcs[i+1])); return err })
	if err != nil {
		return err
	}
	r.add("cache.cold_ms", ms(t), "ms", microSolves)

	// Warm: a one-entry budget holds the last result, and the next query
	// alternates between two one-hop neighbours of the primed source.
	nbrs, _ := g.OutNeighbors(src)
	if len(nbrs) < 2 {
		nbrs = []wasp.Vertex{wasp.Vertex(srcs[1]), wasp.Vertex(srcs[2])}
	}
	wc := wasp.NewCache(wasp.CacheOptions{MaxBytes: int64(4*g.NumVertices()) + 256})
	wp, err := newPool(wc)
	if err != nil {
		return err
	}
	defer wp.Close(ctx)
	if _, err := wp.Run(ctx, src); err != nil {
		return err
	}
	t, err = timeIt(microSolves, func(i int) error { _, err := wp.Run(ctx, nbrs[i%2]); return err })
	if err != nil {
		return err
	}
	r.add("cache.warm_ms", ms(t), "ms", microSolves)

	// Coalesced: a follower asks for the source a leader is solving.
	fc := wasp.NewCache(wasp.CacheOptions{MaxBytes: 64 << 20})
	fp, err := newPool(fc)
	if err != nil {
		return err
	}
	defer fp.Close(ctx)
	var waits []float64
	for i := range microSolves {
		s := wasp.Vertex(srcs[i+1])
		lead := make(chan error, 1)
		go func() { _, err := fp.Run(ctx, s); lead <- err }()
		for fc.Stats().Misses < int64(i+1) {
			runtime.Gosched()
		}
		t0 := time.Now()
		_, ferr := fp.Run(ctx, s)
		wait := time.Since(t0)
		if err := errors.Join(<-lead, ferr); err != nil {
			return fmt.Errorf("cache coalesce: %w", err)
		}
		waits = append(waits, ms(wait))
	}
	r.add("cache.coalesce_wait_ms", median(waits), "ms", len(waits))
	return nil
}

// registryCase times the registry on the in-process stack: hit self
// time through Registry.Run, the relabel ApplyPermutation at n, and
// mutation with its repair reads on the workload's writable graph,
// plus ApplyMutations alone and the incremental update versus fresh
// solve of BENCH_incremental.json.
func registryCase(ctx context.Context, w workload, in *inputs, seed uint64, r *result) error {
	st, err := newStack(ctx, in.bundleDir, nil)
	if err != nil {
		return err
	}
	defer st.close(ctx)
	srcs := microSources(w, in, seed, microSolves)
	src := wasp.Vertex(srcs[0])
	run := func(int) error { _, err := st.reg.Run(ctx, readGraph, src); return err }
	if err := run(0); err != nil {
		return err
	}
	t, err := timeIt(microHits, run)
	if err != nil {
		return err
	}
	r.add("registry.run_us", us(t), "us", microHits)

	perm := in.perm
	if perm == nil {
		_, perm = wasp.RelabelByDegree(in.g)
	}
	dist := dijkstra.Distances(in.g, src)
	t, _ = timeIt(microHits/4, func(int) error { wasp.ApplyPermutation(dist, perm); return nil })
	r.add("registry.relabel_us", us(t), "us", microHits/4)

	// Mutations go to the graph that accepts them; the hot sources are
	// cached first so each batch harvests and repairs them.
	graph := readGraph
	if in.twinDir != "" {
		graph = writeTwin
		if _, _, err := st.reg.LoadFile(ctx, filepath.Join(in.twinDir, writeTwin+".wspb")); err != nil {
			return fmt.Errorf("load %s: %w", writeTwin, err)
		}
	}
	for _, s := range srcs {
		if _, err := st.reg.Run(ctx, graph, wasp.Vertex(s)); err != nil {
			return err
		}
	}
	ws := newWriteStream(in.g, seed^0x11)
	var mut, rep []float64
	warm := 0
	for range microMutates {
		batch, _ := ws.Next()
		t0 := time.Now()
		if _, _, err := st.reg.Mutate(ctx, graph, mutations(batch)); err != nil {
			return fmt.Errorf("registry mutate: %w", err)
		}
		mut = append(mut, ms(time.Since(t0)))
		if stat, ok := st.reg.Status(graph); ok {
			warm = stat.WarmSources
		}
		// Every cached source was harvested, so each first read repairs.
		for _, s := range srcs {
			t0 = time.Now()
			if _, err := st.reg.Run(ctx, graph, wasp.Vertex(s)); err != nil {
				return err
			}
			rep = append(rep, ms(time.Since(t0)))
		}
	}
	r.add("registry.mutate_ms", median(mut), "ms", len(mut))
	r.add("registry.repair_ms", median(rep), "ms", len(rep))
	r.add("registry.warm_sources", float64(warm), "count", 1)

	batch, _ := newWriteStream(in.g, seed^0x22).Next()
	muts := mutations(batch)
	t, err = timeIt(microSolves, func(int) error { _, _, err := wasp.ApplyMutations(in.g, muts); return err })
	if err != nil {
		return err
	}
	r.add("graph.apply_ms", ms(t), "ms", microSolves)

	_, delta, err := wasp.ApplyMutations(in.g, muts)
	if err != nil {
		return err
	}
	sess, err := wasp.NewSession(delta.Graph(), sessionOptions())
	if err != nil {
		return err
	}
	fresh, err := timeIt(microSolves, func(int) error { _, err := sess.Run(ctx, src); return err })
	if err != nil {
		return err
	}
	update, err := timeIt(microSolves, func(int) error {
		res, err := sess.RunIncremental(ctx, src, delta, dist)
		if err == nil && !res.Complete {
			err = errors.New("incremental solve incomplete")
		}
		return err
	})
	if err != nil {
		return err
	}
	r.add("incr.fresh_ms", ms(fresh), "ms", microSolves)
	r.add("incr.update_ms", ms(update), "ms", microSolves)
	return nil
}

// bundleCase times LoadBundle on the served read bundle.
func bundleCase(_ context.Context, _ workload, in *inputs, _ uint64, r *result) error {
	t, err := timeIt(3, func(int) error { _, err := wasp.LoadBundle(in.readPath); return err })
	if err != nil {
		return err
	}
	r.add("bundle.load_ms", ms(t), "ms", 3)
	return nil
}

func metricValue(r *result, name string) float64 {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}
