package wasp

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wasp/internal/fault"
)

// correctChainDist is the exact solution for chain(n, w) from source 0.
func correctChainDist(n int, w Weight) []uint32 {
	dist := make([]uint32, n)
	for i := range dist {
		dist[i] = uint32(i) * w
	}
	return dist
}

// TestAuditorSync: synchronous audits certify inline — a correct result
// passes, a corrupted one fails and fires the hook with the pool and
// source that served it.
func TestAuditorSync(t *testing.T) {
	p := &Pool{g: chain(16, 3)} // the auditor reads only the pool's graph
	var fail atomic.Pointer[AuditFailure]
	a := NewAuditor(AuditorOptions{
		SampleRate: 1,
		OnFailure:  func(f AuditFailure) { fail.Store(&f) },
	})
	defer a.Close()

	good := correctChainDist(16, 3)
	a.maybeAudit(p, 0, good, true)
	if st := a.Stats(); st.Sampled != 1 || st.Passed != 1 || st.Failed != 0 {
		t.Fatalf("stats after correct result = %+v", st)
	}

	bad := correctChainDist(16, 3)
	bad[7] ^= 1 << 6 // the DistFlip fault's bit
	a.maybeAudit(p, 0, bad, true)
	st := a.Stats()
	if st.Sampled != 2 || st.Passed != 1 || st.Failed != 1 {
		t.Fatalf("stats after corrupt result = %+v", st)
	}
	if st.LastError == "" {
		t.Fatal("LastError empty after a failed audit")
	}
	f := fail.Load()
	if f == nil || f.Pool != p || f.Source != 0 || !f.Complete || f.Err == nil {
		t.Fatalf("failure hook got %+v", f)
	}

	// A degraded result is held to the upper-bound certificate only:
	// unreached vertices at Infinity pass, a finite label on an
	// unreachable vertex cannot exist on a chain, so corrupt the source.
	partial := correctChainDist(16, 3)
	for i := 8; i < 16; i++ {
		partial[i] = Infinity
	}
	a.maybeAudit(p, 0, partial, false)
	if st := a.Stats(); st.Passed != 2 {
		t.Fatalf("degraded result failed its upper-bound audit: %+v", st)
	}
	partial[0] = 9
	a.maybeAudit(p, 0, partial, false)
	if st := a.Stats(); st.Failed != 2 {
		t.Fatalf("corrupt degraded result passed: %+v", st)
	}
}

// TestAuditorStride: SampleRate 0.25 elects exactly every 4th result.
func TestAuditorStride(t *testing.T) {
	p := &Pool{g: chain(4, 1)}
	a := NewAuditor(AuditorOptions{SampleRate: 0.25})
	defer a.Close()
	dist := correctChainDist(4, 1)
	for i := 0; i < 40; i++ {
		a.maybeAudit(p, 0, dist, true)
	}
	if st := a.Stats(); st.Sampled != 10 || st.Passed != 10 {
		t.Fatalf("stats = %+v, want 10 sampled of 40 at rate 0.25", st)
	}
}

// TestAuditorAsync: async audits detach a copy of the distances, drain
// in the background, and Close flushes the queue before returning.
func TestAuditorAsync(t *testing.T) {
	p := &Pool{g: chain(16, 3)}
	a := NewAuditor(AuditorOptions{SampleRate: 1, Async: true})

	bad := correctChainDist(16, 3)
	bad[3]++
	a.maybeAudit(p, 0, bad, true)
	bad[3]-- // caller mutates its result after submission; the audit copy is unaffected
	good := correctChainDist(16, 3)
	a.maybeAudit(p, 0, good, true)

	a.Close() // drains the queue
	st := a.Stats()
	if st.Sampled != 2 || st.Passed != 1 || st.Failed != 1 || st.Dropped != 0 {
		t.Fatalf("stats after drain = %+v", st)
	}

	// Submissions after Close are dropped, never deadlocked.
	a.maybeAudit(p, 0, good, true)
	if st := a.Stats(); st.Dropped != 1 {
		t.Fatalf("stats after post-close submission = %+v", st)
	}
}

// TestAuditorNilSafe: every method on a nil auditor is a no-op, so the
// pool's submission call sites need no guards.
func TestAuditorNilSafe(t *testing.T) {
	var a *Auditor
	a.maybeAudit(&Pool{g: chain(2, 1)}, 0, []uint32{0, 1}, true)
	if st := a.Stats(); st != (AuditorStats{}) {
		t.Fatalf("nil Stats() = %+v", st)
	}
	a.Close()
}

// TestPoolAuditsServedResults: a pool wired with an auditor submits the
// results it serves, and an injected distance flip is caught by the
// certificate even though the solver itself ran correctly.
func TestPoolAuditsServedResults(t *testing.T) {
	g := chain(64, 2)
	var failures atomic.Int64
	aud := NewAuditor(AuditorOptions{
		SampleRate: 1,
		OnFailure:  func(AuditFailure) { failures.Add(1) },
	})
	defer aud.Close()
	p, err := NewPool(g, Options{Workers: 1}, PoolOptions{
		Sessions: 1, Auditor: aud,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close(context.Background())

	if _, err := p.Run(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if st := aud.Stats(); st.Sampled != 1 || st.Passed != 1 {
		t.Fatalf("clean solve: stats = %+v", st)
	}

	fault.Activate(fault.NewPlan(fault.Config{Seed: 3, DistFlip: 1000}))
	defer fault.Deactivate()
	if _, err := p.Run(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if st := aud.Stats(); st.Failed != 1 {
		t.Fatalf("flipped solve: stats = %+v, want Failed 1", st)
	}
	if failures.Load() != 1 {
		t.Fatalf("failure hook fired %d times, want 1", failures.Load())
	}
}

// TestRegistryAuditQuarantine is the end-to-end detection path: an
// injected distance flip on a served result fails its sampled audit,
// the registry quarantines the active version — queries return
// ErrQuarantined, the cached results are dropped, the version is kept
// out of rollback history — and reloading the graph heals it.
func TestRegistryAuditQuarantine(t *testing.T) {
	cache := NewCache(CacheOptions{MaxBytes: 1 << 20})
	events := make(chan RegistryEvent, 16)
	r := NewRegistry(RegistryOptions{
		Pool:         PoolOptions{Sessions: 1, QueueDepth: 16, QueueWait: 5 * time.Second},
		Cache:        cache,
		Audit:        &AuditorOptions{SampleRate: 1}, // sync: deterministic for the test
		SmokeTimeout: 5 * time.Second,
		DrainTimeout: 10 * time.Second,
		OnEvent: func(ev RegistryEvent) {
			select {
			case events <- ev:
			default:
			}
		},
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = r.Close(ctx)
	}()
	ctx := context.Background()
	if err := r.Load(ctx, chainBundle("line", 1, 16, 3)); err != nil {
		t.Fatalf("Load: %v", err)
	}

	// Corrupt every served result from here on.
	fault.Activate(fault.NewPlan(fault.Config{Seed: 9, DistFlip: 1000}))
	res, err := r.Run(ctx, "line", 0)
	fault.Deactivate()
	if err != nil {
		t.Fatalf("Run: %v", err) // the flipped result is still served; the audit runs after
	}
	if res.Dist[1] == 3 {
		t.Fatal("fault injection did not corrupt the served result")
	}

	// The sync audit already failed and quarantined the version.
	st, ok := r.Status("line")
	if !ok || st.State != GraphQuarantined {
		t.Fatalf("Status = %+v, want state %q", st, GraphQuarantined)
	}
	if r.Quarantined() != 1 {
		t.Fatalf("Quarantined() = %d, want 1", r.Quarantined())
	}
	if as := r.Auditor().Stats(); as.Failed != 1 {
		t.Fatalf("auditor stats = %+v, want Failed 1", as)
	}
	if _, err := r.Run(ctx, "line", 0); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("Run on quarantined graph: %v, want ErrQuarantined", err)
	}
	waitEvent := func(kind RegistryEventKind) RegistryEvent {
		t.Helper()
		deadline := time.After(5 * time.Second)
		for {
			select {
			case ev := <-events:
				if ev.Kind == kind {
					return ev
				}
			case <-deadline:
				t.Fatalf("no %s event", kind)
			}
		}
	}
	waitEvent(EventQuarantined)

	// Reloading the same version is a heal, not a no-op: faults are off,
	// so the graph serves again and the (invalidated) cache cannot
	// replay the corrupt result.
	if err := r.Load(ctx, chainBundle("line", 1, 16, 3)); err != nil {
		t.Fatalf("healing Load: %v", err)
	}
	st, _ = r.Status("line")
	if st.State != GraphServing {
		t.Fatalf("state after heal = %q, want %q", st.State, GraphServing)
	}
	res, err = r.Run(ctx, "line", 0)
	if err != nil {
		t.Fatalf("Run after heal: %v", err)
	}
	if res.Dist[1] != 3 || res.Dist[15] != 45 {
		t.Fatalf("healed result dist[1]=%d dist[15]=%d, want 3 and 45 (corrupt cache entry replayed?)",
			res.Dist[1], res.Dist[15])
	}

	// The quarantined version must not be in rollback history.
	if v, err := r.Rollback(ctx, "line"); err == nil {
		t.Fatalf("Rollback succeeded onto v%d; the quarantined version must not enter history", v)
	}
}

// TestCacheQuarantineFlightIsolation: a solve still in flight on a
// quarantined pool must neither be shared with nor stored for the
// healed version, even though both serve the same content and so the
// same cache keys. The corrupt solve is held in OnSolve while the graph
// is healed; the healed query must lead its own solve, the held result
// must not enter the cache, and the held leader must leave the healed
// flight's singleflight slot alone.
func TestCacheQuarantineFlightIsolation(t *testing.T) {
	const n = 16
	cache := NewCache(CacheOptions{MaxBytes: 1 << 20})
	held := make(chan int64, 2)
	release := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	var solves atomic.Int64
	r := NewRegistry(RegistryOptions{
		Pool: PoolOptions{
			Sessions: 2, QueueDepth: 16, QueueWait: 5 * time.Second,
			OnSolve: func(SolveObservation) {
				if i := solves.Add(1) - 1; i < 2 {
					held <- i
					<-release[i]
				}
			},
		},
		Cache:        cache,
		Audit:        &AuditorOptions{SampleRate: 1}, // sync: the quarantine precedes OnSolve
		SmokeTimeout: 5 * time.Second,
		DrainTimeout: 10 * time.Second,
	})
	var released [2]bool
	unhold := func(i int) {
		if !released[i] {
			released[i] = true
			close(release[i])
		}
	}
	defer func() {
		unhold(0)
		unhold(1)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = r.Close(ctx)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	waitHeld := func(want int64, what string) {
		t.Helper()
		select {
		case got := <-held:
			if got != want {
				t.Fatalf("held solve %d, want %d", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
		}
	}
	if err := r.Load(ctx, chainBundle("line", 1, n, 3)); err != nil {
		t.Fatal(err)
	}

	// Solve 0: its result is flipped, fails the sync audit (quarantining
	// the version), then parks in OnSolve with its flight unpublished.
	fault.Activate(fault.NewPlan(fault.Config{Seed: 9, DistFlip: 1000}))
	var res0 *Result
	var err0 error
	done0 := make(chan struct{})
	go func() { defer close(done0); res0, err0 = r.Run(ctx, "line", 0) }()
	waitHeld(0, "the corrupt solve to park")
	fault.Deactivate()
	if st, _ := r.Status("line"); st.State != GraphQuarantined {
		t.Fatalf("state = %q, want %q", st.State, GraphQuarantined)
	}

	// Heal with the same bundle, then ask for the same source.
	if err := r.Load(ctx, chainBundle("line", 1, n, 3)); err != nil {
		t.Fatalf("healing Load: %v", err)
	}
	var res1 *Result
	var err1 error
	done1 := make(chan struct{})
	go func() { defer close(done1); res1, err1 = r.Run(ctx, "line", 0) }()
	waitHeld(1, "the healed query to lead its own solve (did it coalesce onto the quarantined flight?)")
	if st := cache.Stats(); st.Misses != 2 || st.Coalesced != 0 {
		t.Fatalf("stats = %+v, want 2 misses / 0 coalesced", st)
	}

	// Release the corrupt solve: its caller gets the flipped result, the
	// cache stores nothing.
	unhold(0)
	<-done0
	if err0 != nil {
		t.Fatalf("corrupt solve: %v", err0)
	}
	if res0.Dist[1] == 3 {
		t.Fatal("fault injection did not corrupt the held result")
	}
	if st := cache.Stats(); st.Entries != 0 {
		t.Fatalf("entries = %d after the quarantined solve finished, want 0 (its result was stored)", st.Entries)
	}

	// The healed flight still owns its slot: an identical query joins it.
	var res2 *Result
	var err2 error
	done2 := make(chan struct{})
	go func() { defer close(done2); res2, err2 = r.Run(ctx, "line", 0) }()
	waitFor(t, "a follower to join the healed flight", func() bool { return cache.Stats().Coalesced == 1 })
	unhold(1)
	<-done1
	<-done2
	for i, rr := range []struct {
		res *Result
		err error
	}{{res1, err1}, {res2, err2}} {
		if rr.err != nil {
			t.Fatalf("healed query %d: %v", i, rr.err)
		}
		if rr.res.Dist[1] != 3 || rr.res.Dist[n-1] != 3*(n-1) {
			t.Fatalf("healed query %d: dist[1]=%d dist[%d]=%d, want 3 and %d", i, rr.res.Dist[1], n-1, rr.res.Dist[n-1], 3*(n-1))
		}
	}
	if st := cache.Stats(); st.Entries != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want the healed result as the one entry", st)
	}
	res, err := r.Run(ctx, "line", 0)
	if err != nil || res.Dist[1] != 3 {
		t.Fatalf("cached answer after heal: %v, %v", err, res)
	}
	if st := cache.Stats(); st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 hit", st)
	}
}

// TestRegistryAuditRetiredPoolQuarantine: an async audit that fails
// after its pool was retired by an identical republish must still drop
// the corrupt entry — the successor shares the content's cache keys,
// and cache hits are never re-audited. The drainer is parked in the
// failure hook of an unrelated graph while the corrupt result is
// stored and the republish lands, so the audit settles only once the
// failing pool is no longer active.
func TestRegistryAuditRetiredPoolQuarantine(t *testing.T) {
	const n = 16
	cache := NewCache(CacheOptions{MaxBytes: 1 << 20})
	parked := make(chan struct{})
	release := make(chan struct{})
	var failures atomic.Int64
	r := NewRegistry(RegistryOptions{
		Pool:  PoolOptions{Sessions: 1, QueueDepth: 16, QueueWait: 5 * time.Second},
		Cache: cache,
		Audit: &AuditorOptions{SampleRate: 1, Async: true, OnFailure: func(AuditFailure) {
			if failures.Add(1) == 1 {
				close(parked)
				<-release
			}
		}},
		SmokeTimeout: 5 * time.Second,
		DrainTimeout: 10 * time.Second,
	})
	released := false
	unpark := func() {
		if !released {
			released = true
			close(release)
		}
	}
	defer func() {
		unpark()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = r.Close(ctx)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.Load(ctx, chainBundle("other", 1, 8, 5)); err != nil {
		t.Fatal(err)
	}
	if err := r.Load(ctx, chainBundle("line", 1, n, 3)); err != nil {
		t.Fatal(err)
	}

	fault.Activate(fault.NewPlan(fault.Config{Seed: 9, DistFlip: 1000}))
	if _, err := r.Run(ctx, "other", 0); err != nil {
		fault.Deactivate()
		t.Fatalf("Run other: %v", err)
	}
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		fault.Deactivate()
		t.Fatal("the first audit failure never reached the hook")
	}
	res, err := r.Run(ctx, "line", 0)
	fault.Deactivate()
	if err != nil {
		t.Fatalf("Run line: %v", err)
	}
	if res.Dist[1] == 3 {
		t.Fatal("fault injection did not corrupt the served result")
	}
	if got := len(r.CachedResults("line")); got != 1 {
		t.Fatalf("CachedResults = %d before the audit settles, want the corrupt entry stored", got)
	}

	// Republish identical content: the swap keeps v1's entries.
	if err := r.Load(ctx, chainBundle("line", 2, n, 3)); err != nil {
		t.Fatalf("republish: %v", err)
	}
	unpark()
	waitFor(t, "the retired pool's audit to settle", func() bool { return r.Auditor().Stats().Failed == 2 })
	waitFor(t, "the failure hook to return", func() bool { return failures.Load() == 2 })

	if got := len(r.CachedResults("line")); got != 0 {
		t.Fatalf("CachedResults = %d after the retired pool failed its audit, want 0", got)
	}
	if st, _ := r.Status("line"); st.State != GraphServing || st.Version != 2 {
		t.Fatalf("Status = %+v, want v2 serving (the failure was on a retired pool)", st)
	}
	if msg := r.Auditor().Stats().LastError; !strings.HasPrefix(msg, "line@1 source 0:") {
		t.Fatalf("LastError = %q, want it to name line@1", msg)
	}
	before := cache.Stats()
	res, err = r.Run(ctx, "line", 0)
	if err != nil {
		t.Fatalf("Run on v2: %v", err)
	}
	if res.Dist[1] != 3 || res.Dist[n-1] != 3*(n-1) {
		t.Fatalf("v2 result dist[1]=%d dist[%d]=%d, want 3 and %d (corrupt entry replayed?)", res.Dist[1], n-1, res.Dist[n-1], 3*(n-1))
	}
	if st := cache.Stats(); st.Misses != before.Misses+1 || st.Hits != before.Hits {
		t.Fatalf("stats %+v -> %+v, want one miss and no hit", before, st)
	}
}

// TestRegistryAuditCleanRunNoFailures: with no faults injected, a fully
// sampled workload produces zero audit failures — the certificate
// never cries wolf on honest results, including degraded ones.
func TestRegistryAuditCleanRunNoFailures(t *testing.T) {
	r := NewRegistry(RegistryOptions{
		Pool:         PoolOptions{Sessions: 2, QueueDepth: 16, QueueWait: 5 * time.Second},
		Audit:        &AuditorOptions{SampleRate: 1},
		SmokeTimeout: 5 * time.Second,
		DrainTimeout: 10 * time.Second,
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = r.Close(ctx)
	}()
	ctx := context.Background()
	if err := r.Load(ctx, chainBundle("line", 1, 64, 2)); err != nil {
		t.Fatal(err)
	}
	for src := Vertex(0); src < 8; src++ {
		if _, err := r.Run(ctx, "line", src); err != nil {
			t.Fatalf("Run(%d): %v", src, err)
		}
	}
	st := r.Auditor().Stats()
	if st.Failed != 0 {
		t.Fatalf("clean workload produced audit failures: %+v (last: %s)", st, st.LastError)
	}
	if st.Passed == 0 {
		t.Fatalf("no audits ran: %+v", st)
	}
}

// BenchmarkAuditOverhead measures the serving-path cost of auditing at
// the daemon's default 1% sampling against the same pool with auditing
// off. The unsampled 99% pay one atomic increment.
func BenchmarkAuditOverhead(b *testing.B) {
	g, err := GenerateWorkload("kron", WorkloadConfig{N: 4000, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	src := SourceInLargestComponent(g, 1)
	for _, bc := range []struct {
		name string
		rate float64
	}{
		{"off", 0},
		{"sampled-1pct", 0.01},
	} {
		b.Run(bc.name, func(b *testing.B) {
			popt := PoolOptions{Sessions: 1}
			if bc.rate > 0 {
				aud := NewAuditor(AuditorOptions{SampleRate: bc.rate, Async: true})
				defer aud.Close()
				popt.Auditor = aud
			}
			p, err := NewPool(g, Options{}, popt)
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close(context.Background())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Run(context.Background(), src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
