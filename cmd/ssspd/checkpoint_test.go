package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wasp"
	"wasp/internal/fault"
)

func testGraph() *wasp.Graph {
	return wasp.FromEdges(4, true, []wasp.Edge{
		{From: 0, To: 1, W: 1}, {From: 1, To: 2, W: 2},
	})
}

// testCheckpoint is the exact solution from source 0 on testGraph, in
// the form a drain snapshot stores it.
func testCheckpoint(g *wasp.Graph) *wasp.Checkpoint {
	return &wasp.Checkpoint{
		Source:        0,
		GraphVertices: g.NumVertices(),
		GraphEdges:    g.NumEdges(),
		Directed:      g.Directed(),
		WeightFP:      g.WeightFingerprint(),
		Elapsed:       5 * time.Millisecond,
		Dist:          []uint32{0, 1, 3, wasp.Infinity},
	}
}

// TestParseCkptName: the snapshot layout parses, garbage does not.
func TestParseCkptName(t *testing.T) {
	for _, tc := range []struct {
		base  string
		graph string
		ok    bool
	}{
		{"ckpt-road-usa-17.wsck", "road-usa", true},
		{"ckpt-g-0.wsck", "g", true},
		{"ckpt-42.wsck", "", false}, // no graph name
		{"ckpt-road-usa-.wsck", "", false},
		{"ckpt-.wsck", "", false},
		{"other-1.wsck", "", false},
		{"ckpt-g-1.txt", "", false},
	} {
		graph, ok := parseCkptName(tc.base)
		if graph != tc.graph || ok != tc.ok {
			t.Errorf("parseCkptName(%q) = (%q, %v), want (%q, %v)",
				tc.base, graph, ok, tc.graph, tc.ok)
		}
	}
}

// TestRecoverCheckpoints: a restarted server resumes a valid snapshot
// file into the cache and removes every file it attempted — corrupt
// bytes, an unrecognized name, an unregistered graph and a stale
// fingerprint are dropped, counted where they are skips, and never
// fail the daemon. The recovered source is then served as a cache hit.
func TestRecoverCheckpoints(t *testing.T) {
	g := testGraph()
	dir := t.TempDir()
	cache := wasp.NewCache(wasp.CacheOptions{})
	reg := newRegistry(t, "test", g, wasp.RegistryOptions{
		Options: wasp.Options{Workers: 2},
		Cache:   cache,
		Pool:    wasp.PoolOptions{Sessions: 1},
	})
	s := &server{reg: reg, cache: cache, ckptDir: dir}

	save := func(name string, cp *wasp.Checkpoint) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := wasp.SaveCheckpoint(path, cp); err != nil {
			t.Fatal(err)
		}
		return path
	}
	valid := save("ckpt-test-0.wsck", testCheckpoint(g))
	ghost := save("ckpt-ghost-0.wsck", testCheckpoint(g))
	unnamed := save("ckpt-0.wsck", testCheckpoint(g))
	stale := testCheckpoint(g)
	stale.Source = 1
	stale.WeightFP ^= 1 // the graph was redeployed with other weights
	stale.Dist = []uint32{wasp.Infinity, 0, 2, wasp.Infinity}
	mismatched := save("ckpt-test-1.wsck", stale)
	corrupt := filepath.Join(dir, "ckpt-test-2.wsck")
	if err := writeGarbage(corrupt); err != nil {
		t.Fatal(err)
	}

	s.recoverCheckpoints(context.Background())

	if n := s.recovered.Load(); n != 1 {
		t.Fatalf("recovered = %d, want 1", n)
	}
	if n := s.recoverySkipped.Load(); n != 2 {
		t.Fatalf("skipped = %d, want 2 (ghost graph + stale fingerprint)", n)
	}
	for _, f := range []string{valid, ghost, unnamed, mismatched, corrupt} {
		if _, err := os.Stat(f); !os.IsNotExist(err) {
			t.Errorf("%s not removed after recovery", f)
		}
	}

	before := cache.Stats()
	res, err := reg.Run(context.Background(), "test", 0)
	if err != nil {
		t.Fatal(err)
	}
	if after := cache.Stats(); after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Fatalf("recovered source not a cache hit: %+v -> %+v", before, after)
	}
	if res.Dist[2] != 3 {
		t.Fatalf("recovered dist[2] = %d, want 3", res.Dist[2])
	}

	ts := newHTTPServer(t, s)
	var st statsResponse
	getJSON(t, ts.URL+"/stats", http.StatusOK, &st)
	if st.Recovered != 1 || st.RecoverySkipped != 2 {
		t.Fatalf("stats after recovery = %+v", st)
	}
}

// restartSources is how many distinct sources each restart test caches
// before draining.
const restartSources = 12

// startSnapshotDaemon builds one daemon lifetime the way main does with
// -checkpoint-dir dir: a cache-backed registry serving b. The registry
// is ready (serving b) when it returns.
func startSnapshotDaemon(t *testing.T, dir string, b *wasp.Bundle) *server {
	t.Helper()
	cache := wasp.NewCache(wasp.CacheOptions{MaxBytes: 64 << 20})
	reg := wasp.NewRegistry(wasp.RegistryOptions{
		Options: wasp.Options{Workers: 2},
		Cache:   cache,
		Pool:    wasp.PoolOptions{Sessions: 2, QueueDepth: 64, QueueWait: 10 * time.Second},
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = reg.Close(ctx)
	})
	if err := reg.Load(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	return &server{reg: reg, cache: cache, ckptDir: dir}
}

// cacheSources answers each source once through /sssp, so each lands
// in the result cache.
func cacheSources(t *testing.T, s *server, graph string, srcs []wasp.Vertex) {
	t.Helper()
	ts := newHTTPServer(t, s).URL
	for _, src := range srcs {
		var q queryResponse
		getJSON(t, fmt.Sprintf("%s/sssp?graph=%s&source=%d", ts, graph, src), http.StatusOK, &q)
		if !q.Complete {
			t.Fatalf("source %d: incomplete answer before drain", src)
		}
	}
}

// drainDaemon runs the SIGTERM drain (snapshot included) and returns
// the snapshot files it left.
func drainDaemon(t *testing.T, s *server) []string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	files, err := filepath.Glob(filepath.Join(s.ckptDir, "ckpt-*.wsck"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// oracles solves every source with sequential Dijkstra on g (original
// vertex ids).
func oracles(t *testing.T, g *wasp.Graph, srcs []wasp.Vertex) [][]uint32 {
	t.Helper()
	out := make([][]uint32, len(srcs))
	for i, src := range srcs {
		res, err := wasp.Run(g, src, wasp.Options{Algorithm: wasp.AlgoDijkstra})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = res.Dist
	}
	return out
}

// checkServed asserts that every source's answer from s is
// bit-identical to its oracle, and returns the cache counters before
// and after the queries.
func checkServed(t *testing.T, s *server, graph string, srcs []wasp.Vertex, want [][]uint32) (before, after wasp.CacheStats) {
	t.Helper()
	before = s.cache.Stats()
	for i, src := range srcs {
		res, err := s.reg.Run(context.Background(), graph, src)
		if err != nil {
			t.Fatalf("source %d: %v", src, err)
		}
		if !res.Complete {
			t.Fatalf("source %d: incomplete answer", src)
		}
		for v := range want[i] {
			if res.Dist[v] != want[i][v] {
				t.Fatalf("source %d: dist[%d] = %d, Dijkstra %d", src, v, res.Dist[v], want[i][v])
			}
		}
	}
	return before, s.cache.Stats()
}

func roadBundle(t *testing.T) *wasp.Bundle {
	t.Helper()
	g, err := wasp.GenerateWorkload("road-usa", wasp.WorkloadConfig{N: 1 << 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return &wasp.Bundle{Manifest: wasp.BundleManifest{Name: "road", Version: 1}, Graph: g}
}

// twitterBundle is a directed graph served through a degree
// relabeling; it also returns the graph in original ids for the oracle.
func twitterBundle(t *testing.T) (*wasp.Bundle, *wasp.Graph) {
	t.Helper()
	g, err := wasp.GenerateWorkload("twitter", wasp.WorkloadConfig{N: 1 << 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b := &wasp.Bundle{Manifest: wasp.BundleManifest{Name: "twitter", Version: 1}}
	b.Graph, b.Relabel = wasp.RelabelByDegree(g)
	return b, g
}

// TestRestartSnapshot is the drain-then-restart round trip: a daemon
// caches restartSources sources, drains (writing the cache snapshot),
// and a new daemon on the same directory loads the snapshot back. Every
// one of those sources must then be answered as an exact cache hit —
// hits +N, misses +0 — bit-identical to Dijkstra, on an undirected
// road graph and on a directed graph served relabeled.
func TestRestartSnapshot(t *testing.T) {
	road := roadBundle(t)
	twitter, twitterOrig := twitterBundle(t)
	for _, tc := range []struct {
		name string
		b    *wasp.Bundle
		orig *wasp.Graph
	}{
		{"road-undirected", road, road.Graph},
		{"twitter-relabeled-directed", twitter, twitterOrig},
	} {
		t.Run(tc.name, func(t *testing.T) {
			graph := tc.b.Manifest.Name
			srcs := wasp.SourcesInLargestComponent(tc.orig, 11, restartSources)
			want := oracles(t, tc.orig, srcs)
			dir := t.TempDir()

			first := startSnapshotDaemon(t, dir, tc.b)
			cacheSources(t, first, graph, srcs)
			if files := drainDaemon(t, first); len(files) != len(srcs) {
				t.Fatalf("drain wrote %d snapshot files, want %d", len(files), len(srcs))
			}

			second := startSnapshotDaemon(t, dir, tc.b)
			ready := time.Now()
			second.recoverCheckpoints(context.Background())
			before, after := checkServed(t, second, graph, srcs, want)
			lastHit := time.Since(ready)

			if n := second.recovered.Load(); n != int64(len(srcs)) {
				t.Fatalf("recovered %d snapshot files, want %d", n, len(srcs))
			}
			if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != int64(len(srcs)) || misses != 0 {
				t.Fatalf("after restart: %d hits, %d misses, want %d hits, 0 misses", hits, misses, len(srcs))
			}
			if files, _ := filepath.Glob(filepath.Join(dir, "*.wsck")); len(files) != 0 {
				t.Fatalf("recovery left %d files behind", len(files))
			}
			t.Logf("%s: %d sources recovered; ready to last hit %v", tc.name, len(srcs), lastHit)
		})
	}
}

// TestRestartSnapshotRedeploy: the graph comes back with one edge
// re-weighted (same shape, new weight fingerprint). Every snapshot file
// is skipped, counted and removed, and the answers are exact for the
// new weights — solved afresh, never seeded from the old distances.
func TestRestartSnapshotRedeploy(t *testing.T) {
	b := roadBundle(t)
	srcs := wasp.SourcesInLargestComponent(b.Graph, 11, restartSources)
	dir := t.TempDir()

	first := startSnapshotDaemon(t, dir, b)
	cacheSources(t, first, "road", srcs)
	if files := drainDaemon(t, first); len(files) != len(srcs) {
		t.Fatalf("drain wrote %d snapshot files, want %d", len(files), len(srcs))
	}

	to, w := b.Graph.OutNeighbors(srcs[0])
	ng, _, err := wasp.ApplyMutations(b.Graph, []wasp.Mutation{
		{Kind: wasp.MutSetWeight, From: srcs[0], To: to[0], W: w[0] + 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	redeployed := &wasp.Bundle{Manifest: wasp.BundleManifest{Name: "road", Version: 2}, Graph: ng}
	want := oracles(t, ng, srcs)

	second := startSnapshotDaemon(t, dir, redeployed)
	second.recoverCheckpoints(context.Background())
	if got := second.recoverySkipped.Load(); got != int64(len(srcs)) {
		t.Fatalf("recovery_skipped = %d, want %d", got, len(srcs))
	}
	if got := second.recovered.Load(); got != 0 {
		t.Fatalf("recovered = %d stale snapshot files, want 0", got)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*.wsck")); len(files) != 0 {
		t.Fatalf("skipped files not removed: %v", files)
	}
	if _, after := checkServed(t, second, "road", srcs, want); after.Hits != 0 {
		t.Fatalf("redeployed graph served %d cache hits from a stale snapshot", after.Hits)
	}
}

// TestRestartSnapshotCorruptFile: a snapshot file of garbage beside
// good ones is removed at start and never fatal; the good ones still
// load.
func TestRestartSnapshotCorruptFile(t *testing.T) {
	b := roadBundle(t)
	srcs := wasp.SourcesInLargestComponent(b.Graph, 11, restartSources)
	want := oracles(t, b.Graph, srcs)
	dir := t.TempDir()

	first := startSnapshotDaemon(t, dir, b)
	cacheSources(t, first, "road", srcs)
	drainDaemon(t, first)
	corrupt := filepath.Join(dir, "ckpt-road-99999.wsck")
	if err := writeGarbage(corrupt); err != nil {
		t.Fatal(err)
	}

	second := startSnapshotDaemon(t, dir, b)
	second.recoverCheckpoints(context.Background())
	if _, err := os.Stat(corrupt); !os.IsNotExist(err) {
		t.Fatalf("corrupt snapshot file not removed: %v", err)
	}
	if got := second.recovered.Load(); got != int64(len(srcs)) {
		t.Fatalf("recovered = %d, want %d", got, len(srcs))
	}
	if before, after := checkServed(t, second, "road", srcs, want); after.Misses != before.Misses {
		t.Fatalf("recovered sources missed the cache: %+v -> %+v", before, after)
	}
}

// TestRestartSnapshotDiskFaults: transient write errors and ENOSPC
// injected during the drain leave a partial snapshot — the drain stops
// at the first full disk, logs it once and still exits cleanly — and
// the restarted daemon loads what was written and serves every source
// exactly.
func TestRestartSnapshotDiskFaults(t *testing.T) {
	b := roadBundle(t)
	srcs := wasp.SourcesInLargestComponent(b.Graph, 11, restartSources)
	want := oracles(t, b.Graph, srcs)
	dir := t.TempDir()

	first := startSnapshotDaemon(t, dir, b)
	cacheSources(t, first, "road", srcs)
	var logged bytes.Buffer
	log.SetOutput(&logged)
	fault.Activate(fault.NewPlan(fault.Config{Seed: 1, DiskWriteErr: 300, DiskWriteENOSPC: 300}))
	files := drainDaemon(t, first)
	fault.Deactivate()
	log.SetOutput(os.Stderr)
	if len(files) == 0 || len(files) >= len(srcs) {
		t.Fatalf("drain under disk faults wrote %d of %d files, want a partial snapshot", len(files), len(srcs))
	}
	if n := strings.Count(logged.String(), "disk full"); n != 1 {
		t.Fatalf("drain logged %d disk-full lines, want 1 (stop at the first ENOSPC):\n%s", n, logged.String())
	}

	second := startSnapshotDaemon(t, dir, b)
	second.recoverCheckpoints(context.Background())
	if got := second.recovered.Load(); got != int64(len(files)) {
		t.Fatalf("recovered = %d, want the %d files written", got, len(files))
	}
	if before, after := checkServed(t, second, "road", srcs, want); after.Hits-before.Hits != int64(len(files)) {
		t.Fatalf("hits %d after restart, want one per recovered file (%d)", after.Hits-before.Hits, len(files))
	}
}

// TestOverloadRetryAfter: a 429 carries the configured Retry-After
// hint. The only session is parked on a fault-injection block, so the
// second query's rejection is deterministic, not a race.
func TestOverloadRetryAfter(t *testing.T) {
	g := testGraph()
	reg := newRegistry(t, "test", g, wasp.RegistryOptions{
		Options: wasp.Options{Workers: 2},
		Pool:    wasp.PoolOptions{Sessions: 1, QueueDepth: 0},
	})
	s := &server{reg: reg, retry: "7"}
	ts := newHTTPServer(t, s)

	plan := fault.NewPlan(fault.Config{Seed: 1, BlockOnHit: 1, BlockPoint: fault.SolveStart})
	fault.Activate(plan)
	defer fault.Deactivate()
	defer plan.Unblock()

	first := make(chan error, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/sssp?source=0")
		if err == nil {
			resp.Body.Close()
		}
		first <- err
	}()
	// Wait until the solve is actually parked inside the session.
	deadline := time.Now().Add(5 * time.Second)
	for plan.BlockedHits() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if plan.BlockedHits() == 0 {
		t.Fatal("first query never reached the solver")
	}

	resp, err := http.Get(ts.URL + "/sssp?source=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Fatalf("Retry-After = %q, want \"7\"", ra)
	}

	plan.Unblock()
	if err := <-first; err != nil {
		t.Fatalf("blocked query failed after unblock: %v", err)
	}
}
