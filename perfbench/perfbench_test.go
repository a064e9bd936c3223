package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wasp"
	"wasp/internal/baseline/dijkstra"
)

// benchmarkSpec is the part of BENCHMARK.json the harness must match.
type benchmarkSpec struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmoke runs every workload end to end at toy scale, untraced and
// traced, against a freshly built ssspd, and checks that each run is
// correct and reports exactly the metrics, with the units, that
// BENCHMARK.json names. It also runs road-mutate, which the harness
// keeps but BENCHMARK.json leaves out.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds ssspd and runs six toy benchmarks")
	}
	spec := loadSpec(t)
	dir := t.TempDir()
	bin := filepath.Join(dir, "ssspd")
	if out, err := exec.Command("go", "build", "-o", bin, "wasp/cmd/ssspd").CombinedOutput(); err != nil {
		t.Fatalf("build ssspd: %v\n%s", err, out)
	}
	for _, sw := range spec.Workloads {
		if _, err := lookupWorkload(sw.Name, true); err != nil {
			t.Fatalf("BENCHMARK.json workload: %v", err)
		}
	}
	want := [2]map[string]string{{}, {}}
	for _, m := range spec.EndToEnd {
		want[0][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		want[1][m.Name] = m.Unit
	}
	for _, w := range workloads {
		for trace := range 2 {
			t.Run(fmt.Sprintf("%s/trace=%d", w.name, trace), func(t *testing.T) {
				var out bytes.Buffer
				cfg := config{workload: w.name, seed: 7, seconds: 2, traced: trace == 1, toy: true,
					ssspd: bin, workdir: t.TempDir(), repo: ".."}
				if code := run(context.Background(), cfg, &out); code != 0 {
					t.Fatalf("exit %d\n%s", code, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Failed    int  `json:"failed"`
					Metrics   map[string]struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result object: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				var got []string
				for name, m := range res.Metrics {
					got = append(got, name)
					if m.Value == nil || m.Unit != want[trace][name] {
						t.Errorf("metric %s: value %v unit %q, BENCHMARK.json unit %q", name, m.Value, m.Unit, want[trace][name])
					}
				}
				var names []string
				for name := range want[trace] {
					names = append(names, name)
				}
				sort.Strings(got)
				sort.Strings(names)
				if strings.Join(got, " ") != strings.Join(names, " ") {
					t.Errorf("metrics\n got %v\nwant %v", got, names)
				}
			})
		}
	}
}

// fakeDaemon serves /sssp from Dijkstra on g and adds one to the
// distance of the wrongAt-th answer (counting from 1; 0 never lies).
// Its /metrics counts every read as perRead cache misses and solves;
// any perRead but 1 is a counter that drifts from what was served.
func fakeDaemon(t *testing.T, g *wasp.Graph, wrongAt, perRead int) *httptest.Server {
	t.Helper()
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/metrics" {
			n := served.Load() * int64(perRead)
			fmt.Fprintf(w, "ssspd_cache_misses_total %d\nssspd_solve_duration_seconds_count %d\n", n, n)
			return
		}
		src, _ := strconv.Atoi(r.URL.Query().Get("source"))
		tgt, _ := strconv.Atoi(r.URL.Query().Get("target"))
		dist := dijkstra.Distances(g, wasp.Vertex(src))
		reached := 0
		for _, d := range dist {
			if d != wasp.Infinity {
				reached++
			}
		}
		d := dist[tgt]
		if served.Add(1) == int64(wrongAt) {
			d++
		}
		fmt.Fprintf(w, `{"complete":true,"elapsed_ms":0.1,"reached":%d,"distance":%d}`, reached, d)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestWrongDistanceCaught shows the oracle check catching a server that
// returns one wrong distance among many right ones, and the result line
// then reporting correct:false.
func TestWrongDistanceCaught(t *testing.T) {
	g, err := wasp.GenerateWorkload("road-usa", wasp.WorkloadConfig{N: 1 << 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	w, _ := lookupWorkload("road-hot", true)
	w.n = g.NumVertices()
	in := &inputs{g: g, hot: []int{1, 2, 3}}
	in.reqs = newRequestStream(w, in, 3)
	for _, wrongAt := range []int{0, 17} {
		srv := fakeDaemon(t, g, wrongAt, 1)
		c := newClient(srv.URL, 1)
		ops := runList(context.Background(), c, append(in.reqs.warmup(), nextN(in.reqs, 40)...), 1)
		c.close()
		or := newOracle(g)
		or.solve(in.hot, 2)
		wrong, err := or.check(ops, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := min(wrongAt, 1); len(wrong) != want {
			t.Fatalf("wrong answer at %d: caught %d (%v), want %d", wrongAt, len(wrong), wrong, want)
		}
		r := &result{Wrong: wrong, Attempted: len(ops)}
		var out bytes.Buffer
		if err := r.print(&out); err != nil {
			t.Fatal(err)
		}
		if lie := wrongAt > 0; strings.Contains(out.String(), `"correct":true`) == lie {
			t.Fatalf("lying server %v, result line:\n%s", lie, out.String())
		}
	}
}

// TestCounterMismatchCaught shows the /metrics cross-check failing a
// run whose daemon counts two cache lookups for every read it answers:
// the result line reports correct:false and the run exits 4.
func TestCounterMismatchCaught(t *testing.T) {
	g, err := wasp.GenerateWorkload("road-usa", wasp.WorkloadConfig{N: 1 << 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	w, _ := lookupWorkload("road-hot", true)
	in := &inputs{g: g, hot: []int{1, 2, 3}}
	in.reqs = newRequestStream(w, in, 3)
	for _, drift := range []int{0, 1} {
		srv := fakeDaemon(t, g, 0, 1+drift)
		c := newClient(srv.URL, 1)
		p, err := phase(context.Background(), c, "closed", func() ([]op, []write, []time.Duration) {
			return runList(context.Background(), c, nextN(in.reqs, 20), 1), nil, nil
		})
		c.close()
		if err != nil {
			t.Fatal(err)
		}
		lines, failed := p.crossCheck()
		if len(failed) != drift {
			t.Fatalf("drift %d: %d checks failed, want %d\n%s", drift, len(failed), drift, strings.Join(lines, "\n"))
		}
		r := &result{Mismatch: failed, Attempted: len(p.ops)}
		var out bytes.Buffer
		if err := r.print(&out); err != nil {
			t.Fatal(err)
		}
		if ok := drift == 0; strings.Contains(out.String(), `"correct":true`) != ok || (r.status() == 0) != ok {
			t.Fatalf("drift %d: status %d, result line:\n%s", drift, r.status(), out.String())
		}
	}
}

func nextN(rs *requestStream, n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = rs.Next()
	}
	return out
}

// TestMutationCandidates checks the version logic on a path 0-1-2: a
// read that overlaps the write raising edge 1-2 may return either
// distance, a read entirely after it must return the raised one.
func TestMutationCandidates(t *testing.T) {
	g := wasp.FromEdges(3, false, []wasp.Edge{{From: 0, To: 1, W: 1}, {From: 1, To: 2, W: 1}})
	or := newOracle(g)
	or.solve([]int{0}, 1)
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	raise := []edit{{1, 2, 5}}
	writes := []write{{batch: raise, raised: raise, sent: at(10), done: at(20), status: 200}}
	read := func(from, to int, dist uint32) op {
		d := dist
		return op{req: request{readGraph, 0, 2}, sent: at(from), done: at(to), status: 200,
			ans: answer{Complete: true, Reached: 3, Distance: &d}}
	}
	ops := []op{
		read(0, 5, 2),   // before: old distance
		read(5, 15, 2),  // overlapping: old distance accepted
		read(5, 15, 6),  // overlapping: new distance accepted
		read(25, 30, 6), // after: new distance
		read(25, 30, 2), // after: stale, wrong
		read(0, 5, 6),   // before: wrong
	}
	wrong, err := or.check(ops, writes)
	if err != nil {
		t.Fatal(err)
	}
	if len(wrong) != 2 {
		t.Fatalf("caught %d wrong answers %v, want 2", len(wrong), wrong)
	}

	// A second daemon's timeline reuses the oracle; its first write
	// raises another edge, and must not be judged by the first's graph.
	raise2 := []edit{{0, 1, 3}}
	writes2 := []write{{batch: raise2, raised: raise2, sent: at(10), done: at(20), status: 200}}
	wrong, err = or.check([]op{read(25, 30, 4), read(25, 30, 6)}, writes2)
	if err != nil {
		t.Fatal(err)
	}
	if len(wrong) != 1 || !strings.Contains(wrong[0], "distance 6") {
		t.Fatalf("second timeline: caught %v, want only the distance 6", wrong)
	}
}
