package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"wasp"
)

// workload is one traffic mix against one deployment of ssspd. Sizes
// and rates are the full-scale values; toy scale shrinks them for
// tests (see scaled).
type workload struct {
	name string

	gen      string        // internal/gen workload name
	n        int           // vertex count
	relabel  bool          // serve the read graph from a degree-relabeled bundle
	hot      int           // hot-set size; 0 means every read uses a fresh source
	openRPS  float64       // fixed arrival rate of the open-loop phase
	openFrac float64       // share of --seconds given to the open-loop phase
	mutate   time.Duration // period of the PATCH batches beside the reads; 0 for none
	probe    int           // PATCH batches in the write probe after the reads
}

const (
	zipfS        = 1.1 // skew of the reads over the hot set
	batchSize    = 16  // set-weight edits per PATCH batch
	freshWarmup  = 64  // warm-up reads when there is no hot set
	freshChecked = 64  // sources the oracle checks when there is no hot set
)

// Graph names inside the daemon. A relabeled deployment refuses
// mutations, so twitter-cold's write probe goes to a daemon serving an
// unrelabeled twin of the same graph.
const (
	readGraph = "g"
	writeTwin = "g-plain"
)

// workloads are the traffic mixes; README.md says why each was chosen.
var workloads = []workload{
	{
		// Nearly every read is an exact cache hit: cache, registry and
		// HTTP do the work and the solver idles.
		name: "road-hot",
		gen:  "road-usa", n: 1 << 19, hot: 24,
		openRPS: 200, openFrac: 0.6, probe: 16,
	},
	{
		// No read can reuse the cache: the work-stealing solver, session
		// reset, pool admission and relabel do the work.
		name: "twitter-cold",
		gen:  "twitter", n: 1 << 16, relabel: true,
		openRPS: 40, openFrac: 0.5, probe: 16,
	},
	{
		// Writes beside reads: each batch retires the cache scope and
		// makes the next hot reads repair solves. Not in BENCHMARK.json:
		// its figures were not steady on a two-core host.
		name: "road-mutate",
		gen:  "road-usa", n: 1 << 19, hot: 24,
		openRPS: 100, openFrac: 0.75, mutate: 2 * time.Second,
	},
}

func lookupWorkload(name string, toy bool) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			if toy {
				return w.scaled(), nil
			}
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want road-hot, twitter-cold or road-mutate)", name)
}

// scaled returns the toy-scale version the smoke test runs: the same
// phases and checks on graphs small enough to solve in microseconds.
func (w workload) scaled() workload {
	w.n = 1 << 12
	if w.gen == "twitter" {
		w.n = 1 << 10
	}
	w.openRPS /= 4
	w.mutate /= 20
	return w
}

// inputs are a workload's generated artifacts, all derived from the seed.
type inputs struct {
	g         *wasp.Graph   // read graph in original ids
	perm      []wasp.Vertex // old→new permutation of the served bundle; nil when not relabeled
	bundleDir string        // holds the bundles the daemon serves
	twinDir   string        // holds the unrelabeled twin the write probe mutates; "" when not relabeled
	readPath  string        // bundle file of the read graph
	hot       []int         // hot sources, original ids
	fresh     []int         // fresh-source order (core component, shuffled)
	reqs      *requestStream
	writes    *writeStream
}

func buildInputs(w workload, seed uint64, dir string) (*inputs, error) {
	g, err := wasp.GenerateWorkload(w.gen, wasp.WorkloadConfig{N: w.n, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", w.gen, err)
	}
	in := &inputs{g: g, bundleDir: filepath.Join(dir, "bundles")}
	read := &wasp.Bundle{Graph: g}
	read.Manifest.Name, read.Manifest.Version = readGraph, 1
	if w.relabel {
		read.Graph, read.Relabel = wasp.RelabelByDegree(g)
		in.perm = read.Relabel
		in.twinDir = filepath.Join(dir, "twin")
		twin := &wasp.Bundle{Graph: g}
		twin.Manifest.Name, twin.Manifest.Version = writeTwin, 1
		if err := saveFresh(in.twinDir, writeTwin, twin); err != nil {
			return nil, err
		}
	}
	in.readPath = filepath.Join(in.bundleDir, readGraph+".wspb")
	if err := saveFresh(in.bundleDir, readGraph, read); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	if w.hot > 0 {
		seen := map[int]bool{}
		for _, s := range wasp.SourcesInLargestComponent(g, seed, 4*w.hot) {
			if !seen[int(s)] && len(in.hot) < w.hot {
				seen[int(s)] = true
				in.hot = append(in.hot, int(s))
			}
		}
	} else {
		in.fresh = coreComponent(g)
		rng.Shuffle(len(in.fresh), func(i, j int) { in.fresh[i], in.fresh[j] = in.fresh[j], in.fresh[i] })
	}
	in.reqs = newRequestStream(w, in, seed)
	in.writes = newWriteStream(g, seed)
	return in, nil
}

// saveFresh writes b as the only bundle in dir, named name.wspb.
func saveFresh(dir, name string, b *wasp.Bundle) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return wasp.SaveBundle(filepath.Join(dir, name+".wspb"), b)
}

// coreComponent lists, in id order, the vertices of the strongly
// connected component of g's highest out-degree vertex: those that
// reach it and are reached from it. On a skewed graph that is the giant
// component, and every source in it reaches the same giant out-set, so
// every fresh read is a solve of the same size. A source drawn from the
// weakly connected component alone may reach almost nothing; on twitter
// at n=2^16 about one in seven reaches fewer than 1,000 vertices.
func coreComponent(g *wasp.Graph) []int {
	hub, _ := g.MaxOutDegree()
	fwd, bwd := reach(g, hub, g.OutNeighbors), reach(g, hub, g.InNeighbors)
	var out []int
	for u := range fwd {
		if fwd[u] && bwd[u] {
			out = append(out, u)
		}
	}
	return out
}

// reach marks the vertices reachable from s along nbrs.
func reach(g *wasp.Graph, s wasp.Vertex, nbrs func(wasp.Vertex) ([]wasp.Vertex, []wasp.Weight)) []bool {
	seen := make([]bool, g.NumVertices())
	seen[s] = true
	stack := []wasp.Vertex{s}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		vs, _ := nbrs(u)
		for _, v := range vs {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return seen
}

// request is one /sssp read.
type request struct {
	graph    string
	src, tgt int
}

// requestStream yields a workload's reads in a seed-determined order:
// Zipf over the hot set with uniform targets, or fresh sources in
// shuffled order. Not safe for concurrent use.
type requestStream struct {
	n     int
	hot   []int
	fresh []int
	next  int
	rng   *rand.Rand
	zipf  *rand.Zipf
}

func newRequestStream(w workload, in *inputs, seed uint64) *requestStream {
	rs := &requestStream{n: in.g.NumVertices(), hot: in.hot, fresh: in.fresh,
		rng: rand.New(rand.NewPCG(seed, 0x7ead))}
	if len(in.hot) > 0 {
		rs.zipf = rand.NewZipf(rs.rng, zipfS, 1, uint64(len(in.hot)-1))
	}
	return rs
}

// warmup returns the warm-up reads: every hot source once, or the first
// freshWarmup fresh sources.
func (rs *requestStream) warmup() []request {
	var out []request
	if len(rs.hot) > 0 {
		for _, s := range rs.hot {
			out = append(out, request{readGraph, s, rs.rng.IntN(rs.n)})
		}
		return out
	}
	for range freshWarmup {
		out = append(out, rs.Next())
	}
	return out
}

// Next returns the next read. Fresh sources wrap around once the
// component is exhausted; a run never gets that far at full scale.
func (rs *requestStream) Next() request {
	tgt := rs.rng.IntN(rs.n)
	if rs.zipf != nil {
		return request{readGraph, rs.hot[rs.zipf.Uint64()], tgt}
	}
	s := rs.fresh[rs.next%len(rs.fresh)]
	rs.next++
	return request{readGraph, s, tgt}
}

// edit is one set-weight mutation in original ids.
type edit struct {
	from, to int
	weight   uint32
}

// writeStream yields PATCH batches that alternate: an odd batch raises
// the weights of fresh edges, the next even batch restores them. The
// graph therefore alternates between the generated graph and a
// variant raised on that pair's edges, and never drifts.
type writeStream struct {
	g    *wasp.Graph
	rng  *rand.Rand
	used map[[2]int]bool
	last []edit // the raised edits awaiting restore, original weights
}

// restart forgets a pending restore: the next batch raises fresh edges,
// as on a daemon freshly started from the generated graph.
func (ws *writeStream) restart() { ws.last = nil }

func newWriteStream(g *wasp.Graph, seed uint64) *writeStream {
	return &writeStream{g: g, rng: rand.New(rand.NewPCG(seed, 0xed17)), used: map[[2]int]bool{}}
}

// Next returns the next batch and, for a raising batch, the edits it
// applies (nil for a restoring batch).
func (ws *writeStream) Next() (batch []edit, raised []edit) {
	if ws.last != nil {
		batch, ws.last = ws.last, nil
		return batch, nil
	}
	n := ws.g.NumVertices()
	var orig []edit
	for len(batch) < batchSize {
		u := ws.rng.IntN(n)
		nbrs, wts := ws.g.OutNeighbors(wasp.Vertex(u))
		if len(nbrs) == 0 {
			continue
		}
		i := ws.rng.IntN(len(nbrs))
		v := int(nbrs[i])
		key := [2]int{u, v}
		if !ws.g.Directed() && v < u {
			key = [2]int{v, u}
		}
		if u == v || ws.used[key] {
			continue
		}
		ws.used[key] = true
		batch = append(batch, edit{u, v, wts[i] + 1 + uint32(ws.rng.IntN(64))})
		orig = append(orig, edit{u, v, wts[i]})
	}
	ws.last = orig
	return batch, batch
}
