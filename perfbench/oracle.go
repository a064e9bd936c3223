package main

import (
	"fmt"
	"math/rand/v2"
	"sync"

	"wasp"
	"wasp/internal/baseline/dijkstra"
)

// oracle holds serial-Dijkstra distances on the generated graph, the
// reference every answer is checked against.
type oracle struct {
	g       *wasp.Graph
	dist    map[int][]uint32
	reached map[int]int
	parents map[int][]wasp.Vertex // shortest-path trees, built on demand

	mu      sync.Mutex
	variant map[*edit]*wasp.Graph // raised graph, by its batch's first edit
	vdist   map[vkey][]uint32     // distances on a raised graph
}

type vkey struct {
	batch *edit
	src   int
}

func newOracle(g *wasp.Graph) *oracle {
	return &oracle{g: g, dist: map[int][]uint32{}, reached: map[int]int{},
		parents: map[int][]wasp.Vertex{}, variant: map[*edit]*wasp.Graph{}, vdist: map[vkey][]uint32{}}
}

// solve computes the distances of every listed source on conns
// goroutines.
func (o *oracle) solve(sources []int, conns int) {
	todo := make(chan int, len(sources)) // sized to the number of sends
	for _, s := range sources {
		if _, ok := o.dist[s]; !ok {
			todo <- s
		}
	}
	close(todo)
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range todo {
				d := dijkstra.Distances(o.g, wasp.Vertex(s))
				r := 0
				for _, x := range d {
					if x != wasp.Infinity {
						r++
					}
				}
				o.mu.Lock()
				o.dist[s], o.reached[s] = d, r
				o.mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

// state is one graph the daemon may have served: the generated graph
// (raised nil) or the generated graph with a raising batch applied.
type state struct {
	raised []edit
}

// timeline returns, for each prefix of the successful writes, the graph
// state after it. states[0] is the generated graph.
func timeline(writes []write) []state {
	states := []state{{}}
	for i := range writes {
		cur := states[len(states)-1]
		if writes[i].ok() {
			cur = state{raised: writes[i].raised}
		}
		states = append(states, cur)
	}
	return states
}

// candidates lists the states that may have been active at some point
// of o's flight: state j took effect somewhere inside write j-1's
// flight and was retired somewhere inside write j's.
func candidates(o *op, writes []write, states []state) []state {
	var out []state
	for j := range states {
		if j > 0 && !writes[j-1].sent.Before(o.done) {
			break
		}
		if j < len(writes) && !o.sent.Before(writes[j].done) {
			continue
		}
		out = append(out, states[j])
	}
	return out
}

// check verifies every exact answer in ops against the graph states
// that were live while it was in flight, and returns one description
// per wrong answer. Sources must already be solved.
func (o *oracle) check(ops []op, writes []write) ([]string, error) {
	states := timeline(writes)
	var wrong []string
	for i := range ops {
		op := &ops[i]
		if !op.exact() {
			continue
		}
		d0, ok := o.dist[op.req.src]
		if !ok {
			continue // not in the checked sample
		}
		if op.ans.Reached != o.reached[op.req.src] {
			wrong = append(wrong, fmt.Sprintf("source %d: reached %d, oracle %d", op.req.src, op.ans.Reached, o.reached[op.req.src]))
			continue
		}
		got := *op.ans.Distance
		match := false
		var want []uint32
		for _, st := range candidates(op, writes, states) {
			exp := d0[op.req.tgt]
			if st.raised != nil {
				var err error
				if exp, err = o.raisedDist(st, op.req.src, op.req.tgt); err != nil {
					return nil, err
				}
			}
			want = append(want, exp)
			if got == exp {
				match = true
				break
			}
		}
		if !match {
			wrong = append(wrong, fmt.Sprintf("source %d target %d: distance %d, oracle %v", op.req.src, op.req.tgt, got, want))
		}
	}
	return wrong, nil
}

// raisedDist is the distance from src to tgt on the generated graph
// with st's raised edits. Raising weights never shortens a path, so
// when src's shortest-path tree reaches tgt without a raised edge the
// distance is unchanged; otherwise Dijkstra runs on the raised graph.
func (o *oracle) raisedDist(st state, src, tgt int) (uint32, error) {
	d0 := o.dist[src]
	if d0[tgt] == wasp.Infinity {
		return wasp.Infinity, nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	par, ok := o.parents[src]
	if !ok {
		var err error
		if par, err = wasp.BuildParents(o.g, wasp.Vertex(src), d0); err != nil {
			return 0, fmt.Errorf("oracle tree: %w", err)
		}
		o.parents[src] = par
	}
	hit := map[[2]int]bool{}
	for _, e := range st.raised {
		hit[[2]int{e.from, e.to}] = true
		if !o.g.Directed() {
			hit[[2]int{e.to, e.from}] = true
		}
	}
	uses := false
	for v := tgt; v != src; {
		p := int(par[v])
		if hit[[2]int{p, v}] {
			uses = true
			break
		}
		v = p
	}
	if !uses {
		return d0[tgt], nil
	}
	key := vkey{&st.raised[0], src}
	if d, ok := o.vdist[key]; ok {
		return d[tgt], nil
	}
	g, ok := o.variant[key.batch]
	if !ok {
		var err error
		if g, _, err = wasp.ApplyMutations(o.g, mutations(st.raised)); err != nil {
			return 0, fmt.Errorf("oracle variant: %w", err)
		}
		o.variant[key.batch] = g
	}
	d := dijkstra.Distances(g, wasp.Vertex(src))
	o.vdist[key] = d
	return d[tgt], nil
}

// sampleSources picks up to k distinct sources of exact answers, in a
// seed-determined order.
func sampleSources(ops []op, k int, seed uint64) []int {
	seen := map[int]bool{}
	var srcs []int
	for i := range ops {
		if s := ops[i].req.src; ops[i].exact() && !seen[s] {
			seen[s] = true
			srcs = append(srcs, s)
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0x0ac1e))
	rng.Shuffle(len(srcs), func(i, j int) { srcs[i], srcs[j] = srcs[j], srcs[i] })
	return srcs[:min(k, len(srcs))]
}
