package main

import (
	"context"
	"sync"
	"time"
)

// op is one read as the client saw it.
type op struct {
	req        request
	intended   time.Time // due time in the open loop; zero otherwise
	sent, done time.Time
	status     int
	err        error
	ans        answer
}

// exact reports whether the daemon answered with a complete distance.
// Transport errors, non-2xx statuses and degraded (complete:false)
// answers are all failures.
func (o *op) exact() bool {
	return o.err == nil && o.status/100 == 2 && o.ans.Complete && o.ans.Distance != nil
}

// latency is timed from the intended send time when there is one, so a
// stall also charges the requests queued behind it.
func (o *op) latency() time.Duration {
	if o.intended.IsZero() {
		return o.done.Sub(o.sent)
	}
	return o.done.Sub(o.intended)
}

func (o *op) do(ctx context.Context, c *client) {
	o.sent = time.Now()
	o.ans, o.status, o.err = c.query(ctx, o.req)
	o.done = time.Now()
}

// runList sends a fixed list of reads over conns connections, each
// connection sending its next read when the previous one returns.
func runList(ctx context.Context, c *client, reqs []request, conns int) []op {
	ops := make([]op, len(reqs))
	jobs := make(chan int, len(reqs)) // sized to the number of sends
	for i, r := range reqs {
		ops[i].req = r
		jobs <- i
	}
	close(jobs)
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				ops[i].do(ctx, c)
			}
		}()
	}
	wg.Wait()
	return ops
}

// openLoop sends reads at a fixed rate for dur, whatever the daemon's
// speed, over conns connections. A read due while every connection is
// busy waits for one, and that wait counts in its latency. lateness
// holds, per read, how late the generator itself released it.
func openLoop(ctx context.Context, c *client, next func() request, rate float64, dur time.Duration, conns int) (ops []op, lateness []time.Duration) {
	total := int(rate * dur.Seconds())
	ops = make([]op, total)
	lateness = make([]time.Duration, total)
	jobs := make(chan int, total) // sized to the number of sends
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				ops[i].do(ctx, c)
			}
		}()
	}
	gap := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	for i := 0; i < total && ctx.Err() == nil; i++ {
		due := start.Add(time.Duration(i) * gap)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lateness[i] = time.Since(due)
		ops[i].req, ops[i].intended = next(), due
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return ops, lateness
}

// closedLoop keeps conns reads in flight for dur: each connection sends
// its next read as soon as the previous one returns.
func closedLoop(ctx context.Context, c *client, next func() request, dur time.Duration, conns int) []op {
	var mu sync.Mutex
	var all []op
	end := time.Now().Add(dur)
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []op
			for time.Now().Before(end) && ctx.Err() == nil {
				mu.Lock()
				o := op{req: next()}
				mu.Unlock()
				o.do(ctx, c)
				mine = append(mine, o)
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return all
}

// write is one PATCH batch as the client saw it.
type write struct {
	graph      string
	batch      []edit
	raised     []edit // the edits when this batch raises weights; nil when it restores
	sent, done time.Time
	version    uint64
	status     int
	err        error
}

func (w *write) ok() bool { return w.err == nil && w.status/100 == 2 }

func (w *write) do(ctx context.Context, c *client) {
	w.sent = time.Now()
	w.version, w.status, w.err = c.patch(ctx, w.graph, w.batch)
	w.done = time.Now()
}

// writer sends one batch every period until stop is closed, and returns
// the batches it sent once the last one has completed.
func writer(ctx context.Context, c *client, ws *writeStream, graph string, period time.Duration, stop <-chan struct{}) <-chan []write {
	out := make(chan []write, 1)
	go func() {
		var writes []write
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-stop:
				out <- writes
				return
			case <-ctx.Done():
				out <- writes
				return
			case <-t.C:
				w := write{graph: graph}
				w.batch, w.raised = ws.Next()
				w.do(ctx, c)
				writes = append(writes, w)
			}
		}
	}()
	return out
}

// probeWrites sends k batches one after another.
func probeWrites(ctx context.Context, c *client, ws *writeStream, graph string, k int) []write {
	writes := make([]write, k)
	for i := range writes {
		writes[i].graph = graph
		writes[i].batch, writes[i].raised = ws.Next()
		writes[i].do(ctx, c)
	}
	return writes
}
