package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// client speaks ssspd's HTTP API over at most conns connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// answer is the part of a /sssp response the harness checks.
type answer struct {
	Complete  bool    `json:"complete"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Reached   int     `json:"reached"`
	Distance  *uint32 `json:"distance"`
}

// query sends one read. A non-nil error is a transport or decode
// failure; otherwise status is the HTTP status.
func (c *client) query(ctx context.Context, r request) (answer, int, error) {
	url := fmt.Sprintf("%s/sssp?graph=%s&source=%d&target=%d", c.base, r.graph, r.src, r.tgt)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return answer{}, 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return answer{}, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return answer{}, resp.StatusCode, err
	}
	var a answer
	if resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(body, &a); err != nil {
			return answer{}, resp.StatusCode, fmt.Errorf("decode /sssp answer: %w", err)
		}
	}
	return a, resp.StatusCode, nil
}

type patchOp struct {
	Op     string `json:"op"`
	From   int    `json:"from"`
	To     int    `json:"to"`
	Weight uint32 `json:"weight"`
}

// patch applies one set-weight batch to a graph and returns the version
// the daemon reports as serving afterwards.
func (c *client) patch(ctx context.Context, graph string, batch []edit) (uint64, int, error) {
	ops := make([]patchOp, len(batch))
	for i, e := range batch {
		ops[i] = patchOp{"set-weight", e.from, e.to, e.weight}
	}
	body, err := json.Marshal(map[string]any{"mutations": ops})
	if err != nil {
		return 0, 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPatch, c.base+"/graph?graph="+graph, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode/100 != 2 {
		return 0, resp.StatusCode, err
	}
	var mr struct {
		Version uint64 `json:"version"`
	}
	if err := json.Unmarshal(out, &mr); err != nil {
		return 0, resp.StatusCode, fmt.Errorf("decode PATCH answer: %w", err)
	}
	return mr.Version, resp.StatusCode, nil
}

// ready reports whether /healthz/ready answers 200.
func (c *client) ready(ctx context.Context) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz/ready", nil)
	if err != nil {
		return false
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// promSample maps a series ("name" or "name{labels}") to its value.
type promSample map[string]float64

// scrape reads /metrics.
func (c *client) scrape(ctx context.Context) (promSample, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %d", resp.StatusCode)
	}
	return parseProm(resp.Body)
}

func parseProm(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every series of the named metric, whatever its labels.
func (p promSample) sum(name string) float64 {
	var t float64
	for k, v := range p {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// counterDelta is after minus before for the named metric.
func counterDelta(before, after promSample, name string) float64 {
	return after.sum(name) - before.sum(name)
}
