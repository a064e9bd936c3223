package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// metric is one reported number. samples is how many measurements it
// summarises.
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// result is everything one run reports.
type result struct {
	Workload  string         `json:"workload"`
	Seed      uint64         `json:"seed"`
	Traced    bool           `json:"traced"`
	Facts     facts          `json:"facts"`
	Metrics   []metric       `json:"metrics"`
	Info      []metric       `json:"info,omitempty"` // printed, not part of the result object
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Wrong     []string       `json:"wrong,omitempty"`
	Mismatch  []string       `json:"mismatch,omitempty"` // cross-checks the daemon's counters failed
	Invalid   string         `json:"invalid,omitempty"`
	Phases    []phaseSummary `json:"phases"`
	Checks    []string       `json:"checks,omitempty"`
	Selection []string       `json:"selection,omitempty"` // which samples each figure came from
	Spans     int            `json:"spans,omitempty"`
}

func (r *result) add(name string, value float64, unit string, samples int) {
	r.Metrics = append(r.Metrics, metric{name, value, unit, samples})
}

// status is the exit status of a run that completed and is valid: 1
// when a distance was wrong, 4 when the daemon's counters disagreed
// with what the client saw it serve, else 0.
func (r *result) status() int {
	switch {
	case len(r.Wrong) > 0:
		return 1
	case len(r.Mismatch) > 0:
		return 4
	}
	return 0
}

// phaseSummary records one phase's client counts and the daemon's
// counter deltas over it.
type phaseSummary struct {
	Name     string             `json:"name"`
	Seconds  float64            `json:"seconds"`
	Reads    int                `json:"reads"`
	Exact    int                `json:"exact"`
	Writes   int                `json:"writes,omitempty"`
	Lateness *latenessSummary   `json:"generator_lateness,omitempty"`
	Daemon   map[string]float64 `json:"daemon,omitempty"`
}

type latenessSummary struct {
	P99MS float64 `json:"p99_ms"`
	MaxMS float64 `json:"max_ms"`
}

// quantile is the nearest-rank q-quantile of xs, which it sorts.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// print writes one human-readable line per metric and then, as the last
// line, the JSON object the benchmark contract defines.
func (r *result) print(w io.Writer) error {
	kind := "end-to-end"
	if r.Traced {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "# %s %s seed=%d nproc=%d gomaxprocs=%d connections=%d cpu=%q go=%s source=%s steal=%.3f\n",
		kind, r.Workload, r.Seed, r.Facts.NProc, r.Facts.GOMAXPROCS, r.Facts.Conns, r.Facts.CPU, r.Facts.GoVersion, r.Facts.Source, r.Facts.StealFrac)
	fmt.Fprintf(w, "# ssspd flags %v\n", r.Facts.DaemonFlags)
	for _, p := range r.Phases {
		line := fmt.Sprintf("# phase %-8s %6.2fs reads=%d exact=%d writes=%d", p.Name, p.Seconds, p.Reads, p.Exact, p.Writes)
		if p.Lateness != nil {
			line += fmt.Sprintf(" lateness_p99=%.3fms lateness_max=%.3fms", p.Lateness.P99MS, p.Lateness.MaxMS)
		}
		fmt.Fprintln(w, line)
	}
	for _, c := range r.Checks {
		fmt.Fprintf(w, "# check %s\n", c)
	}
	for _, s := range r.Selection {
		fmt.Fprintf(w, "# selection %s\n", s)
	}
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%-28s %14.6g %-6s n=%d\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	for _, m := range r.Info {
		fmt.Fprintf(w, "# info %-21s %14.6g %-6s n=%d\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	fmt.Fprintf(w, "%-28s %14.6g %-6s n=%d\n", "failed_frac", float64(r.Failed)/float64(max(r.Attempted, 1)), "frac", r.Attempted)
	for _, s := range r.Wrong {
		fmt.Fprintf(w, "# WRONG %s\n", s)
	}
	for _, s := range r.Mismatch {
		fmt.Fprintf(w, "# MISMATCH %s\n", s)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.Wrong) == 0 && len(r.Mismatch) == 0, max(r.Attempted, 1), r.Failed, map[string]value{}}
	for _, m := range r.Metrics {
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
