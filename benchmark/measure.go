package main

import (
	"fmt"
	"slices"
	"time"
)

// mineTimeout is the server's default per-request limit; in-process calls
// carry the same one. No op may come near it: slowOp is the loud failure
// that keeps the failed count from flipping between runs.
const (
	mineTimeout = 30 * time.Second
	slowOp      = mineTimeout / 10
	timedPasses = 3
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a _workload or _layers child hands back to the orchestrator.
type report struct {
	Workload  string               `json:"workload"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metric    `json:"metrics"`
	Passes    map[string][]float64 `json:"passes,omitempty"` // per-pass values behind each median
	Notes     []string             `json:"notes,omitempty"`
	Failures  []string             `json:"failures,omitempty"` // the first few, for the reader
	Digest    string               `json:"digest,omitempty"`
}

// fail records a failed op.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 5 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// pass is one timed run of an op list by the single closed-loop caller.
type pass struct {
	lat  []time.Duration
	wall time.Duration
	cpu  time.Duration // of the process(es) under test, over this pass only
}

// timePass runs op(0..n-1) back to back with one clock read per op, so the
// latencies add up to the wall time and the loop's own cost (see
// loadgen.empty_op_us) is inside every figure it could bias.
func timePass(n int, cpu func() time.Duration, op func(i int)) pass {
	lat := make([]time.Duration, n)
	c0 := cpu()
	t0 := time.Now()
	prev := t0
	for i := range lat {
		op(i)
		now := time.Now()
		lat[i] = now.Sub(prev)
		prev = now
	}
	return pass{lat: lat, wall: prev.Sub(t0), cpu: cpu() - c0}
}

// summarize turns timed passes into the five per-op end-to-end metrics, each
// the median over passes; setup_s is added by the caller, which knows when
// the first timed op began.
func (r *report) summarize(passes []pass, peakRSSMB float64) {
	vals := map[string][]float64{}
	var tailQ float64
	for _, p := range passes {
		sorted := msSorted(p.lat)
		n := len(sorted)
		tailQ = tailQuantile(n)
		vals["op_p50_ms"] = append(vals["op_p50_ms"], quantile(sorted, 0.5))
		vals["op_tail_ms"] = append(vals["op_tail_ms"], quantile(sorted, tailQ))
		vals["ops_per_s"] = append(vals["ops_per_s"], float64(n)/p.wall.Seconds())
		vals["cpu_ms_per_op"] = append(vals["cpu_ms_per_op"], ms(p.cpu)/float64(n))
		r.Attempted += n
		if worst := slices.Max(p.lat); worst >= slowOp {
			r.fail("slowest op took %v, within a factor ten of the %v timeout", worst, mineTimeout)
		}
	}
	for _, m := range endToEnd { // the units live in that table
		if v, ok := vals[m.name]; ok {
			r.Metrics[m.name] = metric{median(v), m.unit}
		}
	}
	r.Passes = vals
	r.Metrics["peak_rss_mb"] = metric{peakRSSMB, "MB"}
	r.Notes = append(r.Notes, fmt.Sprintf("op_tail_ms is p%.4g of %d ops per pass, %d passes",
		100*tailQ, len(passes[0].lat), len(passes)))
}

func newReport(workload string) *report {
	return &report{Workload: workload, Metrics: map[string]metric{}}
}
