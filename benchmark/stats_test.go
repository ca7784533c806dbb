package main

import (
	"io"
	"math"
	"slices"
	"testing"
	"time"

	"dblsh"
)

func TestPercentileNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		p    float64
		want float64
	}{{0, 1}, {0.1, 1}, {0.5, 5}, {0.51, 6}, {0.95, 10}, {1, 10}} {
		if got := percentile(sorted, tc.p); got != tc.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile of nothing = %v, want NaN", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

func TestQuiet(t *testing.T) {
	xs := []float64{8, 3, 5, 1, 7, 2, 6, 4}
	if got := quiet(xs); got != 1 {
		t.Errorf("quiet(1..8) = %v, want 1", got)
	}
	if xs[0] != 8 || xs[7] != 4 {
		t.Errorf("quiet reordered its input: %v", xs)
	}
	if got := quiet(nil); !math.IsNaN(got) {
		t.Errorf("quiet of nothing = %v, want NaN", got)
	}
}

// passesOf builds passes from microsecond latencies, back to back from 0.
func passesOf(us [][]float64) []pass {
	var out []pass
	var clock int64
	for _, row := range us {
		p := make(pass, len(row))
		for qi, v := range row {
			d := time.Duration(v * 1e3)
			p[qi] = sample{startNs: clock, dur: d, traced: (len(out)+qi)%2 == 1}
			clock += d.Nanoseconds()
		}
		out = append(out, p)
	}
	return out
}

// TestSearchMetricsIgnoreBusyPasses pins the search timings: a query's
// latency is its quiet latency over passes, the percentiles run over queries,
// and the rate is one over the mean of those latencies. Half of the ten
// passes run three times slower, as when a neighbour takes the core, and
// move nothing.
func TestSearchMetricsIgnoreBusyPasses(t *testing.T) {
	const nq = 100
	var us [][]float64
	for p := 0; p < 10; p++ {
		row := make([]float64, nq)
		for qi := range row {
			row[qi] = float64(10 * (qi + 1)) // 10, 20, …, 1000 us
			if p%2 == 1 {
				row[qi] *= 3
			}
		}
		us = append(us, row)
	}
	e2e := map[string]float64{}
	searchMetrics(io.Discard, e2e, passesOf(us))
	if e2e["search_p50_us"] != 500 || e2e["search_p95_us"] != 950 {
		t.Errorf("p50 %v p95 %v, want 500 and 950", e2e["search_p50_us"], e2e["search_p95_us"])
	}
	// One closed-loop client at a mean latency of 505 us.
	if want := 1 / 505e-6; math.Abs(e2e["search_qps"]-want) > 1e-9*want {
		t.Errorf("qps %v, want %v", e2e["search_qps"], want)
	}

	// A search that failed counts for nothing: the query keeps the latency
	// of the passes in which it succeeded.
	ps := passesOf(us)
	ps[0][nq-1].err, ps[0][nq-1].dur = io.EOF, time.Nanosecond
	searchMetrics(io.Discard, e2e, ps)
	if want := 1 / 505e-6; math.Abs(e2e["search_qps"]-want) > 1e-9*want {
		t.Errorf("qps with one failed search %v, want %v", e2e["search_qps"], want)
	}
}

// TestSearchPasses pins the walk: every pass visits every query once, in
// order, sample i is query i, and the loop ends at the first pass boundary
// after stop turns true.
func TestSearchPasses(t *testing.T) {
	calls := 0
	passes := searchPasses(time.Now(), 5, 2, func() bool { return calls >= 12 }, nil, "x",
		func(qi int, sm *sample) { calls++; sm.res = make([]dblsh.Result, qi) })
	if len(passes) != 3 || calls != 15 {
		t.Fatalf("%d passes, %d calls; want 3 and 15", len(passes), calls)
	}
	for _, p := range passes {
		for qi, sm := range p {
			if len(sm.res) != qi || sm.traced {
				t.Errorf("sample %d holds query %d's answer (traced %v)", qi, len(sm.res), sm.traced)
			}
		}
	}
}

func TestTraceOverhead(t *testing.T) {
	us := [][]float64{{100, 100, 100, 100}, {100, 100, 100, 100}, {100, 100, 100, 100}, {100, 100, 100, 100}}
	ps := passesOf(us)
	if got := traceOverhead(ps); got != 0 {
		t.Errorf("overhead of equal halves = %v, want 0", got)
	}
	for _, p := range ps {
		for qi := range p {
			if p[qi].traced {
				p[qi].dur += 2 * time.Microsecond
			}
		}
	}
	if got := traceOverhead(ps); math.Abs(got-0.02) > 1e-12 {
		t.Errorf("overhead = %v, want 0.02", got)
	}
	for _, p := range ps {
		for qi := range p {
			p[qi].traced = false
		}
	}
	if got := traceOverhead(ps); got != 0 {
		t.Errorf("overhead of an untraced run = %v, want 0", got)
	}
}

func TestSecondsOf(t *testing.T) {
	durs := []time.Duration{3 * time.Second, time.Second, 2 * time.Second}
	got, err := secondsOf(3, func(i int) (time.Duration, error) { return durs[i], nil })
	if err != nil || !slices.Equal(got, []float64{3, 1, 2}) {
		t.Errorf("secondsOf = %v, %v; want 3 1 2, nil", got, err)
	}
	if _, err := secondsOf(3, func(i int) (time.Duration, error) { return 0, io.EOF }); err != io.EOF {
		t.Errorf("secondsOf passed on %v, want the first error", err)
	}
}
