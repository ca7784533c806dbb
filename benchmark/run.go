package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"dblsh"
)

// indexSeed seeds the index's hash functions in every run. Like K and L it is
// configuration of the system under test, not an input: a different draw of
// the projections moves recall by ±2 %, which would drown the bound.
const indexSeed = 1

// setups is how many times an untraced run sets the system up, adds to it
// and reopens it: setup_s is the median, an add's latency and reopen_s the
// quiet value.
const setups = 3

// minTimedSearches is the fewest searches a timed part may hold, whatever
// -seconds says.
const minTimedSearches = 2000

// run is one workload execution.
type run struct {
	w       workload
	seed    int64
	seconds time.Duration
	procs   int    // pinned GOMAXPROCS, exported to the server subprocess
	root    string // module root
	outDir  string // benchmark/out
	tr      *tracer
	log     io.Writer

	clock time.Time // when the last phase ended

	mu      sync.Mutex // guards what abort cleans up
	workDir string     // scratch directory of this run
	srv     *server    // the running server subprocess, if any
}

// abort releases what a run holds outside its own process. The signal
// handler calls it while the run's goroutine is still going, hence the lock.
func (r *run) abort() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.srv.stop()
	if r.workDir != "" {
		os.RemoveAll(r.workDir)
	}
}

// phase logs how long the part of the run that just ended took, so that a
// run's wall time can be read off its log: only the timed part is -seconds.
func (r *run) phase(name string) {
	now := time.Now()
	if !r.clock.IsZero() {
		fmt.Fprintf(r.log, "%s: %s took %.2f s\n", r.w.Name, name, now.Sub(r.clock).Seconds())
	}
	r.clock = now
}

// outcome is what a workload hands back: the gate's counts and the metric
// values by name.
type outcome struct {
	gate   *gate
	e2e    map[string]float64
	layers map[string]float64
}

// repeats is setups for an untraced run. A traced run prints none of
// setup_s, add_p50_us and reopen_s, so it sets up, adds and reopens once.
func (r *run) repeats() int {
	if r.tr != nil {
		return 1
	}
	return setups
}

// options are the index options every workload builds with: the paper's
// defaults (c=1.5, K×L=10×5, t=100) and the workload's shard count.
func (r *run) options() dblsh.Options {
	return dblsh.Options{Seed: indexSeed, Shards: r.w.Shards}
}

// sample is one timed search: when it began (nanoseconds since the run's
// epoch), how long it took and what came back — decoded results from a
// library call, the reply's bytes from an HTTP one.
type sample struct {
	startNs int64
	dur     time.Duration
	res     []dblsh.Result
	raw     []byte
	err     error
	traced  bool // a span was recorded for this call
}

// pass is one walk over the run's timed queries, in order, back to back:
// sample i is query i. Every pass does the same work, so a query compares
// with itself across passes.
type pass []sample

// searchPasses is the timed closed loop: do(query index, the sample to fill)
// for each of nq queries, pass after pass, until stop reports true at the end
// of a pass and at least minPasses have run. Each call is timed on its own.
// tr, when non-nil, records every second call as a root span named spanName,
// a query in every second pass; the calls in between run untraced under the
// same conditions, so the two halves differ by the tracing overhead and not
// by the box's drift. Nothing but the clock reads happens between calls:
// answers are checked afterwards.
func searchPasses(epoch time.Time, nq, minPasses int, stop func() bool, tr *tracer, spanName string, do func(qi int, sm *sample)) []pass {
	var passes []pass
	for p := 0; p < minPasses || !stop(); p++ {
		cur := make(pass, nq)
		for qi := range cur {
			sm := &cur[qi]
			sm.traced = tr != nil && (p+qi)%2 == 1
			start := time.Now()
			do(qi, sm)
			sm.dur = time.Since(start)
			sm.startNs = start.Sub(epoch).Nanoseconds()
			if sm.traced {
				tr.record(tr.op(), 0, spanName, start, sm.dur)
			}
		}
		passes = append(passes, cur)
	}
	return passes
}

// minPasses is the fewest passes a timed part may hold, whatever -seconds
// says: enough for one of them to be quiet, and for minTimedSearches searches.
func minPasses(nq int) int {
	return max(4, (minTimedSearches+nq-1)/nq)
}

// after returns a stop function that turns true once d has passed.
func after(d time.Duration) func() bool {
	deadline := time.Now().Add(d)
	return func() bool { return !time.Now().Before(deadline) }
}

// queryLatencies returns, per query, its quiet latency in microseconds over
// the passes that keep(sample) selects and in which it succeeded; NaN for a
// query with none.
func queryLatencies(passes []pass, keep func(sample) bool) []float64 {
	out := make([]float64, len(passes[0]))
	var own []float64
	for qi := range out {
		own = own[:0]
		for _, p := range passes {
			if sm := p[qi]; sm.err == nil && keep(sm) {
				own = append(own, micro(sm.dur))
			}
		}
		out[qi] = quiet(own)
	}
	return out
}

// searchMetrics fills the three search timing metrics. A query's latency is
// its quiet latency over the passes; search_p50_us and search_p95_us are the
// median and the 95th percentile over queries, so the tail is the workload's
// expensive queries and not the host's busy seconds. search_qps is what the
// one closed-loop client gets at those latencies: one over their mean.
func searchMetrics(log io.Writer, e2e map[string]float64, passes []pass) {
	lat := queryLatencies(passes, func(sample) bool { return true })
	sort.Float64s(lat)
	e2e["search_p50_us"] = percentile(lat, 0.50)
	e2e["search_p95_us"] = percentile(lat, 0.95)
	e2e["search_qps"] = 1e6 / mean(lat)

	// The log shows what the quiet value was chosen from: the box's drift
	// over the run, pass by pass.
	fmt.Fprintf(log, "%d passes of %d searches; mean us per search by pass:", len(passes), len(passes[0]))
	for _, p := range passes {
		var sum time.Duration
		for _, sm := range p {
			sum += sm.dur
		}
		fmt.Fprintf(log, " %.0f", micro(sum)/float64(len(p)))
	}
	fmt.Fprintln(log)
}

// ackGate returns the gate of a workload that adds before its timed
// searches: ids below N are the corpus and N+i is the i-th add, once a.acked
// has passed i.
func ackGate(c *corpus, a *adder) *gate {
	return &gate{
		live: func() int { return c.N + a.acked },
		rowOf: func(id int) []float32 {
			switch {
			case id < c.N:
				return c.Data[id*c.Dim : (id+1)*c.Dim]
			case id < c.N+a.acked:
				return c.Adds[id-c.N]
			}
			return nil
		},
	}
}

// adder sends the run's held-out vectors through a front door's add, once
// into each index the run sets up. An add cannot be repeated on one index,
// and what it costs depends on how many came before it (the first hundred
// into bulk-loaded trees take three times as long as the tenth hundred), but
// the i-th add into a fresh index is the same work every time: its latency
// is the quiet value over the set-ups. All adds come before the timed
// searches, so the index does not change while searches are timed.
type adder struct {
	c      *corpus
	g      *gate
	acked  int         // adds the index in use has acknowledged; their ids follow the corpus
	rounds [][]float64 // per index, the acknowledged adds' latencies in microseconds
}

// send adds every held-out vector through add and returns how many were
// acknowledged. The i-th must be acknowledged as id N+i.
func (a *adder) send(add func(i int) (int, error)) int {
	lat := make([]float64, 0, len(a.c.Adds))
	for i := range a.c.Adds {
		start := time.Now()
		id, err := add(i)
		d := time.Since(start)
		if err == nil && id != a.c.N+i {
			err = fmt.Errorf("add %d acknowledged as id %d, want %d", i, id, a.c.N+i)
		}
		a.g.op("add", err)
		if err != nil {
			break // later ids would be off by one; the gate has the failure
		}
		lat = append(lat, micro(d))
	}
	a.rounds = append(a.rounds, lat)
	return len(lat)
}

// rehearse adds into an index that is about to be discarded.
func (a *adder) rehearse(add func(i int) (int, error)) { a.send(add) }

// run adds into the index the run goes on to search, and checks through
// search that the last vector added is its own nearest neighbour.
func (a *adder) run(add func(i int) (int, error), search func(q []float32, k int) ([]dblsh.Result, error)) {
	a.acked = a.send(add)
	if a.acked == 0 {
		return
	}
	last, id := a.c.Adds[a.acked-1], a.c.N+a.acked-1
	res, err := search(last, 1)
	a.g.search(last, 1, res, err, 0)
	if err == nil && len(res) == 1 && res[0].ID != id {
		a.g.fail("last add (id %d) is not its own nearest neighbour: got id %d", id, res[0].ID)
	}
}

// p50 returns the median over the adds of each add's quiet latency.
func (a *adder) p50() float64 {
	lat := make([]float64, 0, len(a.c.Adds))
	var own []float64
	for i := range a.c.Adds {
		own = own[:0]
		for _, r := range a.rounds {
			if i < len(r) {
				own = append(own, r[i])
			}
		}
		if len(own) > 0 {
			lat = append(lat, quiet(own))
		}
	}
	return median(lat)
}

// heapMB returns the live heap after a forced collection, in MB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// traceOverhead returns the median over queries of the traced calls' quiet
// latency, over the same of the untraced calls, minus one; 0 for a run that
// traced nothing.
func traceOverhead(passes []pass) float64 {
	traced := queryLatencies(passes, func(sm sample) bool { return sm.traced })
	plain := queryLatencies(passes, func(sm sample) bool { return !sm.traced })
	if math.IsNaN(median(traced)) || math.IsNaN(median(plain)) {
		return 0
	}
	return median(traced)/median(plain) - 1
}
