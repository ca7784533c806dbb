package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// scaled shrinks a workload by factor: rows, queries and adds shrink,
// everything that shapes the work stays.
func (w workload) scaled(factor int) workload {
	w.N /= factor
	w.Queries = max(w.Queries/factor, 16)
	w.Timed = max(w.Timed/factor, 16)
	w.Adds /= factor
	return w
}

// smokeRun executes one workload at 1/50 scale with a short timed part.
func smokeRun(t *testing.T, w workload, traced bool) (result, error) {
	t.Helper()
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	procs := min(runtime.NumCPU(), maxProcs)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	r := &run{
		w: w.scaled(50), seed: 3, seconds: 300 * time.Millisecond, procs: procs,
		root: root, outDir: t.TempDir(), log: io.Discard,
	}
	if testing.Verbose() {
		r.log = os.Stderr
	}
	if traced {
		r.tr = newTracer()
	}
	res, err := r.execute(environment(procs))
	if left, _ := filepath.Glob(filepath.Join(r.outDir, "run-*")); len(left) > 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
	return res, err
}

// TestSmoke runs all four workloads end to end, untraced and traced, server
// subprocess included, and checks that each prints exactly the metrics
// BENCHMARK.json promises, with no failed operation.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts dblsh-server")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name, defs := w.Name, endToEnd
			if traced {
				name, defs = w.Name+"/traced", perLayer
			}
			t.Run(name, func(t *testing.T) {
				res, err := smokeRun(t, w, traced)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < minTimedSearches {
					t.Errorf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: printed %+v (present %v), want unit %s", d.Name, m, ok, d.Unit)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v; it must never be 0", d.Name, m.Value)
					}
				}
			})
		}
	}
}

// TestRecallFloorFailsTheRun shows the gate's last line of defence: answers
// that are checked and internally consistent but not good enough produce no
// result at all.
func TestRecallFloorFailsTheRun(t *testing.T) {
	w, _ := findWorkload("overlap-128")
	w.RecallFloor = 1.01
	if _, err := smokeRun(t, w, false); !errors.Is(err, errBelowFloor) {
		t.Fatalf("run with an unreachable recall floor returned %v, want errBelowFloor", err)
	}
}
