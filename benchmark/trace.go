package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation — one query
// driven through every boundary, or one request of the traced section — share
// Op; Parent is the ID of the span that caused this one, 0 for a root.
//
// Nothing inside the program may change in the PR that defines the benchmark,
// so a query's child spans are not nested in wall-clock time: the same query
// is driven through each public boundary in turn on identically built state,
// and Parent records the call that would have contained the child. selfTimes
// therefore subtracts child durations, not child intervals.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.EndNs - s.StartNs }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run pays one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	ops   int
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// op returns a fresh operation id for the spans of one request.
func (t *tracer) op() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// record stores a finished span and returns its ID for children to name.
func (t *tracer) record(op, parent int, name string, start time.Time, d time.Duration) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	s := start.Sub(t.epoch).Nanoseconds()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartNs: s, EndNs: s + d.Nanoseconds()})
	return id
}

// selfTimes returns, per span name, the summed self time in nanoseconds:
// each span's duration minus the durations of the spans that name it as
// parent. A negative self time is kept — it says the replayed children cost
// more than the call they stand for, which is worth seeing.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.dur()
		}
	}
	self := make(map[string]int64)
	for _, s := range spans {
		self[s.Name] += s.dur() - children[s.ID]
	}
	return self
}

// traceFile is what -trace 1 writes to out/<workload>.trace.json.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Env      map[string]string  `json:"env"`
	SelfNs   map[string]int64   `json:"self_ns_by_span"`
	Metrics  map[string]float64 `json:"per_layer"`
	Spans    []span             `json:"spans"`
}

func (t *tracer) write(dir, workload string, seed int64, env map[string]string, metrics map[string]float64) (string, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, workload+".trace.json")
	body, err := json.Marshal(traceFile{
		Workload: workload, Seed: seed, Env: env,
		SelfNs: selfTimes(t.spans), Metrics: metrics, Spans: t.spans,
	})
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, body, 0o666); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
