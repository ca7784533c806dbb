package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestSelfTimes checks the span arithmetic on the tree the layer passes
// record: a layer's self time is its span minus its children's, children
// being named by Parent, not by where they sit in time.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: "server.roundtrip", StartNs: 0, EndNs: 1000},
		{ID: 2, Parent: 1, Op: 1, Name: "dblsh.search", StartNs: 2000, EndNs: 2400},
		{ID: 3, Parent: 2, Op: 1, Name: "shard.search", StartNs: 3000, EndNs: 3350},
		{ID: 4, Parent: 3, Op: 1, Name: "core.kann", StartNs: 4000, EndNs: 4300},
		{ID: 5, Parent: 4, Op: 1, Name: "lsh.project", StartNs: 5000, EndNs: 5010},
		{ID: 6, Parent: 4, Op: 1, Name: "rstar.traverse", StartNs: 6000, EndNs: 6200},
		{ID: 7, Parent: 4, Op: 1, Name: "vec.verify", StartNs: 7000, EndNs: 7050},
		// A second operation of the same shape adds to the same names.
		{ID: 8, Op: 2, Name: "server.roundtrip", StartNs: 8000, EndNs: 8500},
		{ID: 9, Parent: 8, Op: 2, Name: "dblsh.search", StartNs: 9000, EndNs: 9600},
	}
	want := map[string]int64{
		"server.roundtrip": (1000 - 400) + (500 - 600), // the second is negative and kept
		"dblsh.search":     (400 - 350) + 600,
		"shard.search":     350 - 300,
		"core.kann":        300 - 10 - 200 - 50,
		"lsh.project":      10,
		"rstar.traverse":   200,
		"vec.verify":       50,
	}
	got := selfTimes(spans)
	if len(got) != len(want) {
		t.Errorf("selfTimes returned %d names, want %d: %v", len(got), len(want), got)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d ns, want %d", name, got[name], w)
		}
	}
}

func TestTracerRecordsAndWrites(t *testing.T) {
	var off *tracer
	if id := off.record(off.op(), 0, "x", time.Now(), time.Millisecond); id != 0 {
		t.Errorf("nil tracer returned span id %d, want 0", id)
	}

	tr := newTracer()
	op := tr.op()
	root := tr.record(op, 0, "dblsh.search", tr.epoch.Add(time.Millisecond), 5*time.Millisecond)
	tr.record(op, root, "shard.search", tr.epoch.Add(10*time.Millisecond), 3*time.Millisecond)
	if other := tr.op(); other == op {
		t.Errorf("two operations share id %d", op)
	}

	dir := t.TempDir()
	path, err := tr.write(dir, "overlap-128", 7, map[string]string{"go": "test"}, map[string]float64{"dblsh.search_us": 5000})
	if err != nil {
		t.Fatal(err)
	}
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file traceFile
	if err := json.Unmarshal(body, &file); err != nil {
		t.Fatal(err)
	}
	if file.Workload != "overlap-128" || file.Seed != 7 || len(file.Spans) != 2 {
		t.Fatalf("trace file = %+v", file)
	}
	if s := file.Spans[1]; s.Parent != file.Spans[0].ID || s.Op != file.Spans[0].Op || s.EndNs-s.StartNs != 3e6 {
		t.Errorf("child span = %+v, parent %+v", s, file.Spans[0])
	}
	if file.SelfNs["dblsh.search"] != 2e6 || file.SelfNs["shard.search"] != 3e6 {
		t.Errorf("self times in file = %v", file.SelfNs)
	}
}
