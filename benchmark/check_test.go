package main

import (
	"errors"
	"strings"
	"testing"

	"dblsh"
	"dblsh/internal/vec"
)

// TestGateTrips feeds the gate one wrong answer of every kind it is there to
// catch, and one right answer.
func TestGateTrips(t *testing.T) {
	rows := [][]float32{{0, 0}, {3, 4}, {6, 8}, {9, 12}}
	q := []float32{0, 0}
	right := []dblsh.Result{{ID: 0, Dist: 0}, {ID: 1, Dist: 5}, {ID: 2, Dist: 10}}
	newGate := func() *gate {
		return &gate{
			live: func() int { return len(rows) },
			rowOf: func(id int) []float32 {
				if id < 0 || id >= len(rows) {
					return nil
				}
				return rows[id]
			},
			deletedBefore: func(id int, startNs int64) bool { return id == 2 && startNs > 100 },
		}
	}

	g := newGate()
	g.search(q, 3, right, nil, 50)
	g.op("add", nil)
	if g.attempted != 2 || g.failed != 0 {
		t.Fatalf("right answers: attempted %d failed %d (%s)", g.attempted, g.failed, g.first)
	}

	for _, tc := range []struct {
		name    string
		res     []dblsh.Result
		err     error
		k       int
		startNs int64
		want    string
	}{
		{"error", nil, errors.New("shed"), 3, 0, "shed"},
		{"too few", right[:2], nil, 3, 0, "returned 2 results, want 3"},
		{"too many for the live set", right, nil, 2, 0, "returned 3 results, want 2"},
		{"not ascending", []dblsh.Result{right[1], right[0], right[2]}, nil, 3, 0, "not ascending"},
		{"wrong distance", []dblsh.Result{{ID: 0, Dist: 0}, {ID: 1, Dist: 5.01}, {ID: 2, Dist: 10}}, nil, 3, 0, "exact distance is 5"},
		{"unknown id", []dblsh.Result{{ID: 0, Dist: 0}, {ID: 1, Dist: 5}, {ID: 99, Dist: 10}}, nil, 3, 0, "unknown id 99"},
		{"deleted before the search began", right, nil, 3, 200, "delete was acknowledged"},
	} {
		g := newGate()
		g.search(q, tc.k, tc.res, tc.err, tc.startNs)
		if g.attempted != 1 || g.failed != 1 || !strings.Contains(g.first, tc.want) {
			t.Errorf("%s: attempted %d failed %d first %q, want one failure mentioning %q", tc.name, g.attempted, g.failed, g.first, tc.want)
		}
	}

	g = newGate()
	g.op("delete", errors.New("disk full"))
	if g.failed != 1 || !strings.Contains(g.first, "disk full") {
		t.Errorf("failed op: failed %d first %q", g.failed, g.first)
	}
}

func TestQuality(t *testing.T) {
	truth := [][]vec.Neighbor{
		{{ID: 1, Dist: 1}, {ID: 2, Dist: 2}},
		{{ID: 3, Dist: 1}, {ID: 4, Dist: 4}},
	}
	answers := [][]dblsh.Result{
		{{ID: 1, Dist: 1}, {ID: 2, Dist: 2}}, // exact
		{{ID: 3, Dist: 1}, {ID: 9, Dist: 6}}, // one of two, second 1.5× too far
	}
	recall, ratio := quality(answers, truth)
	if recall != 0.75 || ratio != (1+1.25)/2 {
		t.Errorf("quality = recall %v ratio %v, want 0.75 and 1.125", recall, ratio)
	}
}

// TestAdder pins the rounds and the id check: held-out vector i must be
// acknowledged as id N+i by every index, its latency is the fastest of the
// rounds, and a front door that acknowledges another id fails the gate and
// ends its round.
func TestAdder(t *testing.T) {
	c := &corpus{Dim: 1, N: 4, Data: []float32{0, 1, 2, 3}, Adds: [][]float32{{10}, {11}, {12}, {13}, {14}}}
	a := &adder{c: c}
	g := ackGate(c, a)
	a.g = g
	inOrder := func(i int) (int, error) { return c.N + i, nil }
	a.rehearse(inOrder)
	if a.acked != 0 || g.live() != 4 || g.rowOf(4) != nil {
		t.Fatalf("after a rehearsal: acked %d, live %d", a.acked, g.live())
	}
	self := func(q []float32, k int) ([]dblsh.Result, error) { return []dblsh.Result{{ID: 8, Dist: 0}}, nil }
	a.run(inOrder, self)
	if a.acked != 5 || g.live() != 9 || g.rowOf(6)[0] != 12 || g.rowOf(9) != nil || g.failed != 0 {
		t.Fatalf("after the run: acked %d, live %d, failed %d (%s)", a.acked, g.live(), g.failed, g.first)
	}
	a.rounds = [][]float64{{9, 2, 9, 4, 9}, {1, 9, 3, 9, 5}, {9, 9}}
	if got := a.p50(); got != 3 {
		t.Errorf("p50 = %v, want 3: the median of each add's fastest round", got)
	}

	other := func(q []float32, k int) ([]dblsh.Result, error) { return []dblsh.Result{{ID: 0, Dist: 14}}, nil }
	if a.run(inOrder, other); g.failed != 1 || !strings.Contains(g.first, "not its own nearest neighbour") {
		t.Errorf("lost add: failed %d first %q", g.failed, g.first)
	}

	b := &adder{c: c}
	gb := ackGate(c, b)
	b.g = gb
	b.run(func(i int) (int, error) { return c.N + i + i/2, nil }, self)
	if b.acked != 2 || gb.failed == 0 || !strings.Contains(gb.first, "acknowledged as id 7, want 6") {
		t.Errorf("wrong id: acked %d failed %d first %q", b.acked, gb.failed, gb.first)
	}
}
