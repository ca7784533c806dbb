package main

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"dblsh/internal/vec"
)

func sameCorpus(a, b *corpus) bool {
	if !slices.Equal(a.Data, b.Data) || len(a.Queries) != len(b.Queries) || len(a.Adds) != len(b.Adds) {
		return false
	}
	for i := range a.Queries {
		if !slices.Equal(a.Queries[i], b.Queries[i]) {
			return false
		}
	}
	for i := range a.Adds {
		if !slices.Equal(a.Adds[i], b.Adds[i]) {
			return false
		}
	}
	return true
}

// TestCorpusIgnoresGOMAXPROCS is the reason this package has its own
// generator: the same seed must give the same bytes on any core count.
func TestCorpusIgnoresGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	m := overlapMixture(24)
	runtime.GOMAXPROCS(1)
	one := newCorpus(m, 500, 20, 10, 3)
	runtime.GOMAXPROCS(4)
	four := newCorpus(m, 500, 20, 10, 3)
	if !sameCorpus(one, four) {
		t.Fatal("corpus differs between GOMAXPROCS 1 and 4")
	}
}

func TestCorpusSeeding(t *testing.T) {
	m := clusteredMixture(16)
	a, b := newCorpus(m, 300, 10, 5, 1), newCorpus(m, 300, 10, 5, 2)
	if !slices.Equal(a.Data, b.Data) {
		t.Error("indexed rows depend on the run's seed; they are part of the workload")
	}
	if slices.Equal(a.Queries[0], b.Queries[0]) || slices.Equal(a.Adds[0], b.Adds[0]) {
		t.Error("two seeds drew the same queries or adds")
	}
	if len(a.Data) != 300*16 || cap(a.Data) != len(a.Data) {
		t.Errorf("Data has len %d cap %d, want both %d", len(a.Data), cap(a.Data), 300*16)
	}
	// Held out: no query or add equals an indexed row.
	data := vec.WrapMatrix(a.Data, a.N, a.Dim)
	for _, v := range append(append([][]float32{}, a.Queries...), a.Adds...) {
		for i := 0; i < a.N; i++ {
			if slices.Equal(v, data.Row(i)) {
				t.Fatalf("held-out vector equals indexed row %d", i)
			}
		}
	}
}

func TestGroundTruthIsExact(t *testing.T) {
	m := overlapMixture(12)
	c := newCorpus(m, 700, 9, 0, 5) // 700 rows: two full chunks and a tail
	data := vec.WrapMatrix(c.Data, c.N, c.Dim)
	const k = 7
	for _, workers := range []int{1, 4} {
		truth := groundTruth(data, nil, c.Queries, k, workers)
		for qi, q := range c.Queries {
			type nb struct {
				id int
				d  float64
			}
			all := make([]nb, c.N)
			for i := range all {
				all[i] = nb{i, vec.Dist(q, data.Row(i))}
			}
			slices.SortFunc(all, func(a, b nb) int {
				if a.d != b.d {
					if a.d < b.d {
						return -1
					}
					return 1
				}
				return a.id - b.id
			})
			if len(truth[qi]) != k {
				t.Fatalf("workers=%d query %d: %d neighbours, want %d", workers, qi, len(truth[qi]), k)
			}
			for r, got := range truth[qi] {
				if got.ID != all[r].id || math.Abs(got.Dist-all[r].d) > 1e-9*all[r].d {
					t.Fatalf("workers=%d query %d rank %d: got %+v, want id %d dist %v", workers, qi, r, got, all[r].id, all[r].d)
				}
			}
		}
	}
	// With ids, results carry the caller's names for the rows.
	ids := make([]int, c.N)
	for i := range ids {
		ids[i] = 10_000 + i
	}
	plain := groundTruth(data, nil, c.Queries[:1], k, 1)
	named := groundTruth(data, ids, c.Queries[:1], k, 1)
	for r := range plain[0] {
		if named[0][r].ID != plain[0][r].ID+10_000 {
			t.Fatalf("rank %d: named id %d, plain id %d", r, named[0][r].ID, plain[0][r].ID)
		}
	}
}
