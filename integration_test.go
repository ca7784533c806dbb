package dblsh

import (
	"bytes"
	"testing"
)

// TestLifecycle exercises the full life of an index through the public API:
// build → query → persist → reload → add → delete → batch query, asserting
// consistency at every step. This is the end-to-end path a deploying user
// follows.
func TestLifecycle(t *testing.T) {
	data, queries := clusteredData(5000, 32, 71)
	idx, err := New(data, Options{K: 8, L: 4, T: 60, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}

	// 1. Baseline answers.
	baseline := make([][]Result, len(queries))
	for i, q := range queries {
		baseline[i] = search(t, idx, q, 10)
		if len(baseline[i]) != 10 {
			t.Fatalf("query %d: %d results", i, len(baseline[i]))
		}
	}

	// 2. Persist and reload; answers must be identical.
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	idx2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		res := search(t, idx2, q, 10)
		for j := range res {
			if res[j] != baseline[i][j] {
				t.Fatalf("reloaded index diverges at query %d rank %d", i, j)
			}
		}
	}

	// 3. Add the queries themselves; each becomes its own nearest neighbor.
	ids := make([]int, len(queries))
	for i, q := range queries {
		id, err := idx2.Add(q)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for i, q := range queries {
		res := search(t, idx2, q, 1)
		if res[0].ID != ids[i] || res[0].Dist != 0 {
			t.Fatalf("query %d: added self not found, got %+v", i, res[0])
		}
	}

	// 4. Delete them again; the original baseline top-1 must reappear.
	for _, id := range ids {
		if !del(t, idx2, id) {
			t.Fatalf("Delete(%d) failed", id)
		}
	}
	for i, q := range queries {
		res := search(t, idx2, q, 1)
		if res[0] != baseline[i][0] {
			t.Fatalf("query %d: after delete got %+v, want %+v", i, res[0], baseline[i][0])
		}
	}

	// 5. Batch query equals sequential query.
	batch, err := idx2.SearchBatchOpts(queries, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		for j := range batch[i] {
			if batch[i][j] != baseline[i][j] {
				t.Fatalf("batch diverges at query %d rank %d", i, j)
			}
		}
	}
}

func TestSearchBatchSmall(t *testing.T) {
	data, queries := clusteredData(500, 8, 72)
	idx, err := New(data, Options{K: 4, L: 2, Seed: 72})
	if err != nil {
		t.Fatal(err)
	}
	// Single query: the caller's goroutine is the only worker.
	out, err := idx.SearchBatchOpts(queries[:1], 3)
	if err != nil || len(out) != 1 || len(out[0]) != 3 {
		t.Fatalf("batch of one returned %v, %v", out, err)
	}
	// Empty batch.
	if out, err := idx.SearchBatchOpts(nil, 3); err != nil || len(out) != 0 {
		t.Fatalf("empty batch returned %v, %v", out, err)
	}
}
