package shard

import (
	"context"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"dblsh/internal/core"
	"dblsh/internal/vec"
	"dblsh/internal/wal"
)

// failFirstPollCtx is a context test double whose Done channel reports
// cancellation on exactly the first poll and never again: precisely one
// query of a batch observes an expired context, deterministically the first
// one polled. (A real context never un-cancels; this drives the error path,
// nothing more.)
type failFirstPollCtx struct {
	polls  atomic.Int64
	closed chan struct{}
}

func newFailFirstPollCtx() *failFirstPollCtx {
	c := &failFirstPollCtx{closed: make(chan struct{})}
	close(c.closed)
	return c
}

func (c *failFirstPollCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *failFirstPollCtx) Err() error                  { return context.Canceled }
func (c *failFirstPollCtx) Value(interface{}) interface{} {
	return nil
}
func (c *failFirstPollCtx) Done() <-chan struct{} {
	if c.polls.Add(1) == 1 {
		return c.closed
	}
	return nil
}

// TestSearchBatchSequentialContinuesPastErrors pins the fix for the
// single-worker batch path: an error on one query must not abandon the
// queries after it — the parallel path answers them, so the sequential
// path must too, or a batch's answered set would depend on GOMAXPROCS.
func TestSearchBatchSequentialContinuesPastErrors(t *testing.T) {
	s, _, queries := buildSet(600, 8, 77)
	prev := runtime.GOMAXPROCS(1)
	out, _, err := s.SearchBatch(queries, 3, core.QueryParams{Ctx: newFailFirstPollCtx()})
	runtime.GOMAXPROCS(prev)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out[0] != nil {
		t.Fatal("the cancelled first query was answered")
	}
	for i := 1; i < len(out); i++ {
		if out[i] == nil {
			t.Fatalf("sequential path abandoned query %d after the error", i)
		}
	}
}

// TestSearchBatchAnsweredSetParityAcrossWorkers is the acceptance check:
// under an expiring context the set of answered queries must be identical
// at GOMAXPROCS=1 and GOMAXPROCS=8.
func TestSearchBatchAnsweredSetParityAcrossWorkers(t *testing.T) {
	s, _, queries := buildSet(600, 8, 78)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()

	answered := func(workers int) []bool {
		prev := runtime.GOMAXPROCS(workers)
		out, _, err := s.SearchBatch(queries, 3, core.QueryParams{Ctx: ctx})
		runtime.GOMAXPROCS(prev)
		if err != context.DeadlineExceeded {
			t.Fatalf("workers=%d: err = %v, want context.DeadlineExceeded", workers, err)
		}
		set := make([]bool, len(out))
		for i, nbs := range out {
			set[i] = nbs != nil
		}
		return set
	}
	seq := answered(1)
	par := answered(8)
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("query %d: answered=%v at 1 worker, %v at 8", i, seq[i], par[i])
		}
	}
	// Also pin the fail-once shape: one erroring query, all others
	// answered, at both worker counts.
	for _, workers := range []int{1, 8} {
		prev := runtime.GOMAXPROCS(workers)
		out, _, err := s.SearchBatch(queries, 3, core.QueryParams{Ctx: newFailFirstPollCtx()})
		runtime.GOMAXPROCS(prev)
		if err != context.Canceled {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		unanswered := 0
		for _, nbs := range out {
			if nbs == nil {
				unanswered++
			}
		}
		if unanswered != 1 {
			t.Fatalf("workers=%d: %d unanswered queries, want exactly 1", workers, unanswered)
		}
	}
}

// TestSearchBatchIgnoresWorkerCount: one worker (the caller alone) and four
// run the same loop, so a batch's results and per-query statistics are
// identical at GOMAXPROCS 1 and 4, and equal to each query run on its own.
func TestSearchBatchIgnoresWorkerCount(t *testing.T) {
	s, _, queries := buildSet(600, 8, 80)
	queries = append(queries, queries...) // more queries than workers
	batch := func(procs int) ([][]vec.Neighbor, []core.Stats) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		out, stats, err := s.SearchBatch(queries, 5, core.QueryParams{})
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		return out, stats
	}
	out1, st1 := batch(1)
	out4, st4 := batch(4)
	for i, q := range queries {
		one, st, err := search(s, q, 5, core.QueryParams{})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(out1[i], one) || !slices.Equal(out4[i], one) {
			t.Fatalf("query %d: results %v at 1 worker, %v at 4, %v alone", i, out1[i], out4[i], one)
		}
		if st1[i] != st || st4[i] != st {
			t.Fatalf("query %d: stats %+v at 1 worker, %+v at 4, %+v alone", i, st1[i], st4[i], st)
		}
	}
}

// TestAddAt pins the WAL replay primitive, one logged add at a time:
// inserts land under their exact global id, holes in the id space
// included, and advance the allocator; an add of an id at or below the
// largest resident one — resident already, or compacted away — is skipped,
// so the id map stays ascending and every id resolves to its own row.
func TestAddAt(t *testing.T) {
	flat, _ := corpus(40, 4, 79)
	s := Build(nil, 0, 4, 1, 0, core.Config{K: 4, L: 2, T: 20, Seed: 79})
	// addAt replays the add of row g under id g and reports whether the set
	// grew.
	addAt := func(g int) bool {
		before := s.Len()
		s.Replay([]wal.Record{{Op: wal.OpAdd, ID: uint64(g), Row: flat[g*4 : (g+1)*4]}})
		return s.Len() > before
	}

	// Ascending ids with holes: 0, 3, 6, …, 39.
	var ids []int
	for g := 0; g < 40; g += 3 {
		if !addAt(g) {
			t.Fatalf("add of %d skipped on first replay", g)
		}
		ids = append(ids, g)
	}
	if s.NextID() != 40 || s.Len() != len(ids) {
		t.Fatalf("NextID=%d Len=%d, want 40/%d", s.NextID(), s.Len(), len(ids))
	}
	// Replaying a resident add, or one below the largest resident id (a
	// row compacted away), is a no-op.
	for _, g := range []int{0, 17, 35, 39} {
		if addAt(g) {
			t.Fatalf("add of %d inserted below the largest resident id", g)
		}
	}
	// Every id resolves to its own row: a self-query finds it, and Delete
	// proves residency; the holes are not live.
	for _, g := range ids {
		nbs, _, err := search(s, flat[g*4:(g+1)*4], 1, core.QueryParams{})
		if err != nil || len(nbs) != 1 || nbs[0].ID != g || nbs[0].Dist != 0 {
			t.Fatalf("self-query of %d: %v %v", g, nbs, err)
		}
		if !s.Delete(g) {
			t.Fatalf("id %d not resident after its replayed add", g)
		}
	}
	for _, g := range []int{1, 2, 38} {
		if s.Live(g) || s.Delete(g) {
			t.Fatalf("hole %d is live", g)
		}
	}
	// The allocator never hands out a replayed id.
	if g := s.Add(flat[:4]); g != 40 {
		t.Fatalf("Add after replay allocated id %d, want 40", g)
	}
}
