package dblsh_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"dblsh"
)

// searchOpts is the query form Index and Searcher share.
type searchOpts interface {
	SearchOpts(q []float32, k int, opts ...dblsh.SearchOption) ([]dblsh.Result, error)
}

// search is SearchOpts on a query the test knows to be valid: an error
// fails the test.
func search(tb testing.TB, on searchOpts, q []float32, k int) []dblsh.Result {
	tb.Helper()
	res, err := on.SearchOpts(q, k)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// optsIndex builds one shared index over a dense Gaussian cloud — the
// regime where the per-query knobs visibly change the work a query does —
// plus a handful of probe queries.
func optsIndex(t testing.TB) (*dblsh.Index, [][]float32) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	const n, dim, probes = 4000, 24, 8
	mk := func(count int) [][]float32 {
		out := make([][]float32, count)
		for i := range out {
			v := make([]float32, dim)
			for j := range v {
				v[j] = float32(rng.NormFloat64())
			}
			out[i] = v
		}
		return out
	}
	data := mk(n)
	idx, err := dblsh.New(data, dblsh.Options{K: 8, L: 4, T: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return idx, mk(probes)
}

// Two SearchOpts calls on one index with different per-query budgets must do
// observably different amounts of work — the point of the options API.
func TestPerQueryBudgetOverridesBuildConfig(t *testing.T) {
	idx, probes := optsIndex(t)
	const k = 10
	for _, q := range probes {
		var small, large dblsh.Stats
		if _, err := idx.SearchOpts(q, k, dblsh.WithCandidateBudget(2), dblsh.WithStats(&small)); err != nil {
			t.Fatal(err)
		}
		if _, err := idx.SearchOpts(q, k, dblsh.WithCandidateBudget(400), dblsh.WithStats(&large)); err != nil {
			t.Fatal(err)
		}
		// Budget 2·t·L+k with t=2, L=4, k=10 caps verification at 26 points.
		if small.Candidates > 26 {
			t.Fatalf("budget t=2 verified %d candidates, cap is 26", small.Candidates)
		}
		if small.Candidates >= large.Candidates {
			t.Fatalf("t=2 vs t=400 candidates: %d vs %d, want strictly fewer",
				small.Candidates, large.Candidates)
		}
	}
}

func TestPerQueryEarlyStopOverridesBuildConfig(t *testing.T) {
	idx, probes := optsIndex(t)
	const k = 10
	looserWins := 0
	for _, q := range probes {
		var exact, loose dblsh.Stats
		if _, err := idx.SearchOpts(q, k, dblsh.WithCandidateBudget(400), dblsh.WithStats(&exact)); err != nil {
			t.Fatal(err)
		}
		if _, err := idx.SearchOpts(q, k, dblsh.WithCandidateBudget(400),
			dblsh.WithEarlyStop(4), dblsh.WithStats(&loose)); err != nil {
			t.Fatal(err)
		}
		if loose.Rounds > exact.Rounds || loose.Candidates > exact.Candidates {
			t.Fatalf("early-stop did more work: rounds %d vs %d, candidates %d vs %d",
				loose.Rounds, exact.Rounds, loose.Candidates, exact.Candidates)
		}
		if loose.Candidates < exact.Candidates {
			looserWins++
		}
	}
	if looserWins == 0 {
		t.Fatal("early-stop factor 4 never reduced candidate count on any probe")
	}
}

func TestWithFilterExcludesIDs(t *testing.T) {
	idx, probes := optsIndex(t)
	const k = 5
	for _, q := range probes {
		res, err := idx.SearchOpts(q, k, dblsh.WithFilter(func(id int) bool { return id%2 == 1 }))
		if err != nil {
			t.Fatal(err)
		}
		if len(res) == 0 {
			t.Fatal("filtered search found nothing")
		}
		for _, h := range res {
			if h.ID%2 == 0 {
				t.Fatalf("filter leaked excluded id %d", h.ID)
			}
		}
	}
	// Self-exclusion: whatever id an unfiltered query ranks first, a filter
	// rejecting exactly that id must keep it out of the results.
	s := idx.NewSearcher()
	for _, q := range probes {
		res := search(t, s, q, 1)
		if len(res) != 1 {
			t.Fatal("unfiltered search found nothing")
		}
		nearest := res[0].ID
		fres, err := s.SearchOpts(q, 1, dblsh.WithFilter(func(id int) bool { return id != nearest }))
		if err != nil {
			t.Fatal(err)
		}
		if len(fres) == 1 && fres[0].ID == nearest {
			t.Fatalf("filter leaked excluded id %d", nearest)
		}
	}
}

// A filter that rejects every id is a defined query, not an error: no
// results, a nil error, and no exact distance computed, alone and in a
// batch. Such a query runs its ladder on to the covering sweep, which makes
// it the longest a query holds the index's read lock.
func TestWithFilterRejectingAll(t *testing.T) {
	idx, probes := optsIndex(t)
	none := dblsh.WithFilter(func(int) bool { return false })
	for i, q := range probes {
		var st dblsh.Stats
		res, err := idx.SearchOpts(q, 10, none, dblsh.WithStats(&st))
		if err != nil || len(res) != 0 || st.Candidates != 0 {
			t.Fatalf("probe %d: %d results, err %v, %d candidates; want none, nil, 0", i, len(res), err, st.Candidates)
		}
	}
	var per []dblsh.Stats
	res, err := idx.SearchBatchOpts(probes, 10, none, dblsh.WithBatchStats(&per))
	if err != nil || len(res) != len(probes) || len(per) != len(probes) {
		t.Fatalf("batch: %d results, %d stats, err %v", len(res), len(per), err)
	}
	for i := range probes {
		if len(res[i]) != 0 || per[i].Candidates != 0 {
			t.Fatalf("batch query %d: %d results, %d candidates; want none", i, len(res[i]), per[i].Candidates)
		}
	}
}

func TestWithContextCancellation(t *testing.T) {
	idx, probes := optsIndex(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: the query must give up at the first round check
	start := time.Now()
	res, err := idx.SearchOpts(probes[0], 10, dblsh.WithContext(ctx))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(res) != 0 {
		t.Fatalf("cancelled-before-start query returned %d results", len(res))
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("cancelled query took %v", d)
	}

	// Batch: cancellation surfaces the context error.
	if _, err := idx.SearchBatchOpts(probes, 10, dblsh.WithContext(ctx)); !errors.Is(err, context.Canceled) {
		t.Fatalf("batch err = %v, want context.Canceled", err)
	}

	// A live context passes through untouched.
	if _, err := idx.SearchOpts(probes[0], 10, dblsh.WithContext(context.Background())); err != nil {
		t.Fatal(err)
	}
}

func TestWithMaxRadiusCapsLadder(t *testing.T) {
	idx, probes := optsIndex(t)
	var unbounded dblsh.Stats
	if _, err := idx.SearchOpts(probes[0], 10, dblsh.WithStats(&unbounded)); err != nil {
		t.Fatal(err)
	}
	// A cap below the initial radius runs zero rounds and finds nothing.
	var st dblsh.Stats
	res, err := idx.SearchOpts(probes[0], 10, dblsh.WithMaxRadius(1e-12), dblsh.WithStats(&st))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 || st.Rounds != 0 {
		t.Fatalf("tiny max radius: %d results, %d rounds", len(res), st.Rounds)
	}
	// A cap at the unbounded query's own final radius leaves it unchanged;
	// anything it reports must respect the cap.
	var capped dblsh.Stats
	if _, err := idx.SearchOpts(probes[0], 10,
		dblsh.WithMaxRadius(unbounded.FinalRadius), dblsh.WithStats(&capped)); err != nil {
		t.Fatal(err)
	}
	if capped.FinalRadius > unbounded.FinalRadius {
		t.Fatalf("capped FinalRadius %v exceeds cap %v", capped.FinalRadius, unbounded.FinalRadius)
	}
}

// The cap must also hold on the full-corpus sweep path: a tiny clustered
// index whose ladder quickly covers every tree used to fall into finalSweep
// and verify the whole corpus past the cap.
func TestWithMaxRadiusCapsFinalSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, dim = 50, 8
	data := make([][]float32, n)
	for i := range data {
		v := make([]float32, dim)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		data[i] = v
	}
	idx, err := dblsh.New(data, dblsh.Options{K: 4, L: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// A query far from the cluster: nothing lies within the cap, so a
	// correctly capped ladder must verify zero candidates and return empty.
	far := make([]float32, dim)
	for j := range far {
		far[j] = 100
	}
	var st dblsh.Stats
	res, err := idx.SearchOpts(far, 1, dblsh.WithMaxRadius(32), dblsh.WithStats(&st))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 || st.Candidates != 0 {
		t.Fatalf("cap 32 leaked through final sweep: %d results, %d candidates", len(res), st.Candidates)
	}
}

// Index.SearchOpts and SearchBatchOpts run Searcher.SearchOpts's query on
// pooled searchers: no options means the same answers as one searcher,
// also while several goroutines share the index's pool.
func TestWrappersMatchOpts(t *testing.T) {
	idx, probes := optsIndex(t)
	const k = 10
	batch, err := idx.SearchBatchOpts(probes, k)
	if err != nil {
		t.Fatal(err)
	}
	s := idx.NewSearcher()
	own := make([][]dblsh.Result, len(probes))
	for i, q := range probes {
		own[i] = search(t, s, q, k)
		if !reflect.DeepEqual(batch[i], own[i]) {
			t.Fatalf("query %d: SearchBatchOpts %v != Searcher.SearchOpts %v", i, batch[i], own[i])
		}
	}
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, q := range probes {
				pooled, err := idx.SearchOpts(q, k)
				if err != nil || !reflect.DeepEqual(pooled, own[i]) {
					t.Errorf("query %d: Index.SearchOpts %v, %v != Searcher.SearchOpts %v", i, pooled, err, own[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// WithBatchStats records what WithStats records for each query on its own;
// WithStats on a batch is out of scope.
func TestSearchBatchOptsStats(t *testing.T) {
	idx, probes := optsIndex(t)
	var per []dblsh.Stats
	res, err := idx.SearchBatchOpts(probes, 10, dblsh.WithBatchStats(&per))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(probes) || len(per) != len(probes) {
		t.Fatalf("got %d results, %d stats for %d queries", len(res), len(per), len(probes))
	}
	s := idx.NewSearcher()
	for i, q := range probes {
		var one dblsh.Stats
		if _, err := s.SearchOpts(q, 10, dblsh.WithStats(&one)); err != nil {
			t.Fatal(err)
		}
		if per[i].Candidates == 0 || per[i].Rounds == 0 || per[i] != one {
			t.Fatalf("query %d: batch stats %+v, single-query stats %+v", i, per[i], one)
		}
	}
	var agg dblsh.Stats
	if _, err := idx.SearchBatchOpts(probes, 10, dblsh.WithStats(&agg)); err == nil {
		t.Fatal("WithStats accepted by SearchBatchOpts")
	}
}

func TestOptionValidation(t *testing.T) {
	idx, probes := optsIndex(t)
	bad := []dblsh.SearchOption{
		dblsh.WithCandidateBudget(0),
		dblsh.WithCandidateBudget(-3),
		dblsh.WithEarlyStop(0.5),
		dblsh.WithMaxRadius(-1),
		dblsh.WithContext(nil),
		dblsh.WithFilter(nil),
		dblsh.WithStats(nil),
		dblsh.WithBatchStats(nil),
	}
	for i, opt := range bad {
		if _, err := idx.SearchOpts(probes[0], 5, opt); err == nil {
			t.Fatalf("bad option %d accepted", i)
		}
	}
	// WithBatchStats is batch-only.
	var per []dblsh.Stats
	if _, err := idx.SearchOpts(probes[0], 5, dblsh.WithBatchStats(&per)); err == nil {
		t.Fatal("WithBatchStats accepted by SearchOpts")
	}
	s := idx.NewSearcher()
	if _, _, err := s.SearchRadiusOpts(probes[0], 1, dblsh.WithBatchStats(&per)); err == nil {
		t.Fatal("WithBatchStats accepted by SearchRadiusOpts")
	}
}

func TestSearchRadiusOptsFilter(t *testing.T) {
	idx, probes := optsIndex(t)
	s := idx.NewSearcher()
	// A huge radius always finds something; the filter constrains which ids
	// qualify.
	hit, ok, err := s.SearchRadiusOpts(probes[0], 1e6,
		dblsh.WithFilter(func(id int) bool { return id >= 2000 }))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("huge radius found nothing")
	}
	if hit.ID < 2000 {
		t.Fatalf("radius filter leaked id %d", hit.ID)
	}
}
