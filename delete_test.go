package dblsh

import (
	"math"
	"testing"
)

func TestDeleteHidesVector(t *testing.T) {
	data, _ := clusteredData(1000, 16, 41)
	idx, err := New(data, Options{K: 6, L: 3, T: 30, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	// Self-query finds id 5 at distance 0.
	hits := search(t, idx, data[5], 1)
	if hits[0].ID != 5 {
		t.Fatalf("expected self-hit, got %+v", hits[0])
	}
	if !del(t, idx, 5) {
		t.Fatal("Delete(5) returned false")
	}
	if idx.Deleted() != 1 {
		t.Fatalf("Deleted = %d", idx.Deleted())
	}
	hits = search(t, idx, data[5], 5)
	for _, h := range hits {
		if h.ID == 5 {
			t.Fatal("deleted vector still returned")
		}
	}
}

func TestDeleteIdempotentAndRangeChecked(t *testing.T) {
	data, _ := clusteredData(100, 8, 42)
	idx, err := New(data, Options{K: 4, L: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if del(t, idx, -1) || del(t, idx, 100) {
		t.Fatal("out-of-range Delete must return false")
	}
	if !del(t, idx, 0) {
		t.Fatal("first Delete must succeed")
	}
	if del(t, idx, 0) {
		t.Fatal("second Delete of same id must return false")
	}
}

func TestDeleteAllThenSearch(t *testing.T) {
	data, _ := clusteredData(50, 8, 43)
	idx, err := New(data, Options{K: 4, L: 2, T: 100, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		del(t, idx, i)
	}
	if hits := search(t, idx, data[0], 5); len(hits) != 0 {
		t.Fatalf("search over fully-deleted index returned %v", hits)
	}
}

func TestDeleteThenAdd(t *testing.T) {
	data, _ := clusteredData(200, 8, 44)
	idx, err := New(data, Options{K: 4, L: 2, T: 50, Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	del(t, idx, 7)
	id, err := idx.Add(data[7])
	if err != nil {
		t.Fatal(err)
	}
	hits := search(t, idx, data[7], 1)
	if len(hits) != 1 || hits[0].ID != id || hits[0].Dist != 0 {
		t.Fatalf("re-added vector not found: %+v", hits)
	}
}

func TestEarlyStopFactorTradesRecallForSpeed(t *testing.T) {
	data, queries := clusteredData(8000, 32, 45)
	idx, err := New(data, Options{K: 8, L: 4, T: 100, Seed: 45})
	if err != nil {
		t.Fatal(err)
	}
	s := idx.NewSearcher()
	var candExact, candEager int
	for _, q := range queries {
		var ste, stg Stats
		if _, err := s.SearchOpts(q, 10, WithStats(&ste)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.SearchOpts(q, 10, WithEarlyStop(4), WithStats(&stg)); err != nil {
			t.Fatal(err)
		}
		candExact += ste.Candidates
		candEager += stg.Candidates
	}
	if candEager > candExact {
		t.Fatalf("early stop did not reduce work: %d vs %d candidates", candEager, candExact)
	}
}

func TestEarlyStopFactorValidation(t *testing.T) {
	data, queries := clusteredData(10, 4, 46)
	idx, err := New(data, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{0.5, -1, math.NaN()} {
		if _, err := idx.SearchOpts(queries[0], 3, WithEarlyStop(f)); err == nil {
			t.Fatalf("early-stop factor %v accepted", f)
		}
	}
	if _, err := idx.SearchOpts(queries[0], 3, WithEarlyStop(1)); err != nil {
		t.Fatalf("early-stop factor 1 must be accepted: %v", err)
	}
}
