package dblsh_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"dblsh"
)

// A WithFilter callback that panics must reach the caller as a panic and
// leave the index as it was: every shard lock released, no searcher holding
// the broken query's candidates, and no helper goroutine left to crash the
// process. Each test runs on one shard and on three.

// panicIndex builds the 5 000 × 20 uniform index the filter-panic tests
// share, and returns it with its rows.
func panicIndex(t *testing.T, shards int) (*dblsh.Index, [][]float32) {
	t.Helper()
	rng := rand.New(rand.NewSource(45))
	data := make([][]float32, 5000)
	for i := range data {
		data[i] = make([]float32, 20)
		for j := range data[i] {
			data[i][j] = rng.Float32()
		}
	}
	idx, err := dblsh.New(data, dblsh.Options{Seed: 45, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return idx, data
}

// panicsAt returns a filter that accepts every id until its nth call, which
// panics.
func panicsAt(n int) dblsh.SearchOption {
	calls := 0
	return dblsh.WithFilter(func(int) bool {
		if calls++; calls == n {
			panic(fmt.Sprintf("filter call %d", n))
		}
		return true
	})
}

// recovered runs fn and returns the value it panicked with, nil if none.
func recovered(fn func()) (p any) {
	defer func() { p = recover() }()
	fn()
	return nil
}

// addsWithin adds one vector per shard, so one lands in every shard, and
// reports whether they all returned within a few seconds: a shard whose
// read lock a query never released blocks its writers for good.
func addsWithin(t *testing.T, idx *dblsh.Index, v []float32) bool {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		for range idx.Shards() {
			if _, err := idx.Add(v); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
		return true
	case <-time.After(5 * time.Second):
		return false
	}
}

func TestFilterPanicReleasesShardLocks(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			idx, data := panicIndex(t, shards)
			p := recovered(func() {
				idx.SearchOpts(data[0], 5, dblsh.WithFilter(func(int) bool { panic("x") }))
			})
			if p != "x" {
				t.Fatalf("recovered %v, want the filter's panic", p)
			}
			if !addsWithin(t, idx, data[1]) {
				t.Fatal("Add still blocked 5 s after a filter panicked: a shard's read lock was never released")
			}
		})
	}
}

// The panic is swept over the filter's calls, so it strikes at every
// point of a candidate block's gathering: the next query on the same
// Searcher must answer exactly as it did before.
func TestFilterPanicLeavesNoStaleCandidates(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			idx, data := panicIndex(t, shards)
			s := idx.NewSearcher()
			q := data[0]
			want := search(t, s, q, 10)
			for n := 1; n <= 140; n++ {
				if p := recovered(func() { s.SearchOpts(q, 10, panicsAt(n)) }); p == nil {
					t.Fatalf("filter call %d never came", n)
				}
				if got := search(t, s, q, 10); !reflect.DeepEqual(got, want) {
					t.Fatalf("after a panic at filter call %d the next query answered\n%v\nnot\n%v", n, got, want)
				}
			}
		})
	}
}

func TestSearchBatchFilterPanicReachesCaller(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			idx, data := panicIndex(t, shards)
			want := search(t, idx, data[0], 10)
			p := recovered(func() {
				idx.SearchBatchOpts(data[:16], 10, dblsh.WithFilter(func(int) bool { panic("x") }))
			})
			if p != "x" {
				t.Fatalf("recovered %v, want the filter's panic", p)
			}
			if got := search(t, idx, data[0], 10); !reflect.DeepEqual(got, want) {
				t.Fatalf("after the batch's panic a query answered\n%v\nnot\n%v", got, want)
			}
			if !addsWithin(t, idx, data[1]) {
				t.Fatal("Add still blocked 5 s after a batch's filter panicked")
			}
		})
	}
}
