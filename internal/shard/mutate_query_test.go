package shard

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"dblsh/internal/core"
	"dblsh/internal/vec"
)

// TestMutateDuringQuery hammers the cursor re-arm path: the coordinator
// releases the lock between ladder rounds, so Adds land mid-query
// and the per-tree cursors must detect the mutation and re-arm instead of
// silently missing the appended points. Run under -race this doubles as
// the memory-safety net for cursors pinning tree snapshots across rounds.
// The queries start once the writer's first Add is acknowledged, so every
// run interleaves them with the writes that follow.
func TestMutateDuringQuery(t *testing.T) {
	const dim = 8
	rng := rand.New(rand.NewSource(31))
	n := 4000
	flat := make([]float32, n*dim)
	for i := range flat {
		flat[i] = float32(rng.NormFloat64() * 5)
	}
	s := Build(flat, n, dim, 1, 0, core.Config{C: 1.5, K: 4, L: 3, T: 20, Seed: 31})

	stop, started := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: a steady stream of appends
		defer wg.Done()
		wrng := rand.New(rand.NewSource(77))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			v := make([]float32, dim)
			for j := range v {
				v[j] = float32(wrng.NormFloat64() * 5)
			}
			s.Add(v)
			if i == 0 {
				close(started)
			}
		}
	}()
	<-started

	var qwg sync.WaitGroup
	for w := 0; w < 4; w++ {
		qwg.Add(1)
		go func(worker int) {
			defer qwg.Done()
			qrng := rand.New(rand.NewSource(int64(worker)))
			sr := s.NewSearcher()
			for it := 0; it < 150; it++ {
				q := make([]float32, dim)
				for j := range q {
					q[j] = float32(qrng.NormFloat64() * 5)
				}
				nbs, err := sr.Search(q, 10, core.QueryParams{})
				if err != nil {
					t.Errorf("worker %d: search error: %v", worker, err)
					return
				}
				if len(nbs) == 0 {
					t.Errorf("worker %d: empty result on a populated index", worker)
					return
				}
				bound := s.NextID()
				prev := -1.0
				for _, nb := range nbs {
					if nb.ID < 0 || nb.ID >= bound {
						t.Errorf("worker %d: id %d outside allocated id space [0,%d)", worker, nb.ID, bound)
						return
					}
					if nb.Dist < prev {
						t.Errorf("worker %d: results not sorted", worker)
						return
					}
					prev = nb.Dist
				}
			}
		}(w)
	}
	qwg.Wait()
	close(stop)
	wg.Wait()
}

// TestMidQueryAddIsFindable pins the observable contract the re-arm
// exists for: a vector added while queries are in flight is returned by a
// subsequent search through the same (already-armed) searcher.
func TestMidQueryAddIsFindable(t *testing.T) {
	const dim = 6
	rng := rand.New(rand.NewSource(8))
	n := 1000
	flat := make([]float32, n*dim)
	for i := range flat {
		flat[i] = float32(rng.NormFloat64() * 20)
	}
	s := Build(flat, n, dim, 1, 0, core.Config{C: 1.5, K: 4, L: 2, T: 20, Seed: 8})
	sr := s.NewSearcher()

	q := make([]float32, dim)
	if _, err := sr.Search(q, 5, core.QueryParams{}); err != nil {
		t.Fatal(err)
	}
	// The searcher's cursors are now armed against the pre-Add trees.
	id := s.Add(make([]float32, dim)) // exact match for q
	nbs, err := sr.Search(q, 5, core.QueryParams{})
	if err != nil {
		t.Fatal(err)
	}
	if len(nbs) == 0 || nbs[0].ID != id || nbs[0].Dist != 0 {
		t.Fatalf("added vector not found first: got %+v, want id %d at distance 0", nbs, id)
	}
}

// TestParallelEquivalenceUnderCompaction races queries against compactions
// that swap the index between — and during — their ladder rounds, while a
// deleter feeds the compactor tombstones and a writer adds rows. (The name
// is from when it also drove the per-round fan-out.) Every answer must be
// sorted and name no id twice: a swapped index re-emits rows the query
// already verified, and the swap dedup has to absorb them. Every other query is asked under a
// filter that passes fewer than k rows, none of which the mutators touch, so
// its ladder runs to the covering sweep and its answer is exact: it must be
// the answer the quiescent set gave, to the bit, whichever index each round
// happened to run on. Once the mutators are done, every id must still be
// found by its global id: the compactions renumbered the local ones while
// the adds went on.
func TestParallelEquivalenceUnderCompaction(t *testing.T) {
	const n, d, k = 2000, 8, 60
	flat, queries := corpus(n, d, 131)
	s := Build(flat, n, d, 1, 0, core.Config{K: 4, L: 2, T: 20, Seed: 131})
	// Odd ids below n: the deleter takes even ids, the writer adds above n.
	sparse := core.QueryParams{Filter: func(g int) bool { return g < n && g%50 == 3 }}
	quiescent := make([][]vec.Neighbor, len(queries))
	for i, q := range queries {
		nbs, _, err := search(s, q, k, sparse)
		if err != nil || len(nbs) != n/50 {
			t.Fatalf("quiescent query %d: %d results, err %v", i, len(nbs), err)
		}
		quiescent[i] = nbs
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 64)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sr := s.NewSearcher()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				qi := (i + w) % len(queries)
				p, want := core.QueryParams{}, []vec.Neighbor(nil)
				if i%2 == 1 {
					p, want = sparse, quiescent[qi]
				}
				nbs, err := sr.Search(queries[qi], k, p)
				if err != nil {
					errs <- err
					return
				}
				seen := map[int]bool{}
				for j, nb := range nbs {
					if j > 0 && nb.Dist < nbs[j-1].Dist {
						errs <- fmt.Errorf("results not sorted at rank %d", j)
						return
					}
					if seen[nb.ID] {
						errs <- fmt.Errorf("duplicate id %d", nb.ID)
						return
					}
					seen[nb.ID] = true
					if want != nil && (j >= len(want) || nb != want[j]) {
						errs <- fmt.Errorf("query %d rank %d: %+v, the quiescent set answered %+v", qi, j, nb, want)
						return
					}
				}
				if want != nil && len(nbs) != len(want) {
					errs <- fmt.Errorf("query %d: %d results, the quiescent set gave %d", qi, len(nbs), len(want))
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() { // deleter feeding the compactor tombstones
		defer wg.Done()
		for g := 0; g < n; g += 2 {
			s.Delete(g)
		}
	}()
	wg.Add(1)
	go func() { // compactor swapping indexes under the queries
		defer wg.Done()
		for i := 0; i < 24; i++ {
			s.Compact()
		}
	}()
	wg.Add(1)
	added := make([][]float32, 300)
	go func() { // writer adding rows mid-flight
		defer wg.Done()
		rng := rand.New(rand.NewSource(11))
		for i := range added {
			v := make([]float32, d)
			for j := range v {
				v[j] = float32(rng.NormFloat64())
			}
			if g := s.Add(v); g != n+i {
				errs <- fmt.Errorf("add %d got id %d", i, g)
				return
			}
			added[i] = v
		}
	}()

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	time.Sleep(300 * time.Millisecond)
	close(stop)
	<-done
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	s.Compact()
	for g := 0; g < n+len(added); g++ {
		if live := s.Live(g); live != (g >= n || g%2 == 1) {
			t.Fatalf("id %d: live = %v after the compactions", g, live)
		}
	}
	for i, v := range added {
		nbs, _, err := search(s, v, 1, core.QueryParams{})
		if err != nil || len(nbs) != 1 || nbs[0].ID != n+i || nbs[0].Dist != 0 {
			t.Fatalf("added row %d (id %d) not found at its id: %v %v", i, n+i, nbs, err)
		}
	}
}

// pollHookCtx is a context double that never expires. Its Done runs hook on
// poll number at: the round driver polls once before the query and once
// before each round, with no lock held, so poll 3 falls between
// rounds 1 and 2.
type pollHookCtx struct {
	polls, at int
	hook      func()
}

func (c *pollHookCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *pollHookCtx) Err() error                  { return nil }
func (c *pollHookCtx) Value(any) any               { return nil }
func (c *pollHookCtx) Done() <-chan struct{} {
	if c.polls++; c.polls == c.at {
		c.hook()
	}
	return nil
}

// returnsWithin runs f on another goroutine and reports whether it returned
// within a second.
func returnsWithin(f func()) bool {
	done := make(chan struct{})
	go func() {
		f()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(time.Second):
		return false
	}
}

// TestSearchReleasesLocksBetweenRounds pins the per-round locking: a query
// paused between two rounds holds no lock, so an Add issued in the pause
// returns before the next round, and that round re-arms the cursors of the
// trees the Add grew.
func TestSearchReleasesLocksBetweenRounds(t *testing.T) {
	s, _, queries := buildSet(1200, 8, 141)
	sr := s.NewSearcher()
	added := false
	ctx := &pollHookCtx{at: 3, hook: func() {
		added = returnsWithin(func() { s.Add(queries[0]) })
	}}
	// Fewer than k rows pass: the ladder runs on to the covering sweep.
	p := core.QueryParams{Ctx: ctx, Filter: func(g int) bool { return g%100 == 1 }}
	if _, err := sr.Search(queries[1], 20, p); err != nil {
		t.Fatal(err)
	}
	if rounds := sr.LastStats().Rounds; rounds < 2 {
		t.Fatalf("the query ran %d round(s); the test needs a pause between two", rounds)
	}
	if !added {
		t.Fatal("an Add issued between rounds 1 and 2 did not return within 1 s")
	}
	if sr.cs.CursorReArms() == 0 {
		t.Fatal("the round after the Add re-armed no cursor")
	}
}

// TestCompactionSwapMidQuery swaps the index between rounds 1 and 2 of a
// query. The searcher of the new index restarts from its roots and meets
// again rows the discarded searcher had verified; the swap dedup has to
// keep them out. The query passes fewer than k rows through its filter, so
// its answer is exact: it must be the quiescent answer to the bit, name no
// id twice, and count as candidates exactly the distinct rows it verified —
// every row it returns.
func TestCompactionSwapMidQuery(t *testing.T) {
	const n, d, k = 1500, 8, 40
	keep := func(g int) bool { return g%50 == 7 } // 30 rows, 20 of them live
	flat, _ := corpus(n, d, 151)
	s := Build(flat, n, d, 1, 0, core.Config{K: 4, L: 2, T: 20, Seed: 151})
	for g := 0; g < n; g += 3 {
		s.Delete(g)
	}
	q := flat[7*d : 8*d] // row 7 passes: round 1 verifies it at distance 0
	want, _, err := search(s, q, k, core.QueryParams{Filter: keep})
	if err != nil || len(want) != 20 {
		t.Fatalf("quiescent query: %d results, err %v", len(want), err)
	}

	sr := s.NewSearcher()
	compacted := false
	ctx := &pollHookCtx{at: 3, hook: func() {
		compacted = returnsWithin(func() { s.Compact() })
	}}
	got, err := sr.Search(q, k, core.QueryParams{Filter: keep, Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if !compacted || s.Deleted() != 0 {
		t.Fatalf("the compaction between rounds 1 and 2 did not finish (%d tombstones left)", s.Deleted())
	}
	seen := map[int]bool{}
	for _, nb := range got {
		if seen[nb.ID] {
			t.Fatalf("id %d returned twice: %+v", nb.ID, got)
		}
		seen[nb.ID] = true
	}
	if !slices.Equal(got, want) {
		t.Fatalf("answered %+v, the quiescent set answered %+v", got, want)
	}
	if c := sr.LastStats().Candidates; c != len(got) {
		t.Fatalf("%d candidates verified for %d distinct rows", c, len(got))
	}
}
