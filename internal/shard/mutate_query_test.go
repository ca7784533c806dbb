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

// TestMutateDuringQuery races queries against a steady stream of Adds. A
// query holds the read lock from its first round to its last, so each one
// runs on one state of the index while the Adds land between queries; every
// answer must be non-empty, sorted and name only allocated ids. Run under
// -race this is the memory-safety net for cursors that keep their place in
// the trees across rounds while a writer waits. The queries start once the
// writer's first Add is acknowledged, so every run interleaves them with
// the writes that follow.
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

// TestMidQueryAddIsFindable pins that a searcher carries nothing stale from
// one query to the next: a vector added after a search is returned by the
// next search through the same searcher, whose cursors and visited stamps
// were sized for the index before the Add.
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
// that swap the index between them, while a deleter feeds the compactor
// tombstones and a writer adds rows. (The name is from when it also drove
// the per-round fan-out.) Every answer must be sorted and name no id twice.
// Every other query is asked under a filter that passes fewer than k rows,
// none of which the mutators touch, so its ladder runs to the covering
// sweep and its answer is exact: it must be the answer the quiescent set
// gave, to the bit, whichever index the query happened to run on. Once the
// mutators are done, every id must still be found by its global id: the
// compactions renumbered the local ones while the adds went on.
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
// before each round, under the read lock the query holds throughout, so
// poll 3 falls between rounds 1 and 2.
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

// goDone runs f on another goroutine and returns a channel closed once f
// returns.
func goDone(f func()) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	return done
}

// closedWithin reports whether done is closed within d.
func closedWithin(done <-chan struct{}, d time.Duration) bool {
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}

// TestMutationWaitsForQuery pins the read lock's span: a query holds it
// from its first round to its last, so an Add issued between rounds 1 and 2
// is still waiting 50 ms later, returns once the query has ended, and the
// query answers as the quiescent set did.
func TestMutationWaitsForQuery(t *testing.T) {
	const k = 20
	s, _, queries := buildSet(1200, 8, 141)
	// Fewer than k rows pass, and the added row (id 1200) is not one of
	// them: the ladder runs on to the covering sweep, and its answer is
	// exact.
	p := core.QueryParams{Filter: func(g int) bool { return g%100 == 1 }}
	want, _, err := search(s, queries[1], k, p)
	if err != nil || len(want) != 12 {
		t.Fatalf("quiescent query: %d results, err %v", len(want), err)
	}

	sr := s.NewSearcher()
	var added <-chan struct{}
	early := false
	p.Ctx = &pollHookCtx{at: 3, hook: func() {
		added = goDone(func() { s.Add(queries[0]) })
		early = closedWithin(added, 50*time.Millisecond)
	}}
	got, err := sr.Search(queries[1], k, p)
	if err != nil {
		t.Fatal(err)
	}
	if rounds := sr.LastStats().Rounds; rounds < 2 {
		t.Fatalf("the query ran %d round(s); the test needs a pause between two", rounds)
	}
	if early {
		t.Fatal("an Add issued between rounds 1 and 2 returned before the query ended")
	}
	if !closedWithin(added, 5*time.Second) {
		t.Fatal("the Add did not return once the query had ended")
	}
	if !slices.Equal(got, want) {
		t.Fatalf("answered %+v, the quiescent set answered %+v", got, want)
	}
	if s.Len() != 1201 {
		t.Fatalf("%d rows resident after the Add, want 1201", s.Len())
	}
}

// TestCompactionWaitsForQuery starts a compaction between rounds 1 and 2 of
// a query. The rebuild may run beside the query, but its swap takes the
// write lock, so it is still waiting 50 ms later and lands once the query
// has ended. The query passes fewer than k rows through its filter, so its
// answer is exact: it must be the quiescent answer to the bit, name no id
// twice, and count as candidates exactly the rows it returns.
func TestCompactionWaitsForQuery(t *testing.T) {
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
	var compacted <-chan struct{}
	early := false
	ctx := &pollHookCtx{at: 3, hook: func() {
		compacted = goDone(func() { s.Compact() })
		early = closedWithin(compacted, 50*time.Millisecond)
	}}
	got, err := sr.Search(q, k, core.QueryParams{Filter: keep, Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if compacted == nil {
		t.Fatalf("the query ran %d round(s); the test needs a pause between two", sr.LastStats().Rounds)
	}
	if early {
		t.Fatal("a compaction started between rounds 1 and 2 swapped before the query ended")
	}
	if !closedWithin(compacted, 5*time.Second) || s.Deleted() != 0 {
		t.Fatalf("the compaction did not finish once the query had ended (%d tombstones left)", s.Deleted())
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
