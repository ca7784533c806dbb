package shard

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"dblsh/internal/core"
	"dblsh/internal/obs"
	"dblsh/internal/vec"
	"dblsh/internal/wal"
)

// search answers one (c,k)-ANN query on a fresh Searcher of s.
func search(s *Set, q []float32, k int, p core.QueryParams) ([]vec.Neighbor, core.Stats, error) {
	sr := s.NewSearcher()
	nbs, err := sr.Search(q, k, p)
	return nbs, sr.LastStats(), err
}

// corpus generates clustered data as a flat row-major slice plus queries.
func corpus(n, d int, seed int64) ([]float32, [][]float32) {
	rng := rand.New(rand.NewSource(seed))
	const clusters = 16
	centers := make([][]float32, clusters)
	for i := range centers {
		c := make([]float32, d)
		for j := range c {
			c[j] = float32(rng.NormFloat64() * 10)
		}
		centers[i] = c
	}
	flat := make([]float32, n*d)
	for i := 0; i < n; i++ {
		c := centers[rng.Intn(clusters)]
		for j := 0; j < d; j++ {
			flat[i*d+j] = c[j] + float32(rng.NormFloat64())
		}
	}
	queries := make([][]float32, 10)
	for qi := range queries {
		c := centers[rng.Intn(clusters)]
		q := make([]float32, d)
		for j := range q {
			q[j] = c[j] + float32(rng.NormFloat64())
		}
		queries[qi] = q
	}
	return flat, queries
}

func buildSet(n, d int, seed int64) (*Set, []float32, [][]float32) {
	flat, queries := corpus(n, d, seed)
	s := Build(flat, n, d, 1, 0, core.Config{K: 6, L: 3, T: 40, Seed: seed})
	return s, flat, queries
}

func bruteNN(flat []float32, n, d int, q []float32, k int, skip func(int) bool) []int {
	type pair struct {
		id int
		dd float64
	}
	best := make([]pair, 0, n)
	for i := 0; i < n; i++ {
		if skip != nil && skip(i) {
			continue
		}
		var s float64
		for j := 0; j < d; j++ {
			dd := float64(q[j]) - float64(flat[i*d+j])
			s += dd * dd
		}
		best = append(best, pair{i, s})
	}
	for i := 0; i < k && i < len(best); i++ {
		minJ := i
		for j := i + 1; j < len(best); j++ {
			if best[j].dd < best[minJ].dd {
				minJ = j
			}
		}
		best[i], best[minJ] = best[minJ], best[i]
	}
	ids := make([]int, 0, k)
	for i := 0; i < k && i < len(best); i++ {
		ids = append(ids, best[i].id)
	}
	return ids
}

// TestStripedBuildRoutesIDs: a Build asked for stripes builds the one
// index over the rows in order, so row g comes back under global id g.
func TestStripedBuildRoutesIDs(t *testing.T) {
	const n, d = 900, 12
	flat, _ := corpus(n, d, 7)
	s := Build(flat, n, d, 4, 0, core.Config{K: 6, L: 3, T: 40, Seed: 7})
	if s.Len() != n || s.NextID() != n || s.Dim() != d {
		t.Fatalf("set shape: len=%d next=%d dim=%d", s.Len(), s.NextID(), s.Dim())
	}
	// Every original row must come back under its global id on self-query.
	for _, g := range []int{0, 1, 2, 3, 5, 123, 877, n - 1} {
		q := flat[g*d : (g+1)*d]
		nbs, _, err := search(s, q, 1, core.QueryParams{})
		if err != nil || len(nbs) != 1 {
			t.Fatalf("self-query %d: %v %v", g, nbs, err)
		}
		if nbs[0].ID != g || nbs[0].Dist != 0 {
			t.Fatalf("self-query %d returned %+v", g, nbs[0])
		}
	}
}

func TestAddDeleteRouting(t *testing.T) {
	const n, d = 300, 8
	s, _, _ := buildSet(n, d, 8)
	v := make([]float32, d)
	for j := range v {
		v[j] = 500
	}
	id := s.Add(v)
	if id != n {
		t.Fatalf("Add returned %d, want %d", id, n)
	}
	nbs, _, _ := search(s, v, 1, core.QueryParams{})
	if len(nbs) != 1 || nbs[0].ID != id || nbs[0].Dist != 0 {
		t.Fatalf("added vector not found: %+v", nbs)
	}
	if !s.Live(id) || !s.Delete(id) {
		t.Fatal("Delete of fresh id failed")
	}
	if s.Live(id) || s.Delete(id) {
		t.Fatal("double Delete succeeded")
	}
	if s.Delete(-1) || s.Delete(s.NextID()) {
		t.Fatal("out-of-range Delete succeeded")
	}
	if s.Deleted() != 1 {
		t.Fatalf("Deleted = %d", s.Deleted())
	}
	nbs, _, _ = search(s, v, 1, core.QueryParams{})
	if len(nbs) == 1 && nbs[0].ID == id {
		t.Fatal("deleted vector still returned")
	}
}

// TestShardMergeMatchesSingleShard: the stripe count Build takes is
// ignored, so a set asked for 5 stripes answers every query exactly as one
// asked for 1 — ids, distance bits and statistics, node counts included.
func TestShardMergeMatchesSingleShard(t *testing.T) {
	const n, d, k = 4000, 24, 10
	flat, queries := corpus(n, d, 21)
	cfg := core.Config{K: 8, L: 4, T: 100, Seed: 21}
	single := Build(flat, n, d, 1, 0, cfg)
	striped := Build(flat, n, d, 5, 0, cfg)
	for qi, q := range queries {
		a, as, err := search(single, q, k, core.QueryParams{})
		if err != nil {
			t.Fatal(err)
		}
		b, bs, err := search(striped, q, k, core.QueryParams{})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(a, b) || as != bs {
			t.Fatalf("query %d: 5 stripes answer %v %+v, 1 stripe %v %+v", qi, b, bs, a, as)
		}
	}
}

func TestSearchBatchMatchesSingleQueries(t *testing.T) {
	const n, d, k = 2000, 16, 5
	s, _, queries := buildSet(n, d, 31)
	batch, stats, err := s.SearchBatch(queries, k, core.QueryParams{})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		one, _, err := search(s, q, k, core.QueryParams{})
		if err != nil {
			t.Fatal(err)
		}
		if len(batch[i]) != len(one) {
			t.Fatalf("query %d: batch %d vs single %d results", i, len(batch[i]), len(one))
		}
		for j := range one {
			if one[j] != batch[i][j] {
				t.Fatalf("query %d rank %d: %+v vs %+v", i, j, one[j], batch[i][j])
			}
		}
		if stats[i].Candidates == 0 {
			t.Fatalf("query %d: empty stats", i)
		}
	}
}

// TestGlobalFilterAcrossShards: a filter sees global ids, also once a
// compaction has renumbered the local ones.
func TestGlobalFilterAcrossShards(t *testing.T) {
	const n, d = 1000, 8
	s, flat, _ := buildSet(n, d, 41)
	for g := 0; g < n; g += 5 {
		s.Delete(g)
	}
	s.Compact()
	q := flat[:d]
	p := core.QueryParams{Filter: func(g int) bool { return g%2 == 1 }}
	nbs, _, err := search(s, q, 20, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(nbs) == 0 {
		t.Fatal("filtered search found nothing")
	}
	for _, nb := range nbs {
		if nb.ID%2 != 1 || nb.ID%5 == 0 {
			t.Fatalf("filter leaked global id %d", nb.ID)
		}
		if nb.Dist != vec.Dist(q, flat[nb.ID*d:(nb.ID+1)*d]) {
			t.Fatalf("id %d came back at %v, not its row's distance", nb.ID, nb.Dist)
		}
	}
}

func TestCompactShardPreservesIDs(t *testing.T) {
	const n, d = 1200, 12
	s, flat, _ := buildSet(n, d, 51)
	// Tombstone every id ≡ 0 (mod 6).
	var dead []int
	for g := 0; g < n; g += 6 {
		if !s.Delete(g) {
			t.Fatalf("Delete(%d) failed", g)
		}
		dead = append(dead, g)
	}
	before := s.Len()
	reclaimed := s.Compact()
	if reclaimed != len(dead) {
		t.Fatalf("Compact reclaimed %d, want %d", reclaimed, len(dead))
	}
	if s.Deleted() != 0 {
		t.Fatalf("Deleted = %d after compaction", s.Deleted())
	}
	if got := s.Len(); got != before-len(dead) {
		t.Fatalf("Len = %d after compaction, want %d", got, before-len(dead))
	}
	if s.NextID() != n {
		t.Fatalf("NextID changed to %d", s.NextID())
	}
	// Survivors keep their global ids; the dead stay dead.
	for _, g := range []int{1, 7, 55, 1199} {
		q := flat[g*d : (g+1)*d]
		nbs, _, _ := search(s, q, 1, core.QueryParams{})
		if len(nbs) != 1 || nbs[0].ID != g || nbs[0].Dist != 0 {
			t.Fatalf("survivor %d lost after compaction: %+v", g, nbs)
		}
	}
	for _, g := range dead[:5] {
		if s.Delete(g) {
			t.Fatalf("compacted-away id %d deletable again", g)
		}
		q := flat[g*d : (g+1)*d]
		nbs, _, _ := search(s, q, 1, core.QueryParams{})
		if len(nbs) == 1 && nbs[0].ID == g {
			t.Fatalf("compacted-away id %d still returned", g)
		}
	}
	// New ids continue after the old id space.
	v := make([]float32, d)
	if id := s.Add(v); id != n {
		t.Fatalf("post-compaction Add returned %d, want %d", id, n)
	}
}

// TestCompactEmptiedShard: an index compacted down to no rows keeps its id
// space, and serves the rows added after.
func TestCompactEmptiedShard(t *testing.T) {
	const n, d = 90, 6
	s, _, _ := buildSet(n, d, 61)
	for g := 0; g < n; g++ {
		if !s.Delete(g) {
			t.Fatalf("Delete(%d) failed", g)
		}
	}
	if got := s.Compact(); got != n {
		t.Fatalf("reclaimed %d, want %d", got, n)
	}
	if s.Len() != 0 || s.NextID() != n {
		t.Fatalf("Len = %d, NextID = %d", s.Len(), s.NextID())
	}
	// Searches and adds keep working. The added vectors lie far apart, so
	// only the last one is within c·r of the final self-query.
	var id int
	var v []float32
	for i := 0; i < 3; i++ {
		v = make([]float32, d)
		v[0] = 77 + 100*float32(i)
		id = s.Add(v)
	}
	nbs, _, _ := search(s, v, 1, core.QueryParams{})
	if id != n+2 || len(nbs) != 1 || nbs[0].ID != id || nbs[0].Dist != 0 {
		t.Fatalf("vector %d added to the emptied index not found: %+v", id, nbs)
	}
}

func TestAutoCompaction(t *testing.T) {
	const n, d = 1200, 8
	flat, _ := corpus(n, d, 71)
	s := Build(flat, n, d, 1, 0.4, core.Config{K: 4, L: 2, T: 20, Seed: 71})
	// Delete 50% of the rows: crosses the 0.4 threshold.
	for g := 0; g < n; g += 2 {
		s.Delete(g)
	}
	// The policy's guarantee is that a background rebuild runs and drives
	// the tombstoned fraction back below the threshold — not that it
	// reaches zero: a compaction whose snapshot raced the tail of the
	// delete loop legitimately replays those tombstones onto the fresh
	// index, and the leftovers sit below the threshold for good.
	deadline := time.Now().Add(10 * time.Second)
	for {
		in := s.Info()
		if in.Compactions > 0 && !in.LastCompaction.IsZero() &&
			float64(in.Deleted) < 0.4*float64(in.Size) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("auto-compaction never ran; %d tombstones left", s.Deleted())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// A manual pass reclaims whatever raced the background rebuild.
	s.Compact()
	if got := s.Deleted(); got != 0 {
		t.Fatalf("tombstones after manual compaction: %d", got)
	}
}

// TestAddsScheduleRepacks pins the repack policy: with auto-compaction off,
// adds that fill the tail past half its capacity schedule background
// rebuilds that drive it back below half, without a tombstone in sight;
// ids survive the rebuilds, and
// every added row is found at distance 0. A manual Compact then leaves no
// row unpacked, and every repack, background or inline, is counted and
// timed in the compaction metrics.
func TestAddsScheduleRepacks(t *testing.T) {
	const n, d, added = 400, 8, 3000
	flat, _ := corpus(n+added, d, 73)
	s := Build(flat[:n*d], n, d, 1, 0, core.Config{K: 4, L: 2, T: 20, Seed: 73})
	reg := obs.NewRegistry()
	s.SetMetrics(Metrics{
		CompactionRuns:    reg.Counter("runs", ""),
		CompactionSeconds: reg.Histogram("seconds", "", obs.LatencyBuckets()),
	})
	for i := n; i < n+added; i++ {
		if g := s.Add(flat[i*d : (i+1)*d]); g != i {
			t.Fatalf("add %d got id %d", i, g)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		in := s.Info()
		if 2*in.Unpacked < s.tailCap && in.Compactions > 0 && !s.compacting.Load() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("repacks never caught up: %+v", in)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if s.Deleted() != 0 || s.Len() != n+added {
		t.Fatalf("%d rows, %d tombstones after the repacks", s.Len(), s.Deleted())
	}
	for g := 0; g < n+added; g += 97 {
		nbs, _, err := search(s, flat[g*d:(g+1)*d], 1, core.QueryParams{})
		if err != nil || len(nbs) == 0 || nbs[0].Dist != 0 {
			t.Fatalf("row %d: %v, %v", g, nbs, err)
		}
	}
	if s.Compact(); s.Unpacked() != 0 {
		t.Fatalf("%d rows unpacked after Compact", s.Unpacked())
	}
	m := s.metrics.Load()
	runs := m.CompactionRuns.Value()
	if runs == 0 || m.CompactionSeconds.Count() != uint64(runs) {
		t.Fatalf("%d repacks counted, %d timed", runs, m.CompactionSeconds.Count())
	}
	// A replayed burst schedules nothing, so the tail fills and the add
	// that finds it full repacks inline; that repack is observed too.
	recs := make([]wal.Record, s.tailCap+1)
	for j := range recs {
		recs[j] = wal.Record{Op: wal.OpAdd, ID: uint64(s.NextID() + j), Row: flat[:d]}
	}
	s.Replay(recs)
	if got := m.CompactionRuns.Value(); got != runs+1 || m.CompactionSeconds.Count() != uint64(got) {
		t.Fatalf("after an inline repack: %d repacks counted, %d timed, want %d", got, m.CompactionSeconds.Count(), runs+1)
	}
}

// TestCloseWaitsAndSchedulesNone: Close returns once the background repack
// in flight has finished, and no add after it schedules another — the tail
// fills towards an inline repack instead.
func TestCloseWaitsAndSchedulesNone(t *testing.T) {
	const n, d = 2000, 8
	s, flat, _ := buildSet(n, d, 161)
	half := s.tailCap / 2
	for i := 0; i < half; i++ { // the last add schedules a repack
		s.Add(flat[i*d : (i+1)*d])
	}
	s.Close()
	if in := s.Info(); s.compacting.Load() || in.Compactions != 1 || in.Unpacked != 0 {
		t.Fatalf("Close returned before the repack finished: %+v", in)
	}
	for i := 0; i < half; i++ {
		s.Add(flat[i*d : (i+1)*d])
	}
	if s.CompactOwed() || s.compacting.Load() || s.Info().Compactions != 1 || s.Unpacked() != half {
		t.Fatalf("a repack was scheduled after Close: %+v", s.Info())
	}
}

func TestSnapshotCoversAllShards(t *testing.T) {
	const n, d = 600, 8
	s, _, _ := buildSet(n, d, 81)
	s.Delete(5)
	p := s.Snapshot()
	if p.Rows != n || len(p.Globals) != n || len(p.Flat) != n*d || p.NextID != n {
		t.Fatalf("part: %d rows, %d ids, %d floats, bound %d", p.Rows, len(p.Globals), len(p.Flat), p.NextID)
	}
	if p.R0 <= 0 || len(p.Trees) != s.Params().L {
		t.Fatalf("r0 %v, %d trees", p.R0, len(p.Trees))
	}
	dead := 0
	for _, b := range p.Deleted {
		if b {
			dead++
		}
	}
	if dead != 1 || !p.Deleted[5] {
		t.Fatalf("snapshot holds %d tombstones, want id 5's", dead)
	}
	// The part is the index at one instant: a row added after it is in the
	// next part, with the bound past it and the trees that index it.
	g := s.Add(make([]float32, d))
	q := s.Snapshot()
	if q.Globals[q.Rows-1] != g || q.NextID != g+1 || len(p.Globals) != n {
		t.Fatalf("part after adding id %d: last id %d of %d rows, bound %d", g, q.Globals[q.Rows-1], q.Rows, q.NextID)
	}
}

func TestRestoreRoundTrip(t *testing.T) {
	const n, d = 800, 10
	s, flat, queries := buildSet(n, d, 91)
	s.Delete(10)
	s.Compact() // id 10's tombstone is reclaimed: local ids shift
	s.Delete(11)
	s.Add(flat[:d])

	r, err := Restore(d, 0, s.Params(), s.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != s.Len() || r.Deleted() != s.Deleted() || r.NextID() != s.NextID() {
		t.Fatalf("restored shape len=%d del=%d next=%d, want len=%d del=%d next=%d",
			r.Len(), r.Deleted(), r.NextID(), s.Len(), s.Deleted(), s.NextID())
	}
	// Identical answers: the restored set loads the same trees, seed and
	// radius.
	for _, q := range queries {
		a, as, _ := search(s, q, 5, core.QueryParams{})
		b, bs, _ := search(r, q, 5, core.QueryParams{})
		if !slices.Equal(a, b) || as != bs {
			t.Fatalf("restored set answers %v %+v, saved one %v %+v", b, bs, a, as)
		}
	}
	// Tombstone 11 survived the round-trip.
	q := flat[11*d : 12*d]
	nbs, _, _ := search(r, q, 1, core.QueryParams{})
	if len(nbs) == 1 && nbs[0].ID == 11 {
		t.Fatal("tombstone resurrected by Restore")
	}
}

// TestConcurrentMutationsAndSearches is the locking regression net: it
// must pass under -race.
func TestConcurrentMutationsAndSearches(t *testing.T) {
	const n, d = 2000, 8
	flat, queries := corpus(n, d, 101)
	s := Build(flat, n, d, 1, 0.45, core.Config{K: 4, L: 2, T: 20, Seed: 101})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 64)

	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) { // searchers
			defer wg.Done()
			sr := s.NewSearcher()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[(i+w)%len(queries)]
				nbs, err := sr.Search(q, 5, core.QueryParams{})
				if err != nil {
					errs <- err
					return
				}
				for j := 1; j < len(nbs); j++ {
					if nbs[j].Dist < nbs[j-1].Dist {
						errs <- errNotSorted
						return
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		v := make([]float32, d)
		for i := 0; i < 400; i++ {
			for j := range v {
				v[j] = float32(rng.NormFloat64())
			}
			s.Add(v)
		}
	}()
	wg.Add(1)
	go func() { // deleter
		defer wg.Done()
		for g := 0; g < 1200; g++ {
			s.Delete(g)
		}
	}()
	wg.Add(1)
	go func() { // explicit compactor racing the auto one
		defer wg.Done()
		for i := 0; i < 4; i++ {
			s.Compact()
		}
	}()

	done := make(chan struct{})
	go func() {
		// Writers, deleter and compactors finish; then stop the searchers.
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
	if got := s.NextID(); got != n+400 {
		t.Fatalf("NextID = %d, want %d", got, n+400)
	}
	// Every id the deleter removed that wasn't compacted must stay hidden.
	nbs, _, err := search(s, queries[0], 10, core.QueryParams{})
	if err != nil || len(nbs) == 0 {
		t.Fatalf("post-stress search: %v %v", nbs, err)
	}
}

var errNotSorted = errFor("results not sorted")

type errFor string

func (e errFor) Error() string { return string(e) }

// TestMathSanity guards the id lookup: over an ascending id map with holes,
// local finds every resident id at its position and nothing else.
func TestMathSanity(t *testing.T) {
	s := &Set{}
	s.mu.Lock()
	defer s.mu.Unlock()
	for n := 0; n < 40; n++ {
		s.globals = s.globals[:0]
		for g := 0; len(s.globals) < n; g += 1 + g%3 {
			s.globals = append(s.globals, g)
		}
		at := map[int]int{}
		for j, g := range s.globals {
			at[g] = j
		}
		for g := -2; g < 2*n+4; g++ {
			want, ok := at[g]
			if !ok {
				want = -1
			}
			if got := s.local(g); got != want {
				t.Fatalf("n=%d: local(%d) = %d, want %d", n, g, got, want)
			}
		}
	}
}

// mapNeighbors translates local-id results to global ids into a new slice.
func mapNeighbors(nbs []vec.Neighbor, globals []int) []vec.Neighbor {
	out := make([]vec.Neighbor, len(nbs))
	for i, nb := range nbs {
		out[i] = vec.Neighbor{ID: globals[nb.ID], Dist: nb.Dist}
	}
	return out
}
