package shard

import (
	"math/rand"
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

func buildSet(n, d, shards int, seed int64) (*Set, []float32, [][]float32) {
	flat, queries := corpus(n, d, seed)
	s := Build(flat, n, d, shards, 0, core.Config{K: 6, L: 3, T: 40, Seed: seed})
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

func TestStripedBuildRoutesIDs(t *testing.T) {
	const n, d, S = 900, 12, 4
	s, flat, _ := buildSet(n, d, S, 7)
	if s.Shards() != S || s.Len() != n || s.NextID() != n || s.Dim() != d {
		t.Fatalf("set shape: shards=%d len=%d next=%d dim=%d",
			s.Shards(), s.Len(), s.NextID(), s.Dim())
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
	const n, d, S = 300, 8, 3
	s, _, _ := buildSet(n, d, S, 8)
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
	if !s.Delete(id) {
		t.Fatal("Delete of fresh id failed")
	}
	if s.Delete(id) {
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

// TestShardMergeMatchesSingleShard is the merge-correctness check: the same
// corpus indexed with 1 and with 5 shards must agree on exact self-hits and
// reach comparable recall against brute-force truth.
func TestShardMergeMatchesSingleShard(t *testing.T) {
	const n, d, k = 4000, 24, 10
	flat, queries := corpus(n, d, 21)
	cfg := core.Config{K: 8, L: 4, T: 100, Seed: 21}
	single := Build(flat, n, d, 1, 0, cfg)
	sharded := Build(flat, n, d, 5, 0, cfg)

	recall := func(s *Set) float64 {
		total := 0.0
		for _, q := range queries {
			truth := map[int]bool{}
			for _, id := range bruteNN(flat, n, d, q, k, nil) {
				truth[id] = true
			}
			nbs, _, err := search(s, q, k, core.QueryParams{})
			if err != nil {
				t.Fatal(err)
			}
			if len(nbs) != k {
				t.Fatalf("%d results, want %d", len(nbs), k)
			}
			for i := 1; i < len(nbs); i++ {
				if nbs[i].Dist < nbs[i-1].Dist {
					t.Fatal("merged results not sorted")
				}
			}
			hit := 0
			for _, nb := range nbs {
				if truth[nb.ID] {
					hit++
				}
			}
			total += float64(hit) / float64(k)
		}
		return total / float64(len(queries))
	}

	rs, rm := recall(single), recall(sharded)
	if rm < rs-0.1 || rm < 0.8 {
		t.Fatalf("sharded recall %v too far below single-shard %v", rm, rs)
	}
	// Exact self-hits must agree bit-for-bit across layouts.
	for g := 0; g < n; g += 251 {
		q := flat[g*d : (g+1)*d]
		a, _, _ := search(single, q, 1, core.QueryParams{})
		b, _, _ := search(sharded, q, 1, core.QueryParams{})
		if len(a) != 1 || len(b) != 1 || a[0].ID != b[0].ID || a[0].Dist != 0 || b[0].Dist != 0 {
			t.Fatalf("self-hit %d diverges: %+v vs %+v", g, a, b)
		}
	}
}

func TestSearchBatchMatchesSingleQueries(t *testing.T) {
	const n, d, k = 2000, 16, 5
	s, _, queries := buildSet(n, d, 4, 31)
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

func TestGlobalFilterAcrossShards(t *testing.T) {
	const n, d = 1000, 8
	s, flat, _ := buildSet(n, d, 4, 41)
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
		if nb.ID%2 != 1 {
			t.Fatalf("filter leaked global id %d", nb.ID)
		}
	}
}

func TestCompactShardPreservesIDs(t *testing.T) {
	const n, d, S = 1200, 12, 3
	s, flat, _ := buildSet(n, d, S, 51)
	// Tombstone every id ≡ 0 (mod 6); they all route to shards 0..2.
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

func TestCompactEmptiedShard(t *testing.T) {
	const n, d, S = 90, 6, 3
	s, _, _ := buildSet(n, d, S, 61)
	// Kill every vector of shard 1 (ids ≡ 1 mod 3), then compact it empty.
	for g := 1; g < n; g += 3 {
		if !s.Delete(g) {
			t.Fatalf("Delete(%d) failed", g)
		}
	}
	if got := s.CompactShard(1); got != n/3 {
		t.Fatalf("reclaimed %d, want %d", got, n/3)
	}
	if s.Len() != n-n/3 {
		t.Fatalf("Len = %d", s.Len())
	}
	// Searches and adds keep working; the next id that routes to the
	// emptied shard must be findable there. Filler vectors are distinct so
	// the final self-query has a unique zero-distance answer.
	var id int
	var v []float32
	for i := 0; ; i++ {
		v = make([]float32, d)
		v[0] = 77 + float32(i)
		id = s.Add(v)
		if id%S == 1 {
			break
		}
	}
	nbs, _, _ := search(s, v, 1, core.QueryParams{})
	if len(nbs) != 1 || nbs[0].ID != id || nbs[0].Dist != 0 {
		t.Fatalf("vector added to emptied shard not found: %+v", nbs)
	}
}

func TestAutoCompaction(t *testing.T) {
	const n, d, S = 1200, 8, 2
	flat, _ := corpus(n, d, 71)
	s := Build(flat, n, d, S, 0.4, core.Config{K: 4, L: 2, T: 20, Seed: 71})
	// Delete 50% of shard 0's rows: crosses the 0.4 threshold.
	for g := 0; g < n; g += 4 {
		s.Delete(g)
	}
	// The policy's guarantee is that a background rebuild runs and drives
	// the shard's tombstoned fraction back below the threshold — not that
	// it reaches zero: a compaction whose snapshot raced the tail of the
	// delete loop legitimately replays those tombstones onto the fresh
	// index, and the leftovers sit below the threshold for good.
	deadline := time.Now().Add(10 * time.Second)
	for {
		infos := s.Infos()
		if infos[0].Compactions > 0 && !infos[0].LastCompaction.IsZero() &&
			float64(infos[0].Deleted) < 0.4*float64(infos[0].Size) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("auto-compaction never ran; %d tombstones left", s.Deleted())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if infos := s.Infos(); infos[1].Compactions != 0 {
		t.Fatalf("untouched shard 1 compacted: %+v", infos[1])
	}
	// A manual pass reclaims whatever raced the background rebuild.
	s.Compact()
	if got := s.Deleted(); got != 0 {
		t.Fatalf("tombstones after manual compaction: %d", got)
	}
}

// TestAddsScheduleRepacks pins the repack policy: with auto-compaction off,
// adds that fill a shard's tail past half its capacity schedule background
// rebuilds that drive it back below half, without a tombstone in sight;
// ids survive the rebuilds, and
// every added row is found at distance 0. A manual Compact then leaves no
// row unpacked, and every repack, background or inline, is counted and
// timed in the compaction metrics.
func TestAddsScheduleRepacks(t *testing.T) {
	const n, d, S, added = 400, 8, 2, 3000
	flat, _ := corpus(n+added, d, 73)
	s := Build(flat[:n*d], n, d, S, 0, core.Config{K: 4, L: 2, T: 20, Seed: 73})
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
		owed := false
		for _, in := range s.Infos() {
			owed = owed || 2*in.Unpacked >= s.tailCap || in.Compactions == 0
		}
		if !owed && !s.shards[0].compacting.Load() && !s.shards[1].compacting.Load() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("repacks never caught up: %+v", s.Infos())
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
	// A replayed burst schedules nothing, so a shard's tail fills and the
	// add that finds it full repacks inline; that repack is observed too.
	recs := make([]wal.Record, s.tailCap+1)
	for j := range recs {
		recs[j] = wal.Record{Op: wal.OpAdd, ID: uint64(s.NextID() + S*j), Row: flat[:d]}
	}
	s.Replay(recs)
	if got := m.CompactionRuns.Value(); got != runs+1 || m.CompactionSeconds.Count() != uint64(got) {
		t.Fatalf("after an inline repack: %d repacks counted, %d timed, want %d", got, m.CompactionSeconds.Count(), runs+1)
	}
}

func TestSnapshotCoversAllShards(t *testing.T) {
	const n, d, S = 600, 8, 3
	s, _, _ := buildSet(n, d, S, 81)
	s.Delete(5)
	rows, dead := 0, 0
	for i := 0; i < S; i++ {
		p := s.SnapshotShard(i)
		rows += p.Rows
		if len(p.Globals) != p.Rows || len(p.Flat) != p.Rows*d {
			t.Fatalf("shard %d: globals/flat/rows mismatch: %d/%d/%d",
				i, len(p.Globals), len(p.Flat), p.Rows)
		}
		if p.R0 <= 0 {
			t.Fatalf("non-positive r0 %v", p.R0)
		}
		for _, b := range p.Deleted {
			if b {
				dead++
			}
		}
	}
	if rows != n || dead != 1 {
		t.Fatalf("snapshots cover %d rows (%d dead), want %d (1 dead)", rows, dead, n)
	}
	// No id-space cut: a row added after the caller read NextID is in its
	// shard's part, with the trees that index it.
	bound := s.NextID()
	g := s.Add(make([]float32, d))
	p := s.SnapshotShard(g % S)
	if g < bound || p.Globals[p.Rows-1] != g || len(p.Trees) != s.Params().L {
		t.Fatalf("part after adding id %d (bound was %d): last id %d of %d rows, %d trees",
			g, bound, p.Globals[p.Rows-1], p.Rows, len(p.Trees))
	}
}

func TestRestoreRoundTrip(t *testing.T) {
	const n, d, S = 800, 10, 3
	s, flat, queries := buildSet(n, d, S, 91)
	s.Delete(10)
	s.Delete(11)
	s.CompactShard(10 % S) // id 10's shard loses its tombstone

	nextID := s.NextID()
	parts := make([]Part, S)
	for i := 0; i < S; i++ {
		parts[i] = s.SnapshotShard(i)
	}

	r, err := Restore(d, nextID, 0, s.Params(), parts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != s.Len() || r.Deleted() != s.Deleted() || r.NextID() != s.NextID() {
		t.Fatalf("restored shape len=%d del=%d next=%d, want len=%d del=%d next=%d",
			r.Len(), r.Deleted(), r.NextID(), s.Len(), s.Deleted(), s.NextID())
	}
	// Identical answers: the restored set loads the same trees, seeds and
	// per-shard radii.
	for _, q := range queries {
		a, _, _ := search(s, q, 5, core.QueryParams{})
		b, _, _ := search(r, q, 5, core.QueryParams{})
		if len(a) != len(b) {
			t.Fatalf("result counts diverge: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("restored set diverges at rank %d: %+v vs %+v", i, a[i], b[i])
			}
		}
	}
	// Tombstone 11 survived the round-trip.
	q := flat[11*d : 12*d]
	nbs, _, _ := search(r, q, 1, core.QueryParams{})
	if len(nbs) == 1 && nbs[0].ID == 11 {
		t.Fatal("tombstone resurrected by Restore")
	}
}

// TestConcurrentMutationsAndSearches is the shard-lock regression net: it
// must pass under -race.
func TestConcurrentMutationsAndSearches(t *testing.T) {
	const n, d, S = 2000, 8, 4
	flat, queries := corpus(n, d, 101)
	s := Build(flat, n, d, S, 0.45, core.Config{K: 4, L: 2, T: 20, Seed: 101})

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

func TestMathSanity(t *testing.T) {
	// Guard the stripe arithmetic the lazy reverse map relies on.
	for _, S := range []int{1, 2, 3, 5, 8} {
		for n := 0; n < 40; n++ {
			counts := make([]int, S)
			for g := 0; g < n; g++ {
				sh := g % S
				local := g / S
				if counts[sh] != local {
					t.Fatalf("S=%d n=%d: id %d expects local %d, shard has %d rows",
						S, n, g, local, counts[sh])
				}
				counts[sh]++
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
