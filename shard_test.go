package dblsh

// Public-API coverage of the sharded index: option validation, merge
// correctness against a single-shard layout, compaction, persistence of the
// shard layout and tombstones, the refusal of v1 and v2 files, and the
// concurrent Add/Delete/Search stress that must pass under -race.

import (
	"bytes"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestShardsOptionValidation(t *testing.T) {
	data, _ := clusteredData(50, 8, 11)
	if _, err := New(data, Options{Shards: -1}); err == nil {
		t.Fatal("negative Shards must error")
	}
	if _, err := New(data, Options{CompactFraction: -0.1}); err == nil {
		t.Fatal("negative CompactFraction must error")
	}
	if _, err := New(data, Options{CompactFraction: 1}); err == nil {
		t.Fatal("CompactFraction = 1 must error")
	}
	idx, err := New(data, Options{Shards: 4, CompactFraction: 0.5, K: 4, L: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if idx.Shards() != 4 {
		t.Fatalf("Shards = %d", idx.Shards())
	}
	// More shards than points: capped, never empty shards.
	small, err := New(data[:3], Options{Shards: 16, K: 4, L: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if small.Shards() != 3 {
		t.Fatalf("Shards = %d for 3 points, want 3", small.Shards())
	}
	if idxDefault, err := New(data, Options{K: 4, L: 2, Seed: 11}); err != nil || idxDefault.Shards() != 1 {
		t.Fatalf("default Shards = %d (err %v), want 1", idxDefault.Shards(), err)
	}
}

func TestShardedSearchMatchesSingleShard(t *testing.T) {
	data, queries := clusteredData(5000, 24, 12)
	k := 10
	single, err := New(data, Options{K: 8, L: 4, T: 100, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := New(data, Options{K: 8, L: 4, T: 100, Seed: 12, Shards: 6})
	if err != nil {
		t.Fatal(err)
	}
	recall := func(idx *Index) float64 {
		total := 0.0
		for _, q := range queries {
			truth := map[int]bool{}
			type pair struct {
				id int
				d  float64
			}
			best := make([]pair, len(data))
			for i, p := range data {
				best[i] = pair{i, dist(q, p)}
			}
			for i := 0; i < k; i++ {
				minJ := i
				for j := i + 1; j < len(best); j++ {
					if best[j].d < best[minJ].d {
						minJ = j
					}
				}
				best[i], best[minJ] = best[minJ], best[i]
				truth[best[i].id] = true
			}
			hits := idx.Search(q, k)
			if len(hits) != k {
				t.Fatalf("%d hits, want %d", len(hits), k)
			}
			got := 0
			for _, h := range hits {
				if truth[h.ID] {
					got++
				}
			}
			total += float64(got) / float64(k)
		}
		return total / float64(len(queries))
	}
	rs, rm := recall(single), recall(sharded)
	if rm < rs-0.1 || rm < 0.8 {
		t.Fatalf("sharded recall %v vs single-shard %v", rm, rs)
	}
	// Batch and single-query paths agree on the sharded index.
	batch := sharded.SearchBatch(queries, k)
	for i, q := range queries {
		one := sharded.Search(q, k)
		for j := range one {
			if one[j] != batch[i][j] {
				t.Fatalf("batch diverges from single at query %d rank %d", i, j)
			}
		}
	}
}

func TestShardedOptionsPushdown(t *testing.T) {
	data, queries := clusteredData(3000, 16, 13)
	idx, err := New(data, Options{K: 6, L: 3, T: 50, Seed: 13, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Global-id filter applies across every shard.
	var st Stats
	hits, err := idx.SearchOpts(queries[0], 20, WithFilter(func(id int) bool { return id%3 == 0 }), WithStats(&st))
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("filtered sharded search found nothing")
	}
	for _, h := range hits {
		if h.ID%3 != 0 {
			t.Fatalf("filter leaked id %d", h.ID)
		}
	}
	if st.Candidates == 0 || st.Rounds == 0 || st.FinalRadius == 0 {
		t.Fatalf("aggregated stats not populated: %+v", st)
	}
	// A searcher survives adds, deletes and compactions.
	s := idx.NewSearcher()
	if got := s.Search(queries[1], 5); len(got) != 5 {
		t.Fatalf("searcher got %d hits", len(got))
	}
	id, err := idx.Add(append([]float32(nil), queries[1]...))
	if err != nil {
		t.Fatal(err)
	}
	idx.Delete(0)
	if _, err := idx.CompactShard(0); err != nil {
		t.Fatal(err)
	}
	got := s.Search(queries[1], 1)
	if len(got) != 1 || got[0].ID != id || got[0].Dist != 0 {
		t.Fatalf("stale searcher after compaction: %+v", got)
	}
}

func TestCompactPublicAPI(t *testing.T) {
	data, _ := clusteredData(900, 12, 14)
	idx, err := New(data, Options{K: 6, L: 3, T: 30, Seed: 14, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 300; id++ {
		if !idx.Delete(id) {
			t.Fatalf("Delete(%d) failed", id)
		}
	}
	if _, err := idx.CompactShard(5); err == nil {
		t.Fatal("out-of-range CompactShard must error")
	}
	if removed := idx.Compact(); removed != 300 {
		t.Fatalf("Compact reclaimed %d, want 300", removed)
	}
	if idx.Deleted() != 0 || idx.Len() != 600 || idx.NextID() != 900 {
		t.Fatalf("post-compaction deleted=%d len=%d next=%d", idx.Deleted(), idx.Len(), idx.NextID())
	}
	stats := idx.ShardStats()
	if len(stats) != 3 {
		t.Fatalf("%d shard stats", len(stats))
	}
	now := time.Now()
	for _, st := range stats {
		if st.Deleted != 0 || st.Live != st.Size || st.Compactions != 1 {
			t.Fatalf("shard stat %+v", st)
		}
		if st.LastCompaction.IsZero() || now.Sub(st.LastCompaction) > time.Minute {
			t.Fatalf("implausible LastCompaction %v", st.LastCompaction)
		}
	}
}

// TestShardedBudgetIsGlobal pins the coordinated ladder's contract: the
// candidate budget 2tL+k bounds total verification across all shards (to
// within one per-shard remainder), instead of each shard spending the full
// budget against its stripe.
func TestShardedBudgetIsGlobal(t *testing.T) {
	data, queries := clusteredData(4000, 16, 19)
	const shards = 8
	idx, err := New(data, Options{K: 6, L: 3, T: 50, Seed: 19, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	const tt, k = 5, 10
	budget := 2*tt*3 + k // 2·t·L + k = 40
	var st Stats
	for _, q := range queries {
		if _, err := idx.SearchOpts(q, k, WithCandidateBudget(tt), WithStats(&st)); err != nil {
			t.Fatal(err)
		}
		if st.Candidates > budget+shards {
			t.Fatalf("budget %d (+%d shard remainder) exceeded: %d candidates verified",
				budget, shards, st.Candidates)
		}
	}
}

// TestShardedBudgetFollowsSkew pins the waterfall budget: when the live
// data concentrates in one shard, that shard may spend the budget the
// empty shards cannot use, so result quality tracks the single-shard index
// instead of collapsing to 1/S of the budget.
func TestShardedBudgetFollowsSkew(t *testing.T) {
	data, queries := clusteredData(400, 16, 23)
	single, err := New(data, Options{K: 4, L: 2, T: 20, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := New(data, Options{K: 4, L: 2, T: 20, Seed: 23, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 400; g++ {
		if g%4 != 0 {
			single.Delete(g)
			sharded.Delete(g) // shards 1-3 end up fully tombstoned
		}
	}
	const k, tt = 30, 1
	for _, q := range queries {
		a, err := single.SearchOpts(q, k, WithCandidateBudget(tt))
		if err != nil {
			t.Fatal(err)
		}
		b, err := sharded.SearchOpts(q, k, WithCandidateBudget(tt))
		if err != nil {
			t.Fatal(err)
		}
		if len(a) == 0 || len(b) == 0 {
			t.Fatalf("skewed search returned %d/%d results", len(a), len(b))
		}
		worstA, worstB := a[len(a)-1].Dist, b[len(b)-1].Dist
		if worstB > worstA*1.5+1e-9 {
			t.Fatalf("skewed sharded quality collapsed: worst %v vs single-shard %v", worstB, worstA)
		}
	}
}

// TestPersistEmptyCompactedIndex: a fully deleted and compacted index must
// round-trip (its id space and shard layout survive) and stay usable.
func TestPersistEmptyCompactedIndex(t *testing.T) {
	data, _ := clusteredData(300, 8, 24)
	idx, err := New(data, Options{K: 4, L: 2, T: 20, Seed: 24, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 300; g++ {
		idx.Delete(g)
	}
	if got := idx.Compact(); got != 300 {
		t.Fatalf("Compact reclaimed %d", got)
	}
	var buf bytes.Buffer
	n, err := idx.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) != n {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	loaded, err := Read(&buf)
	if err != nil {
		t.Fatalf("empty compacted index does not round-trip: %v", err)
	}
	if loaded.Len() != 0 || loaded.NextID() != 300 || loaded.Shards() != 3 {
		t.Fatalf("loaded len=%d next=%d shards=%d", loaded.Len(), loaded.NextID(), loaded.Shards())
	}
	if hits := loaded.Search(data[0], 5); len(hits) != 0 {
		t.Fatalf("empty index returned %v", hits)
	}
	// The id space continues where it left off.
	id, err := loaded.Add(data[0])
	if err != nil {
		t.Fatal(err)
	}
	if id != 300 {
		t.Fatalf("post-load Add returned %d, want 300", id)
	}
	if hits := loaded.Search(data[0], 1); len(hits) != 1 || hits[0].ID != 300 {
		t.Fatalf("revived index search: %v", hits)
	}
}

func TestSetCompactFractionOnLoadedIndex(t *testing.T) {
	data, _ := clusteredData(1200, 8, 20)
	idx, err := New(data, Options{K: 4, L: 2, T: 20, Seed: 20, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.SetCompactFraction(1.5); err == nil {
		t.Fatal("out-of-range threshold accepted")
	}
	if err := loaded.SetCompactFraction(0.4); err != nil {
		t.Fatal(err)
	}
	// Crossing the threshold on a loaded index must now auto-compact. The
	// deletes empty shard 0; those that land while a rebuild runs are
	// carried over as tombstones, and once the shard has shrunk below the
	// policy's 256-row floor it is left alone — so a completed compaction is
	// guaranteed, zero tombstones is not (under -race the rebuild is slow
	// enough that most deletes overtake it).
	for g := 0; g < 1200; g += 2 {
		loaded.Delete(g)
	}
	deadline := time.Now().Add(10 * time.Second)
	for loaded.ShardStats()[0].Compactions == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("auto-compaction never ran on loaded index; %d tombstones left", loaded.Deleted())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if left := loaded.Deleted(); left >= 600 {
		t.Fatalf("compaction reclaimed nothing: %d tombstones left", left)
	}
}

// TestPersistKeepsTombstones is the regression test for the v1 bug this PR
// fixes: deleted vectors must never resurrect across WriteTo/Read.
func TestPersistKeepsTombstones(t *testing.T) {
	for _, shards := range []int{1, 3} {
		data, _ := clusteredData(600, 12, 15)
		idx, err := New(data, Options{K: 6, L: 3, T: 30, Seed: 15, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		deleted := []int{0, 5, 17, 123, 599}
		for _, id := range deleted {
			if !idx.Delete(id) {
				t.Fatalf("shards=%d: Delete(%d) failed", shards, id)
			}
		}
		var buf bytes.Buffer
		n, err := idx.WriteTo(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if int64(buf.Len()) != n {
			t.Fatalf("shards=%d: WriteTo reported %d bytes, wrote %d", shards, n, buf.Len())
		}
		loaded, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if loaded.Shards() != shards || loaded.Deleted() != len(deleted) || loaded.Len() != 600 {
			t.Fatalf("shards=%d: loaded shards=%d deleted=%d len=%d",
				shards, loaded.Shards(), loaded.Deleted(), loaded.Len())
		}
		for _, id := range deleted {
			hits := loaded.Search(data[id], 3)
			for _, h := range hits {
				if h.ID == id {
					t.Fatalf("shards=%d: tombstoned id %d resurrected after round-trip", shards, id)
				}
			}
			if loaded.Delete(id) {
				t.Fatalf("shards=%d: tombstoned id %d deletable again after round-trip", shards, id)
			}
		}
	}
}

func TestShardedPersistRoundTripDeterministic(t *testing.T) {
	data, queries := clusteredData(1500, 16, 16)
	idx, err := New(data, Options{K: 6, L: 3, T: 40, Seed: 16, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	idx.Delete(3)
	idx.Delete(44)
	if _, err := idx.CompactShard(3 % 4); err != nil { // non-trivial id mapping
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Params() != idx.Params() {
		t.Fatalf("params changed: %+v vs %+v", loaded.Params(), idx.Params())
	}
	if loaded.NextID() != idx.NextID() || loaded.Len() != idx.Len() {
		t.Fatalf("id space changed: next %d/%d len %d/%d",
			loaded.NextID(), idx.NextID(), loaded.Len(), idx.Len())
	}
	for _, q := range queries {
		a := idx.Search(q, 10)
		b := loaded.Search(q, 10)
		if len(a) != len(b) {
			t.Fatalf("result sizes differ: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("results diverge at rank %d: %+v vs %+v", i, a[i], b[i])
			}
		}
	}
	// Adds continue from the persisted id space.
	v := make([]float32, loaded.Dim())
	for j := range v {
		v[j] = 900
	}
	id, err := loaded.Add(v)
	if err != nil {
		t.Fatal(err)
	}
	if id != idx.NextID() {
		t.Fatalf("post-load Add returned %d, want %d", id, idx.NextID())
	}
}

// TestReadRefusesV1V2 pins what becomes of a file from the two formats this
// build no longer reads: an error that names the version and says how to
// get a file it does read, whatever follows the magic.
func TestReadRefusesV1V2(t *testing.T) {
	for _, v := range []string{"v1", "v2"} {
		raw := append([]byte("DBLSH"+v+"\n"), make([]byte, 64)...)
		_, err := Read(bytes.NewReader(raw))
		if err == nil || !strings.Contains(err.Error(), v) || !strings.Contains(err.Error(), "re-save with an earlier build") {
			t.Errorf("%s file: Read returned %v", v, err)
		}
	}
}

// TestConcurrentShardedStress exercises parallel Add/Delete/SearchOpts/
// SearchBatchOpts/Compact against a sharded index through the public API.
// Run under -race (the CI race job does) to catch shard-lock regressions.
func TestConcurrentShardedStress(t *testing.T) {
	data, queries := clusteredData(3000, 12, 18)
	idx, err := New(data, Options{K: 5, L: 3, T: 25, Seed: 18, Shards: 4, CompactFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 128)
	stop := make(chan struct{})

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := idx.NewSearcher()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if i%7 == 0 {
					if _, err := idx.SearchBatchOpts(queries[:4], 5, WithCandidateBudget(10)); err != nil {
						errs <- err
						return
					}
					continue
				}
				hits, err := s.SearchOpts(queries[(i+w)%len(queries)], 5,
					WithFilter(func(id int) bool { return id%2 == 0 }))
				if err != nil {
					errs <- err
					return
				}
				for _, h := range hits {
					if h.ID%2 != 0 {
						errs <- errFiltered
						return
					}
				}
			}
		}(w)
	}

	var mut sync.WaitGroup
	mut.Add(3)
	go func() { // writer
		defer mut.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 300; i++ {
			v := make([]float32, idx.Dim())
			for j := range v {
				v[j] = float32(rng.NormFloat64())
			}
			if _, err := idx.Add(v); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() { // deleter
		defer mut.Done()
		for g := 0; g < 2000; g += 2 {
			idx.Delete(g)
		}
	}()
	go func() { // compactor
		defer mut.Done()
		for i := 0; i < 3; i++ {
			idx.Compact()
			time.Sleep(10 * time.Millisecond)
		}
	}()

	mut.Wait()
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if idx.NextID() != 3300 {
		t.Fatalf("NextID = %d, want 3300", idx.NextID())
	}
	// Quiesced: a final compact leaves zero debt and searches still work.
	idx.Compact()
	if idx.Deleted() != 0 {
		t.Fatalf("Deleted = %d after final compact", idx.Deleted())
	}
	if hits := idx.Search(queries[0], 10); len(hits) != 10 {
		t.Fatalf("post-stress search returned %d hits", len(hits))
	}
}

var errFiltered = errorString("filter leaked an odd id")

type errorString string

func (e errorString) Error() string { return string(e) }
