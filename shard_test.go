package dblsh

// Public-API coverage of the one index behind the Shards option it ignores:
// option validation, answers and files equal to an unsharded build's,
// compaction, persistence of the id space and tombstones, the refusal of
// files this build no longer reads, and the concurrent Add/Delete/Search
// stress that must pass under -race.

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestShardsOptionValidation: CompactFraction is checked; Shards, of any
// value, is not looked at.
func TestShardsOptionValidation(t *testing.T) {
	data, _ := clusteredData(50, 8, 11)
	if _, err := New(data, Options{CompactFraction: -0.1}); err == nil {
		t.Fatal("negative CompactFraction must error")
	}
	if _, err := New(data, Options{CompactFraction: 1}); err == nil {
		t.Fatal("CompactFraction = 1 must error")
	}
	for _, shards := range []int{-1, 0, 4, 16} {
		idx, err := New(data, Options{Shards: shards, CompactFraction: 0.5, K: 4, L: 2, Seed: 11})
		if err != nil || idx.Len() != len(data) || len(idx.ShardStats()) != 1 {
			t.Fatalf("Shards = %d: %v", shards, err)
		}
	}
}

// TestShardedSearchMatchesSingleShard: Options.Shards is ignored, so an
// index asked for 4 shards is the index asked for 1 — the same answers and
// statistics for every query, single and batched, through adds, deletes
// and a compaction, and the same bytes from WriteTo.
func TestShardedSearchMatchesSingleShard(t *testing.T) {
	data, queries := clusteredData(5000, 24, 12)
	more, _ := clusteredData(700, 24, 13)
	var idx [2]*Index
	for i, shards := range []int{1, 4} {
		var err error
		if idx[i], err = New(data, Options{K: 8, L: 4, T: 100, Seed: 12, Shards: shards}); err != nil {
			t.Fatal(err)
		}
	}
	same := func(stage string) {
		t.Helper()
		for qi, q := range queries {
			var sa, sb Stats
			a, err := idx[0].SearchOpts(q, 10, WithStats(&sa))
			if err != nil {
				t.Fatal(err)
			}
			b, err := idx[1].SearchOpts(q, 10, WithStats(&sb))
			if err != nil {
				t.Fatal(err)
			}
			if !equalResults(a, b) || sa != sb {
				t.Fatalf("%s, query %d: Shards 4 answers %v %+v, Shards 1 %v %+v", stage, qi, b, sb, a, sa)
			}
		}
		var ba, bb []Stats
		a, err := idx[0].SearchBatchOpts(queries, 10, WithBatchStats(&ba))
		if err != nil {
			t.Fatal(err)
		}
		b, err := idx[1].SearchBatchOpts(queries, 10, WithBatchStats(&bb))
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if !equalResults(a[i], b[i]) || ba[i] != bb[i] {
				t.Fatalf("%s, batch query %d differs", stage, i)
			}
		}
		if !bytes.Equal(save(t, idx[0]), save(t, idx[1])) {
			t.Fatalf("%s: Shards 4 and Shards 1 save to different bytes", stage)
		}
	}
	same("built")
	for _, x := range idx {
		for _, v := range more {
			if _, err := x.Add(v); err != nil {
				t.Fatal(err)
			}
		}
		for g := 0; g < x.NextID(); g += 9 {
			del(t, x, g)
		}
		// The adds scheduled repacks in the background; Close waits them
		// out, and Compact folds in whatever they left.
		x.Close()
		x.Compact()
	}
	same("after adds, deletes and a compaction")
}

// equalResults reports whether two answers are the same, id and distance.
func equalResults(a, b []Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestShardedOptionsPushdown(t *testing.T) {
	data, queries := clusteredData(3000, 16, 13)
	idx, err := New(data, Options{K: 6, L: 3, T: 50, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	// The filter sees global ids.
	var st Stats
	hits, err := idx.SearchOpts(queries[0], 20, WithFilter(func(id int) bool { return id%3 == 0 }), WithStats(&st))
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("filtered search found nothing")
	}
	for _, h := range hits {
		if h.ID%3 != 0 {
			t.Fatalf("filter leaked id %d", h.ID)
		}
	}
	if st.Candidates == 0 || st.Rounds == 0 || st.FinalRadius == 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
	// A searcher survives adds, deletes and compactions.
	s := idx.NewSearcher()
	if got := search(t, s, queries[1], 5); len(got) != 5 {
		t.Fatalf("searcher got %d hits", len(got))
	}
	id, err := idx.Add(append([]float32(nil), queries[1]...))
	if err != nil {
		t.Fatal(err)
	}
	del(t, idx, 0)
	idx.Compact()
	got := search(t, s, queries[1], 1)
	if len(got) != 1 || got[0].ID != id || got[0].Dist != 0 {
		t.Fatalf("stale searcher after compaction: %+v", got)
	}
}

func TestCompactPublicAPI(t *testing.T) {
	data, _ := clusteredData(900, 12, 14)
	idx, err := New(data, Options{K: 6, L: 3, T: 30, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 300; id++ {
		if !del(t, idx, id) {
			t.Fatalf("Delete(%d) failed", id)
		}
	}
	if removed := idx.Compact(); removed != 300 {
		t.Fatalf("Compact reclaimed %d, want 300", removed)
	}
	if idx.Deleted() != 0 || idx.Len() != 600 || idx.NextID() != 900 {
		t.Fatalf("post-compaction deleted=%d len=%d next=%d", idx.Deleted(), idx.Len(), idx.NextID())
	}
	stats := idx.ShardStats()
	if len(stats) != 1 {
		t.Fatalf("%d shard stats", len(stats))
	}
	st, now := stats[0], time.Now()
	if st.Deleted != 0 || st.Live != st.Size || st.Size != 600 || st.Compactions != 1 {
		t.Fatalf("shard stat %+v", st)
	}
	if st.LastCompaction.IsZero() || now.Sub(st.LastCompaction) > time.Minute {
		t.Fatalf("implausible LastCompaction %v", st.LastCompaction)
	}
}

// TestShardedBudgetIsGlobal pins the candidate budget through the public
// API: 2tL+k bounds the exact distances a query computes, whatever
// Options.Shards asks for.
func TestShardedBudgetIsGlobal(t *testing.T) {
	data, queries := clusteredData(4000, 16, 19)
	idx, err := New(data, Options{K: 6, L: 3, T: 50, Seed: 19, Shards: 8})
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
		if st.Candidates > budget {
			t.Fatalf("budget %d exceeded: %d candidates verified", budget, st.Candidates)
		}
	}
}

// TestPersistEmptyCompactedIndex: a fully deleted and compacted index must
// round-trip (its id space survives) and stay usable.
func TestPersistEmptyCompactedIndex(t *testing.T) {
	data, _ := clusteredData(300, 8, 24)
	idx, err := New(data, Options{K: 4, L: 2, T: 20, Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 300; g++ {
		del(t, idx, g)
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
	if loaded.Len() != 0 || loaded.NextID() != 300 {
		t.Fatalf("loaded len=%d next=%d", loaded.Len(), loaded.NextID())
	}
	if hits := search(t, loaded, data[0], 5); len(hits) != 0 {
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
	if hits := search(t, loaded, data[0], 1); len(hits) != 1 || hits[0].ID != 300 {
		t.Fatalf("revived index search: %v", hits)
	}
}

func TestSetCompactFractionOnLoadedIndex(t *testing.T) {
	data, _ := clusteredData(1200, 8, 20)
	idx, err := New(data, Options{K: 4, L: 2, T: 20, Seed: 20})
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
	// deletes that land while a rebuild runs are carried over as
	// tombstones — so a completed compaction is guaranteed, zero tombstones
	// is not (under -race the rebuild is slow enough that most deletes
	// overtake it).
	for g := 0; g < 1200; g += 2 {
		del(t, loaded, g)
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
	data, _ := clusteredData(600, 12, 15)
	idx, err := New(data, Options{K: 6, L: 3, T: 30, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	deleted := []int{0, 5, 17, 123, 599}
	for _, id := range deleted {
		if !del(t, idx, id) {
			t.Fatalf("Delete(%d) failed", id)
		}
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
		t.Fatal(err)
	}
	if loaded.Deleted() != len(deleted) || loaded.Len() != 600 {
		t.Fatalf("loaded deleted=%d len=%d", loaded.Deleted(), loaded.Len())
	}
	for _, id := range deleted {
		hits := search(t, loaded, data[id], 3)
		for _, h := range hits {
			if h.ID == id {
				t.Fatalf("tombstoned id %d resurrected after round-trip", id)
			}
		}
		if del(t, loaded, id) {
			t.Fatalf("tombstoned id %d deletable again after round-trip", id)
		}
	}
}

func TestShardedPersistRoundTripDeterministic(t *testing.T) {
	data, queries := clusteredData(1500, 16, 16)
	idx, err := New(data, Options{K: 6, L: 3, T: 40, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	del(t, idx, 3)
	idx.Compact() // non-trivial id mapping
	del(t, idx, 44)
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
		a := search(t, idx, q, 10)
		b := search(t, loaded, q, 10)
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

// TestReadRefusesOldVersions pins what becomes of a file from a format this
// build no longer reads: an error that names the version and says how to
// get a file it does read, whatever follows the magic. A v4 file whose part
// holds no trees, as the first v4 writers emitted, is refused for the
// missing trees rather than rebuilt, and a v4 file of two parts, as an
// earlier build's sharded index wrote, for its parts — before its checksum
// is looked at.
func TestReadRefusesOldVersions(t *testing.T) {
	for _, v := range []string{"v1", "v2", "v3"} {
		raw := append([]byte("DBLSH"+v+"\n"), make([]byte, 64)...)
		_, err := Read(bytes.NewReader(raw))
		if err == nil || !strings.Contains(err.Error(), v) || !strings.Contains(err.Error(), "re-save with an earlier build") {
			t.Errorf("%s file: Read returned %v", v, err)
		}
	}
	data, _ := clusteredData(50, 4, 91)
	idx, err := New(data, Options{K: 4, L: 2, Seed: 91})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bytes.NewReader(treeless(save(t, idx)))); err == nil || !strings.Contains(err.Error(), "0 trees for L = 2") {
		t.Errorf("v4 file without trees: Read returned %v", err)
	}
	// The parts count follows the magic. A file that says two parts and
	// holds one is what its reader sees of a two-part file before the
	// second part; the checksum is re-stamped, so only the count is wrong.
	twoParts := save(t, idx)
	binary.LittleEndian.PutUint32(twoParts[8:], 2)
	_, err = Read(bytes.NewReader(restamp(twoParts)))
	if err == nil || !strings.Contains(err.Error(), "holds 2") || !strings.Contains(err.Error(), "Options.Shards = 1") {
		t.Errorf("v4 file of two parts: Read returned %v", err)
	}
}

// TestConcurrentShardedStress exercises parallel Add/Delete/SearchOpts/
// SearchBatchOpts/Compact against an index through the public API. Run
// under -race (the CI race job does) to catch locking regressions.
func TestConcurrentShardedStress(t *testing.T) {
	data, queries := clusteredData(3000, 12, 18)
	idx, err := New(data, Options{K: 5, L: 3, T: 25, Seed: 18, CompactFraction: 0.5})
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
			if _, err := idx.DeleteWithError(g); err != nil {
				errs <- err
				return
			}
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
	if hits := search(t, idx, queries[0], 10); len(hits) != 10 {
		t.Fatalf("post-stress search returned %d hits", len(hits))
	}
}

var errFiltered = errorString("filter leaked an odd id")

type errorString string

func (e errorString) Error() string { return string(e) }
