package dblsh

import (
	"bytes"
	"errors"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dblsh/internal/wal"
)

// randVecs returns n deterministic random vectors of dimension d. With
// continuous coordinates every vector is its own unique nearest neighbor at
// distance 0, so recovery checks can assert exact hits. The ×10 scale keeps
// inter-point distances far above the radius ladder's first-round
// termination threshold (a store grown from empty starts at r0 = 1), so an
// exact-match query always verifies its own point before any other
// candidate can stop the round.
func randVecs(n, d int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float32, n)
	for i := range out {
		v := make([]float32, d)
		for j := range v {
			v[j] = float32(rng.NormFloat64() * 10)
		}
		out[i] = v
	}
	return out
}

// serialize snapshots an index's full persisted state for byte-level
// equality checks between a pre-crash index and its recovered twin.
func serialize(t *testing.T, idx *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func mustOpen(t *testing.T, dir string, opts Options) *Index {
	t.Helper()
	idx, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// expectHit asserts that vector v is indexed under id: its exact-match
// query must return it at distance 0.
func expectHit(t *testing.T, idx *Index, id int, v []float32) {
	t.Helper()
	res := search(t, idx, v, 1)
	if len(res) != 1 || res[0].ID != id || res[0].Dist != 0 {
		t.Fatalf("vector of id %d: got %+v, want exact hit at distance 0", id, res)
	}
}

// TestCrashRecoveryWithTornTail is the acceptance scenario: a store
// mutated (Add + Delete) and killed without Close reopens with every synced
// mutation present and none duplicated, and a corrupted/truncated log tail
// drops exactly the torn record while keeping everything before it.
func TestCrashRecoveryWithTornTail(t *testing.T) {
	dir := t.TempDir()
	idx := mustOpen(t, dir, Options{Dim: 8, Seed: 7})
	vecs := randVecs(50, 8, 7)
	for i, v := range vecs {
		id, err := idx.Add(v)
		if err != nil {
			t.Fatal(err)
		}
		if id != i {
			t.Fatalf("id %d for insert %d", id, i)
		}
	}
	for _, id := range []int{3, 17, 41} {
		if !del(t, idx, id) {
			t.Fatalf("delete %d failed", id)
		}
	}
	want := serialize(t, idx)
	// Crash: the index is abandoned without Close. The op log file already
	// holds every synced record.

	re := mustOpen(t, dir, Options{})
	if got := serialize(t, re); !bytes.Equal(got, want) {
		t.Fatal("recovered index state diverges from the pre-crash index")
	}
	if re.Len() != 50 || re.NextID() != 50 || re.Deleted() != 3 {
		t.Fatalf("recovered shape: Len=%d NextID=%d Deleted=%d", re.Len(), re.NextID(), re.Deleted())
	}
	expectHit(t, re, 5, vecs[5])
	if res := search(t, re, vecs[17], 1); len(res) == 1 && res[0].ID == 17 {
		t.Fatal("deleted id 17 resurrected by replay")
	}
	// Replay must be idempotent: reopening again (the log was not
	// checkpointed away) changes nothing and duplicates nothing.
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2 := mustOpen(t, dir, Options{})
	if got := serialize(t, re2); !bytes.Equal(got, want) {
		t.Fatal("second replay is not idempotent")
	}
	if err := re2.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the log tail mid-record: the final op (the Delete of 41) loses
	// its last bytes. Recovery must drop exactly that record.
	walPath := filepath.Join(dir, "wal.log")
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	torn := mustOpen(t, dir, Options{})
	defer torn.Close()
	if torn.Len() != 50 || torn.Deleted() != 2 {
		t.Fatalf("after torn tail: Len=%d Deleted=%d, want 50/2", torn.Len(), torn.Deleted())
	}
	if res := search(t, torn, vecs[41], 1); len(res) != 1 || res[0].ID != 41 {
		t.Fatal("the torn Delete of id 41 should have been dropped, leaving it live")
	}
	if res := search(t, torn, vecs[17], 1); len(res) == 1 && res[0].ID == 17 {
		t.Fatal("intact Delete of id 17 lost alongside the torn tail")
	}
	// The torn tail was physically truncated at open, so new mutations
	// append cleanly after the intact prefix.
	if _, err := torn.Add(vecs[0]); err != nil {
		t.Fatal(err)
	}
}

// TestReplayIdempotentOverCheckpointBoundary pins the rotation race: a
// record whose mutation is already contained in the checkpoint (apply
// happened before the snapshot cut, append landed after rotation) must
// replay as a no-op.
func TestReplayIdempotentOverCheckpointBoundary(t *testing.T) {
	dir := t.TempDir()
	idx := mustOpen(t, dir, Options{Dim: 6, Seed: 8})
	vecs := randVecs(20, 6, 8)
	for _, v := range vecs {
		if _, err := idx.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	del(t, idx, 4)
	if err := idx.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := serialize(t, idx)
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the race: re-append records the checkpoint already covers
	// (Adds of resident ids, a Delete of an already-tombstoned id) into the
	// post-rotation log.
	w, err := wal.OpenWriter(filepath.Join(dir, "wal.log"), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{2, 4, 7} {
		if err := w.Append(wal.Record{Op: wal.OpAdd, ID: uint64(id), Row: vecs[id]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Append(wal.Record{Op: wal.OpDelete, ID: 4}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, dir, Options{})
	defer re.Close()
	if re.Len() != 20 || re.NextID() != 20 || re.Deleted() != 1 {
		t.Fatalf("replayed duplicates: Len=%d NextID=%d Deleted=%d", re.Len(), re.NextID(), re.Deleted())
	}
	if got := serialize(t, re); !bytes.Equal(got, want) {
		t.Fatal("duplicate replay changed the index state")
	}
}

// crashMidCheckpoint leaves dir as a crash exactly between log rotation and
// the snapshot would: the active log has become the first rotated segment,
// and the checkpoint on disk is still the one the log was written against.
func crashMidCheckpoint(t *testing.T, dir string) {
	t.Helper()
	if err := os.Rename(filepath.Join(dir, walName), filepath.Join(dir, walOldName(0))); err != nil {
		t.Fatal(err)
	}
}

// TestCrashMidCheckpointRecoversRotatedSegment simulates dying between log
// rotation and checkpoint completion: the rotated-out segment must be
// replayed at open and then absorbed by a completed checkpoint.
func TestCrashMidCheckpointRecoversRotatedSegment(t *testing.T) {
	dir := t.TempDir()
	idx := mustOpen(t, dir, Options{Dim: 5, Seed: 9})
	vecs := randVecs(15, 5, 9)
	for _, v := range vecs {
		if _, err := idx.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	del(t, idx, 1)
	want := serialize(t, idx)
	crashMidCheckpoint(t, dir) // the checkpoint on disk is the initial empty one

	re := mustOpen(t, dir, Options{})
	defer re.Close()
	if got := serialize(t, re); !bytes.Equal(got, want) {
		t.Fatal("rotated segment not recovered")
	}
	// Open finished the interrupted checkpoint: the segment is retired and
	// the replayed history is inside the snapshot.
	if olds, _ := filepath.Glob(filepath.Join(dir, "wal.*.old")); len(olds) != 0 {
		t.Fatalf("rotated segments not retired: %v", olds)
	}
	st, ok := re.Durability()
	if !ok || st.OpsSinceCheckpoint != 0 || st.LogBytes != 0 {
		t.Fatalf("post-recovery stats: %+v", st)
	}
}

// TestDeleteCompactCrashReplayKeepsIDs: a Delete followed by a compaction
// that reclaims the row, then a crash, must replay to the same live set
// under the same global ids.
func TestDeleteCompactCrashReplayKeepsIDs(t *testing.T) {
	dir := t.TempDir()
	idx := mustOpen(t, dir, Options{Dim: 8, Seed: 10, Shards: 3})
	vecs := randVecs(90, 8, 10)
	for _, v := range vecs {
		if _, err := idx.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	deleted := map[int]bool{}
	for id := 0; id < 90; id += 7 {
		if !del(t, idx, id) {
			t.Fatalf("delete %d", id)
		}
		deleted[id] = true
	}
	if got := idx.Compact(); got != len(deleted) {
		t.Fatalf("compacted %d, want %d", got, len(deleted))
	}
	// Crash without checkpoint: the log still describes the full history.
	re := mustOpen(t, dir, Options{})
	defer re.Close()
	if re.NextID() != 90 {
		t.Fatalf("NextID %d, want 90", re.NextID())
	}
	for id, v := range vecs {
		res := search(t, re, v, 1)
		if deleted[id] {
			if len(res) == 1 && res[0].ID == id {
				t.Fatalf("deleted id %d resurrected", id)
			}
		} else if len(res) != 1 || res[0].ID != id || res[0].Dist != 0 {
			t.Fatalf("id %d: got %+v, want exact hit", id, res)
		}
	}
	// New ids keep allocating past the stable ceiling.
	id, err := re.Add(vecs[0])
	if err != nil || id != 90 {
		t.Fatalf("Add after recovery: id=%d err=%v", id, err)
	}
}

func TestCloseGracefulReopenAndClosedMutations(t *testing.T) {
	dir := t.TempDir()
	idx := mustOpen(t, dir, Options{Dim: 4, Seed: 11, Sync: SyncNever})
	vecs := randVecs(10, 4, 11)
	for _, v := range vecs {
		if _, err := idx.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	want := serialize(t, idx)
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}
	if err := idx.Close(); err != nil {
		t.Fatal("second Close should be a no-op, got", err)
	}
	if _, err := idx.Add(vecs[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("Add after Close: %v, want ErrClosed", err)
	}
	if ok, err := idx.DeleteWithError(0); ok || !errors.Is(err, ErrClosed) {
		t.Fatalf("DeleteWithError after Close: %v, %v, want false, ErrClosed", ok, err)
	}
	// Still searchable after Close.
	expectHit(t, idx, 2, vecs[2])

	re := mustOpen(t, dir, Options{})
	defer re.Close()
	if got := serialize(t, re); !bytes.Equal(got, want) {
		t.Fatal("graceful close lost state")
	}
}

func TestCheckpointTruncatesLogAndStats(t *testing.T) {
	dir := t.TempDir()
	idx := mustOpen(t, dir, Options{Dim: 4, Seed: 12})
	defer idx.Close()
	vecs := randVecs(8, 4, 12)
	for _, v := range vecs {
		if _, err := idx.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	// A no-op delete (unknown id) must not reach the log.
	if del(t, idx, 999) {
		t.Fatal("delete of an unallocated id succeeded")
	}
	st, ok := idx.Durability()
	if !ok {
		t.Fatal("durable index reports not durable")
	}
	if st.OpsSinceCheckpoint != 8 || st.LogBytes == 0 {
		t.Fatalf("pre-checkpoint stats: %+v", st)
	}
	if st.Checkpoints != 1 { // the initial checkpoint of the fresh directory
		t.Fatalf("Checkpoints = %d, want 1", st.Checkpoints)
	}
	if err := idx.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st, _ = idx.Durability()
	if st.OpsSinceCheckpoint != 0 || st.LogBytes != 0 || st.Checkpoints != 2 || st.LastCheckpoint.IsZero() {
		t.Fatalf("post-checkpoint stats: %+v", st)
	}
	// A checkpoint with nothing new is a no-op.
	if err := idx.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st2, _ := idx.Durability(); st2.Checkpoints != 2 {
		t.Fatalf("idle checkpoint ran: %+v", st2)
	}
	// The checkpointed state must round-trip through a reopen with an
	// empty log.
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}
	re := mustOpen(t, dir, Options{})
	defer re.Close()
	if re.Len() != 8 {
		t.Fatalf("Len %d after checkpointed reopen", re.Len())
	}
	expectHit(t, re, 3, vecs[3])
}

func TestBackgroundCheckpointer(t *testing.T) {
	dir := t.TempDir()
	idx := mustOpen(t, dir, Options{Dim: 4, Seed: 13, Sync: SyncNever, CheckpointEvery: 20 * time.Millisecond})
	defer idx.Close()
	for _, v := range randVecs(5, 4, 13) {
		if _, err := idx.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, _ := idx.Durability()
		if st.OpsSinceCheckpoint == 0 && st.Checkpoints >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background checkpointer never absorbed the log: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSaveBridgesInMemoryToDurable(t *testing.T) {
	dir := t.TempDir()
	data, _ := clusteredData(200, 8, 14)
	mem, err := New(data, Options{Seed: 14, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Close(); err != nil {
		t.Fatal("Close on an in-memory index should be a no-op, got", err)
	}
	if err := mem.Checkpoint(); !errors.Is(err, errNotDurable) {
		t.Fatalf("Checkpoint on an in-memory index: %v, want errNotDurable", err)
	}
	if err := mem.Save(dir); err != nil {
		t.Fatal(err)
	}
	idx := mustOpen(t, dir, Options{})
	defer idx.Close()
	if idx.Len() != 200 || idx.Shards() != 2 {
		t.Fatalf("opened store: Len=%d Shards=%d", idx.Len(), idx.Shards())
	}
	// Mutations are durable from here on.
	id, err := idx.Add(data[0])
	if err != nil || id != 200 {
		t.Fatalf("Add: id=%d err=%v", id, err)
	}
	re := mustOpen(t, dir, Options{}) // crash-reopen without Close
	defer re.Close()
	if re.Len() != 201 {
		t.Fatalf("Len %d after reopen, want 201", re.Len())
	}
}

func TestDurableCosineReplaysWithoutRederivation(t *testing.T) {
	dir := t.TempDir()
	idx := mustOpen(t, dir, Options{Dim: 8, Seed: 15, Metric: Cosine})
	vecs := randVecs(30, 8, 15)
	for i, v := range vecs {
		if _, err := idx.Add(v); err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
	}
	q := vecs[12]
	want := search(t, idx, q, 5)

	re := mustOpen(t, dir, Options{}) // crash-reopen
	defer re.Close()
	if re.Metric() != Cosine {
		t.Fatalf("metric %s after reopen", re.Metric())
	}
	got := search(t, re, q, 5)
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("result %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestDurableConcurrentMutationsAndCheckpoints races Adds, Deletes,
// searches and checkpoints against each other, then crash-reopens and
// demands byte-identical state: mutations are serialized by the log mutex,
// so the recovered index must replay to exactly the pre-crash one no
// matter where the checkpoints cut the stream.
func TestDurableConcurrentMutationsAndCheckpoints(t *testing.T) {
	dir := t.TempDir()
	idx := mustOpen(t, dir, Options{Dim: 8, Seed: 20, Shards: 4, Sync: SyncNever})
	const (
		adders  = 4
		perG    = 60
		total   = adders * perG
		deletes = 40
	)
	vecs := randVecs(total, 8, 20)
	var wg sync.WaitGroup
	ids := make([][]int, adders)
	for g := 0; g < adders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				id, err := idx.Add(vecs[g*perG+i])
				if err != nil {
					t.Errorf("add: %v", err)
					return
				}
				ids[g] = append(ids[g], id)
			}
		}(g)
	}
	wg.Add(2)
	go func() { // deleter: racing ids that may not exist yet is fine
		defer wg.Done()
		for i := 0; i < deletes; i++ {
			if _, err := idx.DeleteWithError(i * 3); err != nil {
				t.Errorf("delete: %v", err)
				return
			}
		}
	}()
	go func() { // checkpointer: cut the log at arbitrary points mid-stream
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := idx.Checkpoint(); err != nil {
				t.Errorf("checkpoint: %v", err)
			}
		}
	}()
	for i := 0; i < 20; i++ {
		search(t, idx, vecs[i], 3)
	}
	wg.Wait()
	if idx.Len() != total || idx.NextID() != total {
		t.Fatalf("pre-crash shape: Len=%d NextID=%d, want %d", idx.Len(), idx.NextID(), total)
	}
	want := serialize(t, idx)

	re := mustOpen(t, dir, Options{}) // crash-reopen, no Close
	defer re.Close()
	if got := serialize(t, re); !bytes.Equal(got, want) {
		t.Fatal("recovered index diverges from the pre-crash index")
	}
}

func TestOpenValidation(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open of an empty directory without Dim must fail")
	}
	if _, err := Open(dir, Options{Dim: 4, Metric: InnerProduct}); err == nil {
		t.Fatal("empty InnerProduct store without NormBound must fail")
	}
	idx := mustOpen(t, dir, Options{Dim: 4, Seed: 16})
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Dim: 9}); err == nil {
		t.Fatal("Dim mismatch with the stored checkpoint must fail")
	}
	if _, err := Open(dir, Options{Metric: Cosine}); err == nil {
		t.Fatal("Metric mismatch with the stored checkpoint must fail")
	}
}

// TestOpenLogsReplay: an Open that replays the op log says how many records
// it re-applied and at what rate — the restart cost — and an Open with
// nothing to replay stays quiet.
func TestOpenLogsReplay(t *testing.T) {
	var buf bytes.Buffer
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(&buf, nil)))
	defer slog.SetDefault(prev)

	dir := t.TempDir()
	idx := mustOpen(t, dir, Options{Dim: 6, Seed: 3})
	for _, v := range randVecs(7, 6, 3) {
		if _, err := idx.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("Open of a fresh directory logged: %s", buf.String())
	}
	re := mustOpen(t, dir, Options{})
	defer re.Close()
	line := buf.String()
	for _, want := range []string{"replayed op log", "records=7", "segments=1", "records_per_s=", "compactions_scheduled=0"} {
		if !strings.Contains(line, want) {
			t.Fatalf("replay log line %q lacks %q", line, want)
		}
	}
}
