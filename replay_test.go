package dblsh

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"dblsh/internal/wal"
)

// writeFrames writes recs to path as one log segment.
func writeFrames(t *testing.T, path string, recs []wal.Record) {
	t.Helper()
	var buf []byte
	for _, r := range recs {
		buf = wal.AppendRecord(buf, r)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// saveStriped saves an n-row, 4-shard index built from randVecs(n, 6, seed)
// as the checkpoint of a fresh directory and returns the directory and the
// rows.
func saveStriped(t *testing.T, n int, seed int64) (string, [][]float32) {
	t.Helper()
	dir := t.TempDir()
	vecs := randVecs(n, 6, seed)
	mem, err := New(vecs, Options{Seed: seed, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Save(dir); err != nil {
		t.Fatal(err)
	}
	return dir, vecs
}

// TestReplayEqualsSequentialReplay: Open applies the log a chunk at a time,
// each chunk fanned out by shard. The index it rebuilds must be, byte for
// byte, the checkpoint with the same records applied one at a time — at any
// GOMAXPROCS — for a log that spans a rotated and the active segment, ends
// in a torn tail, holds more than one chunk, and mixes fresh adds, adds the
// checkpoint already holds, deletes of checkpoint ids and deletes of ids the
// log itself added.
func TestReplayEqualsSequentialReplay(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			const n, adds = 400, 900
			dir, vecs := saveStriped(t, n, 24)
			vecs = append(vecs, randVecs(adds+1, 6, 25)...)
			var recs []wal.Record
			add := func(id int) { recs = append(recs, wal.Record{Op: wal.OpAdd, ID: uint64(id), Row: vecs[id]}) }
			del := func(id int) { recs = append(recs, wal.Record{Op: wal.OpDelete, ID: uint64(id)}) }
			for i := 0; i < adds; i++ {
				add(n + i)
				switch {
				case i%3 == 0:
					del(i % n)
				case i%5 == 1:
					del(n + i - 1)
				case i%7 == 2:
					add(i % n)
				}
			}
			if len(recs) <= replayChunk {
				t.Fatalf("%d records fit in one replay chunk", len(recs))
			}
			half := len(recs) / 2
			writeFrames(t, filepath.Join(dir, walName), recs[:half])
			crashMidCheckpoint(t, dir)
			walPath := filepath.Join(dir, walName)
			writeFrames(t, walPath, append(recs[half:], wal.Record{Op: wal.OpAdd, ID: n + adds, Row: vecs[n+adds]}))
			raw, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(walPath, raw[:len(raw)-3], 0o644); err != nil { // tear the last add
				t.Fatal(err)
			}

			f, err := os.Open(filepath.Join(dir, checkpointName))
			if err != nil {
				t.Fatal(err)
			}
			ref, err := Read(f)
			f.Close()
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range recs {
				ref.set.Replay([]wal.Record{r})
			}

			re := mustOpen(t, dir, Options{})
			defer re.Close()
			if got, want := serialize(t, re), serialize(t, ref); !bytes.Equal(got, want) {
				t.Fatal("shard-parallel replay diverges from applying the records one at a time")
			}
			if st, _ := re.Durability(); st.OpsSinceCheckpoint != 0 {
				t.Fatalf("the rotated segment was not absorbed: %+v", st)
			}
		})
	}
}

// TestReplayCompactsOnceAfterwards: a log whose deletes push every shard
// past the compaction threshold twice must leave each shard compacted
// exactly once, after replay — not once per crossing, each rebuild racing
// the replay — and the store must hold exactly the ids the log left live.
func TestReplayCompactsOnceAfterwards(t *testing.T) {
	const n, adds = 1200, 800 // 300 rows a shard, above the auto-compaction floor
	dir, _ := saveStriped(t, n, 22)
	idx := mustOpen(t, dir, Options{Sync: SyncNever})
	deleted := map[int]bool{}
	del := func(from, to int) { // the ids whose position in their shard is from..to-1 mod 20
		for id := 0; id < n; id++ {
			if j := (id / 4) % 20; j >= from && j < to {
				if !del(t, idx, id) {
					t.Fatalf("delete %d", id)
				}
				deleted[id] = true
			}
		}
	}
	del(0, 3) // 45 of every shard's 300 rows: past a 0.12 threshold once...
	for _, v := range randVecs(adds, 6, 26) {
		if _, err := idx.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	del(3, 7) // ...and 60 more after 200 adds a shard: past it again
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, dir, Options{CompactFraction: 0.12})
	defer re.Close()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		settled := true
		for _, st := range re.ShardStats() {
			settled = settled && st.Compactions > 0 && st.Deleted == 0
		}
		if settled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("compactions never settled: %+v", re.ShardStats())
		}
	}
	for _, st := range re.ShardStats() {
		if st.Compactions != 1 {
			t.Errorf("shard %d compacted %d times, want once", st.Shard, st.Compactions)
		}
	}
	if re.Len() != n+adds-len(deleted) || re.NextID() != n+adds {
		t.Fatalf("Len=%d NextID=%d, want %d/%d", re.Len(), re.NextID(), n+adds-len(deleted), n+adds)
	}
	for id := 0; id < n+adds; id++ {
		if re.set.Live(id) == deleted[id] {
			t.Fatalf("id %d: live=%v, deleted by the log=%v", id, re.set.Live(id), deleted[id])
		}
	}
}

// compactionsRunning counts goroutines inside a shard compaction.
func compactionsRunning() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "(*Set).compactState")
}

// TestReplayFailedOpenStartsNoCompaction: deletes that cross the threshold
// followed by mid-file corruption make Open fail — and the index it throws
// away must not be left compacting in the background.
func TestReplayFailedOpenStartsNoCompaction(t *testing.T) {
	const n = 2400 // 600 rows a shard, and more deletes than one chunk
	dir, _ := saveStriped(t, n, 23)
	var recs []wal.Record
	for id := 0; id < n; id++ {
		if (id/4)%2 == 0 { // half of every shard
			recs = append(recs, wal.Record{Op: wal.OpDelete, ID: uint64(id)})
		}
	}
	if len(recs) <= replayChunk {
		t.Fatalf("%d records fit in one replay chunk", len(recs))
	}
	recs = append(recs, wal.Record{Op: wal.OpDelete, ID: 1}, wal.Record{Op: wal.OpDelete, ID: 3})
	walPath := filepath.Join(dir, walName)
	writeFrames(t, walPath, recs)
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	frame := len(wal.AppendRecord(nil, recs[0]))
	raw[len(raw)-2*frame+9] ^= 0x04 // damage the payload of the next-to-last frame
	if err := os.WriteFile(walPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	goroutines, compacting := runtime.NumGoroutine(), compactionsRunning()
	if _, err := Open(dir, Options{CompactFraction: 0.1}); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("Open over a damaged frame: %v, want ErrCorrupt", err)
	}
	if got := compactionsRunning(); got > compacting {
		t.Fatalf("the failed Open left %d compactions running", got-compacting)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d after the failed Open, %d before", runtime.NumGoroutine(), goroutines)
		}
	}
}
