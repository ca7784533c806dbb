// The durability subsystem: Open / Close / Checkpoint / Save.
//
// A durable index lives in a directory holding a snapshot
// ("checkpoint.dblsh", the exact WriteTo format: v4, the trees stored as
// they are) and a write-ahead op log ("wal.log", see internal/wal) of every
// Add and Delete applied since that snapshot was cut. Open loads the newest
// checkpoint — a read, nothing is rebuilt — replays the log on top of it,
// and resumes; a crash therefore loses at most the log records the sync
// policy had not yet fsynced.
//
// Replay is per shard, deterministic and compaction-free. Records are
// decoded and checked a chunk at a time (replayChunk); each chunk is split
// by owning shard, and every shard applies its share in log order on its
// own goroutine (shard.Set.Replay). Records of different shards commute, so
// the replayed index does not depend on GOMAXPROCS or scheduling: it is,
// byte for byte, what applying the records one at a time gives. No
// compaction runs while the log is being applied — a rebuild started by a
// replayed Delete would race the replay and be thrown away by the next
// one — so the auto-compaction threshold is set after the last record, and
// once Open has succeeded every shard whose tombstones reached it gets one
// background compaction. A restart costs the checkpoint's bytes plus the
// log's index inserts spread across the shards, and an Open that fails has
// started no background work.
//
// Checkpointing rotates the active log segment aside (to "wal.<seq>.old"),
// streams a fresh snapshot through the lock-light per-shard WriteTo path to
// a temp file, fsyncs it, renames it over the old checkpoint, fsyncs the
// directory, and only then deletes the rotated segments. Every record in a
// rotated segment was applied to the in-memory index before rotation (both
// happen under the log mutex) and rotation precedes the first shard copy,
// so the new checkpoint contains all of them — and, shard by shard, whatever
// later mutations reached a shard before its copy, which the active segment
// also holds. A crash at any point in the sequence leaves either the old
// checkpoint plus every segment, or the new checkpoint plus segments whose
// replay is idempotent. Replay idempotence comes from the op set itself: ids
// are never reused, an Add re-applied over a checkpoint that already holds
// its row is skipped by residency (shard.Set.Replay), and a Delete of an
// absent or already-tombstoned id is a no-op. Because the mutex serializes
// durable Adds, a shard's copy is a prefix of its insert order, and replay
// applies the rest of that order to the stored trees.
//
// Mutations are true write-ahead, append-then-apply under one mutex: the
// record is logged (and fsynced, under SyncAlways) before the in-memory
// index is touched, so a logging failure applies nothing and the caller's
// rejection is honest, while a crash between append and apply merely leaves
// a record replay will apply. Holding the mutex across both steps makes
// append+apply atomic with respect to log rotation, which takes the same
// mutex — that is what makes the containment argument above hold. The
// in-memory write path of a durable index is therefore serialized by the
// log mutex; the log is a single append stream anyway, so shard-parallel
// application would only reorder acknowledgments, not speed them up.
// Replay is the other case: the whole log is there to be read, so it is
// applied shard-parallel.

package dblsh

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"dblsh/internal/obs"
	"dblsh/internal/wal"
)

// SyncPolicy selects when a durable index fsyncs logged mutations; it
// bounds what a crash (process or machine) can lose.
type SyncPolicy int

const (
	// SyncAlways fsyncs the op log before every mutation returns: an
	// acknowledged Add or Delete survives any crash. The default.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs in the background every Options.SyncEvery
	// (default 100ms): a crash loses at most the last interval's
	// acknowledged mutations.
	SyncInterval
	// SyncNever leaves flushing to the operating system: a process crash
	// loses nothing (the records are in the page cache), a machine crash
	// can lose everything since the last checkpoint.
	SyncNever
)

// String returns "always", "interval" or "never".
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ErrClosed is returned by mutations and durability operations on an index
// after Close.
var ErrClosed = errors.New("dblsh: index is closed")

// ErrDurability wraps an op-log write or sync failure on a durable
// mutation. The mutation was NOT applied — the in-memory index and the log
// never diverge — so retrying after the underlying condition clears (a
// full disk, say) is safe.
var ErrDurability = errors.New("dblsh: durable write failed")

// errNotDurable is returned by durability operations on a purely in-memory
// index.
var errNotDurable = errors.New("dblsh: index is not durable (build it with Open)")

// Durable-directory layout.
const (
	checkpointName    = "checkpoint.dblsh"
	checkpointTmpName = "checkpoint.dblsh.tmp"
	walName           = "wal.log"
	walOldPattern     = "wal.*.old"
)

func walOldName(seq uint64) string { return fmt.Sprintf("wal.%08d.old", seq) }

// replayChunk is how many log records Open decodes before applying them:
// enough that every shard of a chunk has a long list to apply on its own
// goroutine, few enough that the chunk's rows stay a few MB at any dim.
const replayChunk = 1024

// DurabilityStats describes a durable index's recovery state.
type DurabilityStats struct {
	// LogBytes is the total size of the op log not yet absorbed by a
	// checkpoint: the active segment plus any rotated segments a checkpoint
	// has not finished retiring.
	LogBytes int64
	// OpsSinceCheckpoint is the number of logged mutations a reopen would
	// have to replay on top of the newest checkpoint.
	OpsSinceCheckpoint int64
	// Checkpoints counts checkpoints completed since Open.
	Checkpoints int64
	// LastCheckpoint is when the newest checkpoint became durable (the
	// checkpoint file's mtime at Open, refreshed on every completed
	// checkpoint). Zero when the directory has never been checkpointed.
	LastCheckpoint time.Time
}

// durable is the per-index durability state behind Open.
type durable struct {
	dir       string
	policy    SyncPolicy
	syncEvery time.Duration
	ckptEvery time.Duration

	// mu guards the active log segment and everything that must stay
	// consistent with its record boundary: apply+append of mutations,
	// rotation, the op counter, and the rotated-segment list.
	mu       sync.Mutex
	log      *wal.Writer // dblsh:guardedby mu
	ops      int64       // dblsh:guardedby mu — logged mutations since the last completed checkpoint
	oldPaths []string    // dblsh:guardedby mu — rotated segments not yet retired by a checkpoint
	oldBytes int64       // dblsh:guardedby mu
	nextSeq  uint64      // dblsh:guardedby mu
	closed   bool        // dblsh:guardedby mu
	firstErr error       // dblsh:guardedby mu — first background/logging failure, surfaced by Close

	// ckptMu serializes checkpoints. It is always taken before mu, never
	// the other way around.
	ckptMu      sync.Mutex
	checkpoints int64     // dblsh:guardedby ckptMu
	lastCkpt    time.Time // dblsh:guardedby ckptMu

	// Replay statistics, written once during Open (before the index is
	// published) and read-only afterwards — scrape-time gauge funcs read
	// them without a lock.
	replaySegments int     // log segments replayed at Open (rotated + active)
	replayRecords  int     // records re-applied on top of the checkpoint
	replayTorn     int     // segments whose torn tail was dropped
	replaySeconds  float64 // decoding and applying the records, compactions excluded

	// walM is copied onto every log segment writer (the active one and
	// each rotation's replacement) so append/fsync metrics survive
	// rotation. ckptSeconds times complete checkpoints. Guarded by mu.
	walM        wal.Metrics    // dblsh:guardedby mu
	ckptSeconds *obs.Histogram // dblsh:guardedby mu

	stop      chan struct{}
	bg        sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

// IsStore reports whether dir holds a durable store's checkpoint — i.e.
// whether Open would resume existing data rather than create a fresh
// store. Tools that seed a directory before opening it (the server's
// -data-dir flag) use it so "is there a store here?" cannot drift from the
// library's own layout.
func IsStore(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, checkpointName))
	return err == nil
}

// Open opens (or creates) a durable index in directory dir. If dir holds a
// checkpoint it is loaded — the stored structural parameters, shard layout
// and metric win over opts, and a non-zero opts.Dim or opts.Metric that
// disagrees with the store is an error — and the op log is replayed on top
// of it, dropping a torn final record if the process died mid-append.
// Otherwise a fresh, empty index is built from opts (opts.Dim is required;
// an InnerProduct store also requires opts.NormBound, having no data to fit
// it from) and an initial checkpoint is written so the directory is
// self-describing from the start.
//
// The returned index logs every Add and Delete under opts.Sync and, when
// opts.CheckpointEvery is set, checkpoints in the background. Call Close
// before discarding it; a directory must not be open in more than one
// process at a time.
func Open(dir string, opts Options) (*Index, error) {
	if opts.Sync < SyncAlways || opts.Sync > SyncNever {
		return nil, fmt.Errorf("dblsh: unknown sync policy %d", opts.Sync)
	}
	if opts.SyncEvery < 0 || opts.CheckpointEvery < 0 {
		return nil, errors.New("dblsh: SyncEvery and CheckpointEvery must be non-negative")
	}
	if opts.Dim < 0 {
		return nil, fmt.Errorf("dblsh: Dim must be non-negative, got %d", opts.Dim)
	}
	if err := checkCompactFraction(opts.CompactFraction); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("dblsh: create %s: %w", dir, err)
	}

	idx, lastCkpt, fresh, err := loadOrInitCheckpoint(dir, opts)
	if err != nil {
		return nil, err
	}

	// Replay the op log on top of the checkpoint: rotated segments first,
	// in rotation order, then the active segment. Each record is checked as
	// it is decoded and applied with its chunk (see the file comment). The
	// rows in the log are already metric-transformed, so they re-insert
	// verbatim.
	idim := idx.set.Dim()
	chunk := make([]wal.Record, 0, replayChunk)
	collect := func(rec wal.Record) error {
		if rec.ID >= maxVectors {
			return fmt.Errorf("dblsh: implausible id %d in op log", rec.ID)
		}
		if rec.Op == wal.OpAdd && len(rec.Row) != idim {
			return fmt.Errorf("dblsh: op log row has dim %d, index dim %d", len(rec.Row), idim)
		}
		if chunk = append(chunk, rec); len(chunk) == replayChunk {
			idx.set.Replay(chunk)
			chunk = chunk[:0]
		}
		return nil
	}

	olds, nextSeq, oldBytes, err := oldSegments(dir)
	if err != nil {
		return nil, err
	}
	replayed, replaySegments, replayTorn := 0, 0, 0
	replayStart := time.Now()
	for _, p := range olds {
		// A torn tail here is the unsynced end of a segment orphaned by a
		// crash mid-checkpoint: the lost records were never acknowledged
		// durable, and every op of a given id in later segments (only ever
		// Deletes — ids are not reused) degrades to a no-op, so continuing
		// with the next segment is safe.
		res, err := wal.Replay(p, idim, collect)
		if err != nil {
			return nil, fmt.Errorf("dblsh: replay %s: %w", p, err)
		}
		replayed += res.Records
		replaySegments++
		if res.Torn {
			replayTorn++
		}
	}
	walPath := filepath.Join(dir, walName)
	var goodOffset int64
	if res, err := wal.Replay(walPath, idim, collect); err == nil {
		goodOffset = res.GoodOffset
		replayed += res.Records
		replaySegments++
		if res.Torn {
			replayTorn++
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("dblsh: replay %s: %w", walPath, err)
	}
	idx.set.Replay(chunk)
	replaySeconds := time.Since(replayStart).Seconds()
	// The threshold is operational, not persisted state: the caller's
	// applies from here on, and what it owes is scheduled below.
	idx.set.SetCompactFraction(opts.CompactFraction)

	// Truncate the torn tail (if any) so new frames append after the last
	// intact record.
	log, err := wal.OpenWriter(walPath, goodOffset)
	if err != nil {
		return nil, fmt.Errorf("dblsh: open op log: %w", err)
	}

	d := &durable{
		dir:            dir,
		policy:         opts.Sync,
		syncEvery:      opts.SyncEvery,
		ckptEvery:      opts.CheckpointEvery,
		log:            log,
		ops:            int64(replayed),
		oldPaths:       olds,
		oldBytes:       oldBytes,
		nextSeq:        nextSeq,
		lastCkpt:       lastCkpt,
		replaySegments: replaySegments,
		replayRecords:  replayed,
		replayTorn:     replayTorn,
		replaySeconds:  replaySeconds,
		stop:           make(chan struct{}),
	}
	idx.dur = d

	// A fresh directory gets its initial (empty) checkpoint; leftover
	// rotated segments mean a crash interrupted a checkpoint — finish that
	// job now so the log stops accreting history.
	if fresh || len(olds) > 0 {
		if err := idx.Checkpoint(); err != nil {
			idx.Close()
			return nil, err
		}
	}
	d.start(idx)
	scheduled := idx.set.CompactOwed()
	if replayed > 0 {
		// Replay is the restart cost an operator waits out: a replayed add
		// is a full index insert, so the rate is the write path's times the
		// shards that apply in parallel.
		slog.Info("dblsh: replayed op log", "dir", dir, "records", replayed,
			"segments", replaySegments, "torn_segments", replayTorn,
			"seconds", replaySeconds, "records_per_s", float64(replayed)/replaySeconds,
			"compactions_scheduled", scheduled)
	}
	return idx, nil
}

// loadOrInitCheckpoint loads dir's checkpoint, or builds the fresh empty
// index a checkpoint-less directory starts from.
func loadOrInitCheckpoint(dir string, opts Options) (idx *Index, lastCkpt time.Time, fresh bool, err error) {
	path := filepath.Join(dir, checkpointName)
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		if opts.Dim == 0 {
			return nil, time.Time{}, false, fmt.Errorf("dblsh: %s has no checkpoint; creating a store requires Options.Dim", dir)
		}
		if Metric(opts.Metric) == InnerProduct && opts.NormBound == 0 {
			return nil, time.Time{}, false, errors.New("dblsh: creating an empty InnerProduct store requires Options.NormBound (no data to fit it from)")
		}
		idx, err := newIndex(nil, 0, opts.Dim, opts)
		if err != nil {
			return nil, time.Time{}, false, err
		}
		return idx, time.Time{}, true, nil
	}
	if err != nil {
		return nil, time.Time{}, false, err
	}
	defer f.Close()
	idx, err = Read(f)
	if err != nil {
		return nil, time.Time{}, false, fmt.Errorf("dblsh: load checkpoint %s: %w", path, err)
	}
	if opts.Dim != 0 && opts.Dim != idx.Dim() {
		return nil, time.Time{}, false, fmt.Errorf("dblsh: Options.Dim is %d but the store holds %d-dimensional vectors", opts.Dim, idx.Dim())
	}
	if opts.Metric != 0 && Metric(opts.Metric) != idx.Metric() {
		return nil, time.Time{}, false, fmt.Errorf("dblsh: Options.Metric is %s but the store was built with %s", Metric(opts.Metric), idx.Metric())
	}
	if fi, err := os.Stat(path); err == nil {
		lastCkpt = fi.ModTime()
	}
	return idx, lastCkpt, false, nil
}

// oldSegments lists dir's rotated log segments in rotation order, the next
// free sequence number, and their total size.
func oldSegments(dir string) (paths []string, nextSeq uint64, bytes int64, err error) {
	paths, err = filepath.Glob(filepath.Join(dir, walOldPattern))
	if err != nil {
		return nil, 0, 0, err
	}
	sort.Strings(paths) // zero-padded sequence numbers sort lexically
	for _, p := range paths {
		var seq uint64
		if _, err := fmt.Sscanf(filepath.Base(p), "wal.%d.old", &seq); err == nil && seq >= nextSeq {
			nextSeq = seq + 1
		}
		if fi, err := os.Stat(p); err == nil {
			bytes += fi.Size()
		}
	}
	return paths, nextSeq, bytes, nil
}

// start launches the policy's background goroutines.
func (d *durable) start(idx *Index) {
	if d.policy == SyncInterval {
		every := d.syncEvery
		if every <= 0 {
			every = 100 * time.Millisecond
		}
		d.bg.Add(1)
		go func() {
			defer d.bg.Done()
			t := time.NewTicker(every)
			defer t.Stop()
			for {
				select {
				case <-d.stop:
					return
				case <-t.C:
					d.mu.Lock()
					if !d.closed {
						d.note(d.log.Sync())
					}
					d.mu.Unlock()
				}
			}
		}()
	}
	if d.ckptEvery > 0 {
		d.bg.Add(1)
		go func() {
			defer d.bg.Done()
			t := time.NewTicker(d.ckptEvery)
			defer t.Stop()
			for {
				select {
				case <-d.stop:
					return
				case <-t.C:
					d.mu.Lock()
					pending := d.ops > 0
					d.mu.Unlock()
					if pending {
						if err := d.checkpoint(idx); err != nil && !errors.Is(err, ErrClosed) {
							d.mu.Lock()
							d.note(err)
							d.mu.Unlock()
						}
					}
				}
			}
		}()
	}
}

// setMetrics installs the durability layer's observability hooks: the WAL
// metrics carry over to every future log segment (and are attached to the
// active one), and ckptSeconds times completed checkpoints.
func (d *durable) setMetrics(wm wal.Metrics, ckptSeconds *obs.Histogram) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.walM = wm
	d.ckptSeconds = ckptSeconds
	if !d.closed {
		d.log.M = wm
	}
}

// note records the first logging/background failure. Callers hold d.mu.
//
// dblsh:locked mu
func (d *durable) note(err error) {
	if err != nil && d.firstErr == nil {
		d.firstErr = err
	}
}

// appendLocked logs one record under the active sync policy. Callers hold
// d.mu and apply the mutation to the in-memory index only after it
// returns nil — write-ahead order, so an error here means the mutation
// simply did not happen. (A failed append is rolled back, or latches the
// log; see wal.Writer.)
//
// dblsh:locked mu
func (d *durable) appendLocked(rec wal.Record) error {
	if err := d.log.Append(rec); err != nil {
		d.note(err)
		return err
	}
	d.ops++
	if d.policy == SyncAlways {
		if err := d.log.Sync(); err != nil {
			d.note(err)
			return err
		}
	}
	return nil
}

// add logs then applies an insertion; row is already metric-transformed.
// The id is read off the allocator before logging: every allocation path of
// a durable index runs under d.mu, so the subsequent Add is guaranteed to
// hand out exactly that id.
func (d *durable) add(idx *Index, row []float32) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0, ErrClosed
	}
	g := idx.set.NextID()
	if err := d.appendLocked(wal.Record{Op: wal.OpAdd, ID: uint64(g), Row: row}); err != nil {
		return 0, fmt.Errorf("%w: %w", ErrDurability, err)
	}
	if got := idx.set.Add(row); got != g {
		panic(fmt.Sprintf("dblsh: durable add logged id %d but allocated %d", g, got))
	}
	return g, nil
}

// delete logs then applies a tombstone. The liveness pre-check under d.mu
// keeps no-op deletes out of the log and lets a logging failure report
// honestly: nothing was applied, nothing was logged.
func (d *durable) delete(idx *Index, g int) (bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return false, ErrClosed
	}
	if !idx.set.Live(g) {
		return false, nil
	}
	if err := d.appendLocked(wal.Record{Op: wal.OpDelete, ID: uint64(g)}); err != nil {
		return false, fmt.Errorf("%w: %w", ErrDurability, err)
	}
	if !idx.set.Delete(g) {
		panic(fmt.Sprintf("dblsh: durable delete of live id %d failed to apply", g))
	}
	return true, nil
}

// Durability reports the index's recovery state; ok is false for a purely
// in-memory index.
func (idx *Index) Durability() (st DurabilityStats, ok bool) {
	d := idx.dur
	if d == nil {
		return DurabilityStats{}, false
	}
	d.mu.Lock()
	st = DurabilityStats{
		LogBytes:           d.log.Size() + d.oldBytes,
		OpsSinceCheckpoint: d.ops,
	}
	d.mu.Unlock()
	d.ckptMu.Lock()
	st.Checkpoints = d.checkpoints
	st.LastCheckpoint = d.lastCkpt
	d.ckptMu.Unlock()
	return st, true
}

// Checkpoint rewrites the durable snapshot and truncates the op log. The
// index serves reads and writes throughout: the snapshot streams one shard
// at a time under that shard's read lock (the WriteTo path), and the log
// only pauses for the rotation instant. It is a no-op when nothing changed
// since the last checkpoint. On a purely in-memory index it returns an
// error; use Save to snapshot one into a directory.
func (idx *Index) Checkpoint() error {
	if idx.dur == nil {
		return errNotDurable
	}
	return idx.dur.checkpoint(idx)
}

func (d *durable) checkpoint(idx *Index) error {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	start := time.Now()

	// Rotate the active segment aside so the log from here on belongs to
	// the next checkpoint. Everything rotated out was applied before this
	// instant and is therefore contained in the snapshot cut below.
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrClosed
	}
	opsRotated := d.ops
	if d.log.Size() > 0 {
		// The rotation is ordered so that any single transient failure
		// leaves the active log fully usable and the checkpoint retryable:
		// rename the still-open segment first (the fd follows the inode, so
		// d.log keeps working whichever name the file has), and only commit
		// to the rotation once the fresh segment exists — rolling the
		// rename back otherwise.
		walPath := filepath.Join(d.dir, walName)
		oldPath := filepath.Join(d.dir, walOldName(d.nextSeq))
		size := d.log.Size()
		if err := os.Rename(walPath, oldPath); err != nil {
			d.note(err)
			d.mu.Unlock()
			return err
		}
		fresh, err := wal.OpenWriter(walPath, 0)
		if err == nil {
			fresh.M = d.walM
		}
		if err != nil {
			d.note(err)
			if rerr := os.Rename(oldPath, walPath); rerr != nil {
				// Appends keep landing in the mis-named segment; an open-time
				// glob recovers it after restart, and nothing deletes it in
				// this process (it is not in oldPaths).
				d.note(rerr)
			}
			d.mu.Unlock()
			return err
		}
		old := d.log
		d.log = fresh
		d.nextSeq++
		d.oldPaths = append(d.oldPaths, oldPath)
		d.oldBytes += size
		if err := old.Close(); err != nil {
			// The rotated segment's tail may not be fsynced; its ops are in
			// the snapshot below regardless, so this only narrows the
			// crash-before-checkpoint window the sync policy already allows.
			d.note(err)
		}
	}
	hasOld := len(d.oldPaths) > 0
	d.mu.Unlock()

	if opsRotated == 0 && !hasOld {
		if _, err := os.Stat(filepath.Join(d.dir, checkpointName)); err == nil {
			return nil // nothing new since the last checkpoint
		}
	}

	if err := writeCheckpoint(idx, d.dir); err != nil {
		return err
	}

	// The snapshot is durable: the rotated segments' history is absorbed.
	d.mu.Lock()
	for _, p := range d.oldPaths {
		if err := os.Remove(p); err != nil {
			d.note(err)
		}
	}
	d.oldPaths = nil
	d.oldBytes = 0
	d.ops -= opsRotated
	ckptSeconds := d.ckptSeconds
	d.mu.Unlock()
	d.checkpoints++
	d.lastCkpt = time.Now()
	ckptSeconds.Observe(time.Since(start).Seconds())
	return nil
}

// writeCheckpoint streams idx's snapshot into dir's checkpoint slot:
// write to a temp file, fsync it, rename it over the previous checkpoint,
// fsync the directory — a crash at any point leaves one intact checkpoint.
func writeCheckpoint(idx *Index, dir string) error {
	tmp := filepath.Join(dir, checkpointTmpName)
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("dblsh: checkpoint: %w", err)
	}
	if _, err := idx.WriteTo(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("dblsh: checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("dblsh: checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("dblsh: checkpoint: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, checkpointName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("dblsh: checkpoint: %w", err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable.
func syncDir(dir string) error {
	df, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer df.Close()
	return df.Sync()
}

// Save writes the index as the checkpoint of directory dir (created if
// needed), making dir openable with Open — the bridge from an in-memory
// index (New, NewFromFlat, Read) to a durable store, and a way to seed or
// migrate one. The write is atomic: temp file, fsync, rename. Save does not
// attach durability to the receiver; reopen the directory with Open for
// that.
func (idx *Index) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return fmt.Errorf("dblsh: create %s: %w", dir, err)
	}
	return writeCheckpoint(idx, dir)
}

// Close flushes and closes a durable index's op log and stops its
// background goroutines, then returns the first logging or checkpointing
// failure encountered over the index's lifetime, if any. The index remains
// searchable, but Add and DeleteWithError return ErrClosed. On a
// purely in-memory index Close is a no-op. Close is idempotent.
func (idx *Index) Close() error {
	d := idx.dur
	if d == nil {
		return nil
	}
	d.closeOnce.Do(func() {
		close(d.stop)
		d.bg.Wait()
		d.mu.Lock()
		d.closed = true
		err := d.log.Close() // syncs pending frames first
		if err == nil {
			err = d.firstErr
		}
		d.mu.Unlock()
		d.closeErr = err
	})
	return d.closeErr
}
