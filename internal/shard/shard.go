// Package shard serves one DB-LSH index (a core.Index) to concurrent
// callers: it guards the index with one RWMutex, maps global ids to the
// index's dense local ids, and rebuilds the index online when adds or
// deletes have left it owing a repack.
//
// # Queries
//
// A query is core's round driver (core.Search, core.SearchRadius) over the
// one part the index is. This package supplies only what the part needs:
// the read lock, taken for one round and released between rounds (so a
// mutation waits for at most one round of each running query, and a query
// for at most one mutation per round), the core searcher for the current
// index, and the local→global id map.
//
// The package once striped the rows over S independent indexes. A query
// then walked S·L trees per round for the same candidates: on a clustered
// 100 000 × 128 corpus at k = 10, S = 4 visited 330.9 nodes per query
// against one index's 235.4, at a median of 114 µs against 67 µs (2-vCPU
// amd64 box). One index is what is left.
//
// # Compaction
//
// Compaction rebuilds the index from its live rows, dropping tombstone debt
// and folding the rows added since the last pack, which wait in the trees'
// tails, into a fresh STR pack. The index keeps serving throughout: the
// live rows and their projections, gathered out of the trees' leaves, are
// copied under the read lock, packed with no lock held, and swapped in
// under the write lock, held just long enough to replay the mutations that
// raced the rebuild. This turns the paper's offline full rebuild into an
// online operation. An add schedules one in the background once the tail
// holds half its capacity; an add that finds the tail full repacks it
// inline (core.Index.Insert). Close waits for the background compaction in
// flight and schedules none after it.
//
// # Identity
//
// Callers address points by global id; the index stores points under dense
// local ids. Ids are allocated under the write lock, in the order rows join
// the index, so the local → global map (globals) ascends, and a compaction,
// which keeps the live rows in order, keeps it ascending: global → local is
// a binary search.
//
// # Locking
//
// The write lock guards the index, the id map and the id allocator's
// writes. Persistence (Snapshot) copies the index under the read lock.
// compactMu serializes compactions and is never taken while holding the
// index lock.
//
// The locking discipline and the deterministic visit order are enforced by
// dblsh-lint (guardedby and detorder analyzers).
//
// dblsh:deterministic
package shard

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dblsh/internal/core"
	"dblsh/internal/obs"
	"dblsh/internal/rstar"
	"dblsh/internal/vec"
	"dblsh/internal/wal"
)

// autoCompactMinRows is the smallest index tombstone-driven auto-compaction
// bothers with: below this, a rebuild costs more than the tombstones it
// reclaims.
const autoCompactMinRows = 256

// Set is a concurrently served DB-LSH index. All methods are safe for
// concurrent use.
type Set struct {
	dim         int
	cfg         core.Config   // resolved against the build-time dataset size
	compactFrac atomic.Uint64 // auto-compaction threshold (float64 bits); 0 disables
	pool        sync.Pool     // of *Searcher, for SearchBatch's queries
	tailCap     int           // rows the trees' tails hold (core.Index.UnpackedCap)

	mu sync.RWMutex
	// compactMu serializes compactions. It is never taken while holding mu
	// (compaction acquires mu only in short windows), so a waiting
	// compaction never blocks traffic.
	compactMu sync.Mutex
	idx       *core.Index // dblsh:guardedby mu
	// globals maps local id → global id. It ascends: ids are allocated
	// under mu in insertion order, and compaction keeps the rows in order.
	globals []int // dblsh:guardedby mu
	// nextID is the global-id-space bound: the next id Add hands out. It
	// is written under mu and read without it.
	nextID         atomic.Int64
	compactions    int       // dblsh:guardedby mu
	lastCompaction time.Time // dblsh:guardedby mu

	// bgMu guards closed and the scheduling of background compactions, so
	// that Close's wait sees every compaction scheduled before it.
	bgMu       sync.Mutex
	closed     bool           // dblsh:guardedby bgMu
	bg         sync.WaitGroup // background compactions in flight
	compacting atomic.Bool    // single-flight guard for auto-compaction

	// metrics is the optional compaction observability hook set, swapped
	// in atomically so SetMetrics is safe while background auto-compaction
	// is already running.
	metrics atomic.Pointer[Metrics]
}

// Metrics reports the set's compaction and write-path activity. Fields are
// optional (obs metric types are nil-safe).
type Metrics struct {
	// InsertSeconds is how long an Add (or a replayed one) holds the write
	// lock inside the index insert — the stall it imposes on searches.
	InsertSeconds *obs.Histogram
	// CompactionRuns counts completed compactions that actually rebuilt the
	// index (a clean index short-circuits and is not counted), and the
	// inline repacks of adds that found a tail full.
	CompactionRuns *obs.Counter
	// CompactionSeconds is the duration distribution of those rebuilds; an
	// inline repack's is the whole add that ran it.
	CompactionSeconds *obs.Histogram
}

// SetMetrics installs (or replaces) the set's metrics. Safe to call
// at any time, including while compactions are in flight.
func (s *Set) SetMetrics(m Metrics) {
	s.metrics.Store(&m)
}

// SetCompactFraction replaces the auto-compaction threshold: a Delete that
// pushes the tombstoned fraction to f schedules a background rebuild. 0
// disables. Safe to call at any time; a loaded index starts with the policy
// disabled because the threshold is an operational knob, not part of the
// persisted state.
func (s *Set) SetCompactFraction(f float64) {
	s.compactFrac.Store(math.Float64bits(f))
}

// CompactFraction returns the current auto-compaction threshold.
func (s *Set) CompactFraction() float64 {
	return math.Float64frombits(s.compactFrac.Load())
}

// newSet returns the set serving idx, whose local ids map to globals.
func newSet(dim int, cfg core.Config, compactFrac float64, idx *core.Index, globals []int, nextID int) *Set {
	s := &Set{dim: dim, cfg: cfg, idx: idx, globals: globals, tailCap: idx.UnpackedCap()}
	s.SetCompactFraction(compactFrac)
	s.nextID.Store(int64(nextID))
	s.pool.New = func() interface{} { return s.NewSearcher() }
	return s
}

// Build constructs the set over n vectors of dimension dim stored row-major
// in flat, which is wrapped without copying (the library's zero-copy
// contract): row g has global id g. shards is ignored; it is kept because
// benchmark/layers.go still passes a stripe count. compactFrac > 0 enables
// automatic background compaction once the tombstoned fraction reaches the
// threshold.
func Build(flat []float32, n, dim, shards int, compactFrac float64, cfg core.Config) *Set {
	cfg = cfg.Resolved(n)
	globals := make([]int, n)
	for g := range globals {
		globals[g] = g
	}
	idx := core.Build(vec.WrapMatrix(flat, n, dim), cfg)
	return newSet(dim, cfg, compactFrac, idx, globals, n)
}

// Part is the index's serialized state, used to restore a persisted set.
type Part struct {
	Flat    []float32 // rows·dim vector payload, local-id order; read-only
	Rows    int
	Globals []int  // local id → global id, ascending
	Deleted []bool // tombstones by local id; may be nil or short
	R0      float64
	// Trees holds the index's L R*-tree arenas, which Restore loads as they
	// are.
	Trees []rstar.Arena
	// NextID is the global-id-space bound when the part was taken.
	NextID int
}

// Restore loads a set from a persisted part. cfg carries the stored
// structural parameters and seed; p.NextID is the persisted global-id-space
// bound (ids ≥ it have never been allocated), and p.Globals must ascend
// below it. The error is the trees failing core.Load's validation.
func Restore(dim int, compactFrac float64, cfg core.Config, p Part) (*Set, error) {
	cfg = cfg.Resolved(p.Rows)
	c := cfg
	c.InitialRadius = p.R0
	idx, err := core.Load(vec.WrapMatrix(p.Flat, p.Rows, dim), c, p.Trees)
	if err != nil {
		return nil, err
	}
	for local, dead := range p.Deleted {
		if dead && local < p.Rows {
			idx.Delete(local)
		}
	}
	return newSet(dim, cfg, compactFrac, idx, slices.Clone(p.Globals), p.NextID), nil
}

// Dim returns the vector dimensionality.
func (s *Set) Dim() int { return s.dim }

// Params returns the resolved build configuration.
func (s *Set) Params() core.Config { return s.cfg }

// NextID returns the global-id-space bound: every id ever returned by Add
// (and every build-time id) is below it.
func (s *Set) NextID() int { return int(s.nextID.Load()) }

// Len returns the number of resident vectors (live + tombstoned). It never
// exceeds NextID but can fall short of it: compaction reclaims tombstoned
// rows, and WAL replay skips records whose rows were lost to an unsynced
// tail — in every case the missing ids stay unallocated forever rather than
// being reused.
func (s *Set) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.idx.Size()
}

// Deleted returns the number of tombstoned vectors.
func (s *Set) Deleted() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.idx.Deleted()
}

// Unpacked returns the number of rows in the trees' tails, added since the
// index was last packed.
func (s *Set) Unpacked() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.idx.Unpacked()
}

// IndexSizeBytes returns the trees' footprint.
func (s *Set) IndexSizeBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.idx.IndexSizeBytes()
}

// Add inserts a vector and returns its global id, allocated under the
// write lock.
func (s *Set) Add(v []float32) int {
	if len(v) != s.dim {
		panic(fmt.Sprintf("shard: insert dim %d, index dim %d", len(v), s.dim))
	}
	s.mu.Lock()
	g := s.NextID()
	s.insert(g, v, s.metrics.Load())
	owes := s.owesLocked()
	s.mu.Unlock()
	if owes {
		s.schedule()
	}
	return g
}

// insert indexes v under global id g, which must exceed every resident id,
// and moves the id allocator past it. Callers hold s.mu for writing, so the
// time spent in the index insert — a hash and L appends, or an inline
// repack when the tails are full — is time every search waits;
// m.InsertSeconds records it.
//
// dblsh:locked mu
func (s *Set) insert(g int, v []float32, m *Metrics) {
	var start time.Time
	if m != nil {
		start = time.Now()
	}
	repacks := s.idx.Unpacked() == s.idx.UnpackedCap()
	s.idx.Insert(v)
	if m != nil {
		d := time.Since(start).Seconds()
		m.InsertSeconds.Observe(d)
		if repacks { // the insert repacked a full tail inline
			m.CompactionRuns.Inc()
			m.CompactionSeconds.Observe(d)
		}
	}
	s.globals = append(s.globals, g)
	s.nextID.Store(int64(max(s.NextID(), g+1)))
}

// local returns the local id of global g, or -1 when g is not resident
// (never allocated, or compacted away). Callers hold s.mu.
//
// dblsh:locked mu
func (s *Set) local(g int) int {
	if l, ok := slices.BinarySearch(s.globals, g); ok {
		return l
	}
	return -1
}

// Replay applies a chunk of logged mutations, in log order, under one hold
// of the write lock. An add lands under the id it was acknowledged with and
// advances the id allocator past it; an add whose id does not exceed every
// resident id is skipped, because its row is either resident already (the
// record describes a row a checkpoint holds) or was deleted and compacted
// away before the checkpoint was cut. A delete of an absent or tombstoned
// id is a no-op. Nothing schedules a compaction: the caller holds
// auto-compaction until its last chunk is in and then calls CompactOwed.
// The caller has checked the records (an add's row has the set's
// dimension); Replay keeps no reference to recs.
func (s *Set) Replay(recs []wal.Record) {
	m := s.metrics.Load()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range recs {
		g := int(r.ID)
		switch r.Op {
		case wal.OpAdd:
			if n := len(s.globals); n == 0 || g > s.globals[n-1] {
				s.insert(g, r.Row, m)
			}
		case wal.OpDelete:
			if l := s.local(g); l >= 0 {
				s.idx.Delete(l)
			}
		}
	}
}

// Live reports whether global id g is resident and not tombstoned — i.e.
// whether a Delete of g would succeed. The durability layer consults it
// before logging a Delete record, so the op log never carries records for
// mutations that were going to be no-ops.
func (s *Set) Live(g int) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	l := s.local(g)
	return l >= 0 && !s.idx.IsDeleted(l)
}

// Delete tombstones global id g, returning false when g was never
// allocated, is already tombstoned, or was reclaimed by a compaction. When
// the set has a compaction threshold, crossing it schedules a background
// compaction.
func (s *Set) Delete(g int) bool {
	s.mu.Lock()
	l := s.local(g)
	deleted := l >= 0 && s.idx.Delete(l)
	owes := deleted && s.owesLocked()
	s.mu.Unlock()
	if owes {
		s.schedule()
	}
	return deleted
}

// owesLocked reports whether the index owes a compaction: its tails hold
// half their capacity, or its tombstoned fraction has reached the threshold
// (which 0 disables). The tail's half is a fixed share, not an option: far
// enough from full that the rebuild finishes before an add has to repack
// inline, and every tail row a query walks costs it about a leaf test in L
// trees. Callers hold s.mu.
//
// dblsh:locked mu
func (s *Set) owesLocked() bool {
	if 2*s.idx.Unpacked() >= s.tailCap {
		return true
	}
	size, frac := s.idx.Size(), s.CompactFraction()
	return frac > 0 && size >= autoCompactMinRows && float64(s.idx.Deleted()) >= frac*float64(size)
}

// owes is owesLocked under the read lock.
func (s *Set) owes() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.owesLocked()
}

// schedule starts a background compaction unless one is in flight or the
// set is closed, and reports whether it did.
func (s *Set) schedule() bool {
	s.bgMu.Lock()
	defer s.bgMu.Unlock()
	if s.closed || !s.compacting.CompareAndSwap(false, true) {
		return false
	}
	s.bg.Add(1)
	go func() {
		defer s.bg.Done()
		s.compact()
		s.compacting.Store(false)
		// The mutations that raced the rebuild were replayed onto it, and
		// those that found this one in flight scheduled nothing: what they
		// left may owe another.
		if s.owes() {
			s.schedule()
		}
	}()
	return true
}

// CompactOwed schedules a background compaction when the index owes one —
// one that the records Replay applied did not schedule — and reports
// whether it did.
func (s *Set) CompactOwed() bool {
	return s.owes() && s.schedule()
}

// Close waits for the background compaction in flight, if any, and keeps
// any from being scheduled after it. The set stays usable: Compact still
// compacts, and a full tail still repacks inline.
func (s *Set) Close() {
	s.bgMu.Lock()
	s.closed = true
	s.bgMu.Unlock()
	s.bg.Wait()
}

// Compact rebuilds the index from its live rows, dropping all tombstones
// and repacking its tails, while it keeps serving. Global ids are
// preserved. It returns the number of tombstones reclaimed (0 when there
// were none, whether or not it repacked).
//
// The rebuild is online: the live rows and their projections are copied
// under the read lock (searches unaffected, mutations wait only for the
// copy), the replacement index is packed with no lock held, and the write
// lock is taken just long enough to replay the mutations that raced the
// build and swap the index in. Nothing is hashed: the projections come out
// of the old trees' leaves (core.Index.Projections), and the new index is
// core.Build's over the same rows, node for node.
func (s *Set) Compact() int { return s.compact() }

func (s *Set) compact() int {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	// Snapshot the live rows and their projections under the read lock.
	s.mu.RLock()
	old := s.idx
	if old.Deleted() == 0 && old.Unpacked() == 0 {
		s.mu.RUnlock()
		return 0
	}
	start := time.Now()
	defer func() {
		if m := s.metrics.Load(); m != nil {
			m.CompactionRuns.Inc()
			m.CompactionSeconds.Observe(time.Since(start).Seconds())
		}
	}()
	live, oldLocals := old.LiveRows()
	projected := old.Projections(oldLocals)
	snapGlobals := make([]int, len(oldLocals))
	for j, ol := range oldLocals {
		snapGlobals[j] = s.globals[ol]
	}
	snapSize := old.Size()
	s.mu.RUnlock()

	// Rebuild with no locks held; the index serves reads and writes
	// throughout. compactMu keeps concurrent compactions from racing each
	// other, so old == s.idx still holds at swap time.
	c := s.cfg
	c.InitialRadius = 0 // re-estimate from the compacted content
	fresh := core.Repack(live, projected, c)

	// Swap under the write lock, replaying whatever raced the build: rows
	// appended after the snapshot, and tombstones laid on snapshot rows.
	s.mu.Lock()
	defer s.mu.Unlock()
	for j, ol := range oldLocals {
		if old.IsDeleted(ol) {
			fresh.Delete(j)
		}
	}
	newGlobals := snapGlobals
	for local := snapSize; local < old.Size(); local++ {
		nl := fresh.Insert(old.Data().Row(local))
		newGlobals = append(newGlobals, s.globals[local])
		if old.IsDeleted(local) {
			fresh.Delete(nl)
		}
	}
	reclaimed := old.Size() - fresh.Size()
	s.idx = fresh
	s.globals = newGlobals
	s.compactions++
	s.lastCompaction = time.Now()
	return reclaimed
}

// Info describes the index's current state.
type Info struct {
	Size           int // resident vectors (live + tombstoned)
	Live           int
	Deleted        int
	Unpacked       int // rows in the trees' tails, not yet repacked
	Compactions    int
	LastCompaction time.Time // zero until the first compaction
	IndexSizeBytes int64
}

// Info reports the index's statistics.
func (s *Set) Info() Info {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Info{
		Size:           s.idx.Size(),
		Live:           s.idx.Live(),
		Deleted:        s.idx.Deleted(),
		Unpacked:       s.idx.Unpacked(),
		Compactions:    s.compactions,
		LastCompaction: s.lastCompaction,
		IndexSizeBytes: s.idx.IndexSizeBytes(),
	}
}

// Snapshot takes the index's resident rows, their global ids and tombstones,
// its trees' arenas and the id-space bound into a Part, under the read lock,
// so the part is the index as it stood at one instant and its trees index
// exactly its rows. The arenas, ids and tombstones are copied — a memcpy, not
// a walk: inserts rewrite arenas in place, and deletes lay tombstones. The
// rows are viewed instead, capacity capped at their length, because the rows
// are append-only: vec.Matrix.Append, under the write lock, is the one writer
// of a live index's matrix and writes only past the view; SetRow only fills
// matrices no index holds yet; compaction swaps in a new matrix and leaves the
// old one as it was; and NewFromFlat's zero-copy rows are the caller's not to
// mutate. The cap makes an Append onto a restored copy of the part reallocate
// rather than write into the live index's array. Persistence streams the part
// with no lock held, so serializing a large index never stalls traffic.
func (s *Set) Snapshot() Part {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rows := s.idx.Data().Data()
	p := Part{
		Rows:    len(s.globals),
		R0:      s.idx.InitialRadius(),
		Flat:    rows[:len(rows):len(rows)],
		Globals: slices.Clone(s.globals),
		Trees:   s.idx.Trees(),
		NextID:  s.NextID(),
	}
	if s.idx.Deleted() > 0 {
		p.Deleted = slices.Clone(s.idx.DeletedBits())
	}
	return p
}

// Searcher is a reusable query context: a core searcher running the index's
// part of core's round driver. It must be used from one goroutine at a time.
type Searcher struct {
	set  *Set
	cs   *core.Searcher
	seen *core.Index // which core index cs is bound to
	part core.Part
	last core.Stats
}

// NewSearcher returns a searcher bound to the set. The core searcher is
// created lazily and transparently replaced when a compaction swaps the
// underlying index. An idle searcher (e.g. parked in a pool) keeps the
// index it last touched reachable until its next use or until the pool is
// dropped by GC — a deliberate trade: releasing eagerly would need weak
// references threaded through the core searcher, and the retention is
// bounded by two GC cycles for pooled searchers.
func (s *Set) NewSearcher() *Searcher {
	sr := &Searcher{set: s}
	sr.part = core.Part{Lock: &s.mu, Bind: sr.bind}
	return sr
}

// bind is the part's core.Part.Bind: the core searcher for the current
// index — a new one when a compaction has replaced it — and the local→global
// id map. Callers hold the set's lock.
//
// dblsh:locked mu
func (sr *Searcher) bind() (*core.Searcher, []int) {
	if sr.seen != sr.set.idx {
		sr.cs = sr.set.idx.NewSearcher()
		sr.seen = sr.set.idx
	}
	return sr.cs, sr.set.globals
}

// LastStats reports the most recent query's statistics: candidates
// verified, rounds run, and the final radius of the ladder.
func (sr *Searcher) LastStats() core.Stats { return sr.last }

// Search answers a (c,k)-ANN query: core.Search over the index's part. A
// non-nil error (context expiry) still comes with the best candidates found
// before cancellation.
func (sr *Searcher) Search(q []float32, k int, p core.QueryParams) ([]vec.Neighbor, error) {
	core.CheckQuery(q, sr.set.dim, k)
	nbs, st, err := core.Search(&sr.part, q, k, p)
	sr.last = st
	return nbs, err
}

// SearchRadius answers a single (r,c)-NN query (Algorithm 1):
// core.SearchRadius over the index's part, with a candidate budget of
// 2tL+1.
func (sr *Searcher) SearchRadius(q []float32, r float64, p core.QueryParams) (vec.Neighbor, bool, error) {
	core.CheckQuery(q, sr.set.dim, 1)
	nb, ok, st, err := core.SearchRadius(&sr.part, q, r, p)
	sr.last = st
	return nb, ok, err
}

// SearchBatch answers many queries through core.Each, GOMAXPROCS at a
// time, the caller's goroutine among the workers; each query draws a
// Searcher from the set's pool. results[i] and stats[i] correspond to
// queries[i]. A query that errs (context expiry) leaves a nil result, and
// the batch goes on with the rest: which queries a batch answers does not
// depend on the worker count, and once a context is cancelled the rest are
// near-free. The error of the lowest-index query that erred is returned
// alongside the queries answered. The queries must pass core.CheckQuery. A
// query that panics (a Filter's panic) does so after every other query has
// finished, on the caller's goroutine, with the lock released.
func (s *Set) SearchBatch(queries [][]float32, k int, p core.QueryParams) ([][]vec.Neighbor, []core.Stats, error) {
	n := len(queries)
	out := make([][]vec.Neighbor, n)
	stats := make([]core.Stats, n)
	errs := make([]error, n)
	core.Each(n, func(i int) error {
		sr := s.pool.Get().(*Searcher)
		defer s.pool.Put(sr)
		if nbs, err := sr.Search(queries[i], k, p); err != nil {
			errs[i] = err
		} else {
			out[i], stats[i] = nbs, sr.last
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return out, stats, err
		}
	}
	return out, stats, nil
}
