// Package shard partitions a DB-LSH index across S independent core shards.
// Each shard is a complete core.Index over a disjoint stripe of the
// dataset, guarded by its own RWMutex; an Insert or Delete takes the write
// lock of exactly one shard. A query takes every shard's read lock each
// round, one shard at a time (see Queries), so a mutation delays it by at
// most the mutation's own hold of one shard per round.
//
// # Queries
//
// A query is core's round driver (core.Search, core.SearchRadius) over one
// part per shard, for every shard count, one included: every shard runs the
// same round r, cr, c²r, … in shard order, candidates merge into one global
// top-k, and one budget and one termination test apply to that merged
// state, exactly as one index spends its budget across its L trees. This
// package supplies only what a part needs: the shard's read lock, taken
// for the shard's share of one round and released between rounds (so a
// mutation waits for at most one shard-round, and a search for at most one
// mutation per shard-round), the core searcher for the shard's current
// index, and the shard's local→global id map.
//
// # Compaction
//
// Compaction rebuilds one shard from its live rows, dropping tombstone
// debt and folding the rows added since the last pack, which wait in the
// trees' tails, into a fresh STR pack. Every shard — including the one
// being compacted — keeps serving: the shard's live rows and their
// projections, gathered out of the trees' leaves, are copied under a read
// lock, packed with no locks held, and swapped in under a write lock held
// just long enough to replay the mutations that raced the rebuild. This
// turns the paper's offline full rebuild into an online per-shard
// operation. An add schedules one in the background once the shard's tail
// holds half its capacity; an add that finds the tail full repacks it
// inline (core.Index.Insert).
//
// # Identity
//
// Callers address points by global id; each shard stores points under dense
// local ids. Routing is arithmetic — global id g lives in shard g mod S —
// and never changes for the lifetime of a point, so the only mutable state
// is the local position, guarded by the owning shard's lock. Every shard
// keeps globals (local → global, append-ordered) and, lazily, a reverse map
// for when the initial stripe pattern is broken by out-of-order concurrent
// inserts or by a compaction.
//
// # Locking
//
// There is no global lock anywhere. The only cross-shard synchronization
// is the atomic global-id allocator; even persistence (SnapshotShard)
// snapshots one shard at a time. No goroutine ever holds two shard locks, so
// the lock graph is trivially acyclic.
//
// The locking discipline and the deterministic visit order are enforced by
// dblsh-lint (guardedby and detorder analyzers).
//
// dblsh:deterministic
package shard

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"dblsh/internal/core"
	"dblsh/internal/obs"
	"dblsh/internal/rstar"
	"dblsh/internal/vec"
	"dblsh/internal/wal"
)

// autoCompactMinRows is the smallest shard auto-compaction bothers with:
// below this, a rebuild costs more than the tombstones it reclaims.
const autoCompactMinRows = 256

// Set is a sharded DB-LSH index. All methods are safe for concurrent use.
type Set struct {
	dim         int
	cfg         core.Config   // resolved against the build-time dataset size
	compactFrac atomic.Uint64 // auto-compaction threshold (float64 bits); 0 disables
	shards      []*state
	nextID      atomic.Int64 // global id allocator / id-space bound
	pool        sync.Pool    // of *Searcher, for SearchBatch's queries
	tailCap     int          // rows a shard's tails hold (core.Index.UnpackedCap)

	// metrics is the optional compaction observability hook set, swapped
	// in atomically so SetMetrics is safe while background auto-compaction
	// is already running.
	metrics atomic.Pointer[Metrics]
}

// Metrics reports the set's compaction and write-path activity. Fields are
// optional (obs metric types are nil-safe).
type Metrics struct {
	// InsertSeconds is how long an Add (or a replayed one) holds its
	// shard's write lock inside the index insert — the stall it imposes on
	// that shard's searches.
	InsertSeconds *obs.Histogram
	// CompactionRuns counts completed compactions that actually rebuilt a
	// shard (clean shards short-circuit and are not counted), and the
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
// pushes a shard's tombstoned fraction to f schedules a background rebuild
// of that shard. 0 disables. Safe to call at any time; a loaded index
// starts with the policy disabled because the threshold is an operational
// knob, not part of the persisted state.
func (s *Set) SetCompactFraction(f float64) {
	s.compactFrac.Store(math.Float64bits(f))
}

// CompactFraction returns the current auto-compaction threshold.
func (s *Set) CompactFraction() float64 {
	return math.Float64frombits(s.compactFrac.Load())
}

// state is one shard: a core index plus the id mapping and its lock.
type state struct {
	mu sync.RWMutex
	// compactMu serializes compactions of this shard. It is never taken
	// while holding mu (compaction acquires mu only in short windows), so a
	// waiting compaction never blocks traffic.
	compactMu sync.Mutex
	idx       *core.Index // dblsh:guardedby mu
	seed      int64       // this shard's hash seed (base seed + shard offset)

	// globals maps local id → global id in append order. localOf is the
	// reverse map, materialized lazily: while it is nil the mapping is the
	// pure stripe local j ↔ global j·S+offset and lookups are arithmetic.
	// The first out-of-order insert or compaction materializes the map.
	globals []int       // dblsh:guardedby mu
	localOf map[int]int // dblsh:guardedby mu
	offset  int         // this shard's index in the set

	compacting     atomic.Bool // single-flight guard for auto-compaction
	compactions    int         // dblsh:guardedby mu
	lastCompaction time.Time   // dblsh:guardedby mu
}

// local returns the local id of global g, or -1 when g is not resident
// (never routed here, or compacted away). Callers hold st.mu.
//
// dblsh:locked mu
func (st *state) local(g, stride int) int {
	if st.localOf != nil {
		if l, ok := st.localOf[g]; ok {
			return l
		}
		return -1
	}
	j := (g - st.offset) / stride
	if j >= 0 && j < len(st.globals) && st.globals[j] == g {
		return j
	}
	return -1
}

// materialize builds the explicit reverse map. Callers hold st.mu for
// writing.
//
// dblsh:locked mu
func (st *state) materialize() {
	if st.localOf != nil {
		return
	}
	st.localOf = make(map[int]int, len(st.globals))
	for j, g := range st.globals {
		st.localOf[g] = j
	}
}

// shardSeed derives shard i's hash seed from the set's base seed. Shard 0
// uses the base seed itself, so a single-shard set is bit-identical to an
// unsharded core build.
func shardSeed(base int64, i int) int64 { return base + int64(i) }

// Build constructs a set of `shards` shards over n vectors of dimension dim
// stored row-major in flat, striping rows round-robin: row g goes to shard
// g mod S. With shards == 1 the flat slice is wrapped without copying
// (preserving the library's zero-copy contract); with more shards each
// shard copies its stripe into a contiguous matrix. The shards build
// through core.Each, GOMAXPROCS at a time. compactFrac > 0 enables
// automatic background compaction of a shard once its tombstoned fraction
// reaches the threshold.
//
// dblsh:exclusive the set is under construction and unpublished; the
// core.Each items partition the shards, so no state is shared
func Build(flat []float32, n, dim, shards int, compactFrac float64, cfg core.Config) *Set {
	if n > 0 && shards > n {
		shards = n // no empty shards when there is data to stripe
	}
	if shards < 1 {
		shards = 1
	}
	cfg = cfg.Resolved(n)
	s := &Set{
		dim:    dim,
		cfg:    cfg,
		shards: make([]*state, shards),
	}
	s.SetCompactFraction(compactFrac)
	s.nextID.Store(int64(n))
	core.Each(shards, func(i int) error {
		rows := (n - i + shards - 1) / shards
		st := &state{seed: shardSeed(cfg.Seed, i), offset: i}
		st.globals = identityGlobals(rows, i, shards)
		c := cfg
		c.Seed = st.seed
		var m *vec.Matrix
		if shards == 1 {
			m = vec.WrapMatrix(flat, n, dim)
		} else {
			c.InitialRadius = 0 // estimated per shard from its own stripe
			m = vec.NewMatrix(rows, dim)
			for j := 0; j < rows; j++ {
				g := j*shards + i
				m.SetRow(j, flat[g*dim:(g+1)*dim])
			}
		}
		st.idx = core.Build(m, c)
		s.shards[i] = st
		return nil
	})
	s.tailCap = s.shards[0].idx.UnpackedCap()
	s.pool.New = func() interface{} { return s.NewSearcher() }
	return s
}

func identityGlobals(rows, offset, stride int) []int {
	g := make([]int, rows)
	for j := range g {
		g[j] = j*stride + offset
	}
	return g
}

// Part is one shard's serialized state, used to restore a persisted set.
type Part struct {
	Flat    []float32 // rows·dim vector payload, local-id order; read-only
	Rows    int
	Globals []int  // local id → global id
	Deleted []bool // tombstones by local id; may be nil or short
	R0      float64
	// Trees holds the shard's L R*-tree arenas, which Restore loads as they
	// are.
	Trees []rstar.Arena
}

// Restore loads a set from persisted per-shard parts, through core.Each.
// cfg carries the stored structural parameters and base seed; nextID is the
// persisted global-id-space bound (ids ≥ nextID have never been allocated).
// The error is a part's trees failing core.Load's validation.
//
// dblsh:exclusive the set is under construction and unpublished; the
// core.Each items partition the shards, so no state is shared
func Restore(dim int, nextID int, compactFrac float64, cfg core.Config, parts []Part) (*Set, error) {
	total := 0
	for _, p := range parts {
		total += p.Rows
	}
	cfg = cfg.Resolved(total)
	s := &Set{
		dim:    dim,
		cfg:    cfg,
		shards: make([]*state, len(parts)),
	}
	s.SetCompactFraction(compactFrac)
	s.nextID.Store(int64(nextID))
	stride := len(parts)
	err := core.Each(len(parts), func(i int) (err error) {
		p := parts[i]
		st := &state{seed: shardSeed(cfg.Seed, i), offset: i}
		st.globals = append([]int(nil), p.Globals...)
		for j, g := range st.globals {
			if g != j*stride+i {
				st.materialize() // stripe pattern broken pre-persist
				break
			}
		}
		s.shards[i] = st
		c := cfg
		c.Seed = st.seed
		c.InitialRadius = p.R0
		data := vec.WrapMatrix(p.Flat, p.Rows, dim)
		if st.idx, err = core.Load(data, c, p.Trees); err != nil {
			return err
		}
		for local, dead := range p.Deleted {
			if dead && local < p.Rows {
				st.idx.Delete(local)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.tailCap = s.shards[0].idx.UnpackedCap()
	s.pool.New = func() interface{} { return s.NewSearcher() }
	return s, nil
}

// Shards returns the number of shards.
func (s *Set) Shards() int { return len(s.shards) }

// Dim returns the vector dimensionality.
func (s *Set) Dim() int { return s.dim }

// Params returns the resolved build configuration (base seed).
func (s *Set) Params() core.Config { return s.cfg }

// NextID returns the global-id-space bound: every id ever returned by Add
// (and every build-time id) is below it.
func (s *Set) NextID() int { return int(s.nextID.Load()) }

// Len returns the number of resident vectors (live + tombstoned) across all
// shards. It never exceeds NextID but can fall short of it: compaction
// reclaims tombstoned rows, a snapshot taken while an Add was between id
// allocation and shard insertion reloads with that id as a hole, and WAL
// replay skips records whose rows were lost to an unsynced tail — in every
// case the missing ids stay unallocated forever rather than being reused.
func (s *Set) Len() int {
	n := 0
	for _, st := range s.shards {
		st.mu.RLock()
		n += st.idx.Size()
		st.mu.RUnlock()
	}
	return n
}

// Deleted returns the number of tombstoned vectors across all shards.
func (s *Set) Deleted() int {
	n := 0
	for _, st := range s.shards {
		st.mu.RLock()
		n += st.idx.Deleted()
		st.mu.RUnlock()
	}
	return n
}

// Unpacked returns the number of rows in the shards' tails, added since
// each shard was last packed.
func (s *Set) Unpacked() int {
	n := 0
	for _, st := range s.shards {
		st.mu.RLock()
		n += st.idx.Unpacked()
		st.mu.RUnlock()
	}
	return n
}

// IndexSizeBytes sums the per-shard tree footprints.
func (s *Set) IndexSizeBytes() int64 {
	var b int64
	for _, st := range s.shards {
		st.mu.RLock()
		b += st.idx.IndexSizeBytes()
		st.mu.RUnlock()
	}
	return b
}

// Add inserts a vector and returns its global id. Only the owning shard is
// write-locked; searches on the other shards proceed untouched.
func (s *Set) Add(v []float32) int {
	if len(v) != s.dim {
		panic(fmt.Sprintf("shard: insert dim %d, index dim %d", len(v), s.dim))
	}
	g := int(s.nextID.Add(1)) - 1
	stride := len(s.shards)
	st := s.shards[g%stride]
	st.mu.Lock()
	st.insert(g, stride, v, s.metrics.Load())
	size, dead, unpacked := st.debt()
	st.mu.Unlock()
	s.maybeAutoCompact(st, size, dead, unpacked)
	return g
}

// insert indexes v in the shard under global id g. Callers hold st.mu for
// writing, so the time spent in the index insert — a hash and L appends,
// or an inline repack when the tails are full — is time every search on
// this shard waits; m.InsertSeconds records it.
//
// dblsh:locked mu
func (st *state) insert(g, stride int, v []float32, m *Metrics) {
	if st.localOf == nil && g != len(st.globals)*stride+st.offset {
		// An add with a later id reached the shard first: the stripe pattern
		// is broken for good, switch to the explicit map.
		st.materialize()
	}
	var start time.Time
	if m != nil {
		start = time.Now()
	}
	repacks := st.idx.Unpacked() == st.idx.UnpackedCap()
	local := st.idx.Insert(v)
	if m != nil {
		d := time.Since(start).Seconds()
		m.InsertSeconds.Observe(d)
		if repacks { // the insert repacked a full tail inline
			m.CompactionRuns.Inc()
			m.CompactionSeconds.Observe(d)
		}
	}
	st.globals = append(st.globals, g)
	if st.localOf != nil {
		st.localOf[g] = local
	}
}

// advanceNextID raises the id allocator to at least bound; it never lowers
// it, so concurrent calls commute.
func (s *Set) advanceNextID(bound int) {
	for {
		cur := s.nextID.Load()
		if cur >= int64(bound) || s.nextID.CompareAndSwap(cur, int64(bound)) {
			return
		}
	}
}

// Replay applies a chunk of logged mutations, in log order. An add lands
// under the id it was acknowledged with and advances the id allocator past
// it; applying it again (the record may describe a row a checkpoint already
// holds) is a no-op, as is a delete of an absent or tombstoned id. No delete
// schedules a compaction: the caller holds auto-compaction until its last
// chunk is in and then calls CompactOwed. Records of different shards commute (each
// touches only its owning shard, and the allocator only ever rises to the
// largest id seen), so the chunk is split by owning shard and the shards'
// lists are applied through core.Each, at most GOMAXPROCS at a time; the
// set that results is the sequential replay's, byte for byte, whatever the
// scheduler does. The caller has checked the records (an add's row has the
// set's dimension); Replay keeps no reference to recs.
func (s *Set) Replay(recs []wal.Record) {
	stride := len(s.shards)
	per := make([][]wal.Record, stride)
	bound := 0
	for _, r := range recs {
		g := int(r.ID)
		if r.Op == wal.OpAdd {
			bound = max(bound, g+1)
		}
		per[g%stride] = append(per[g%stride], r)
	}
	s.advanceNextID(bound)
	m := s.metrics.Load()
	core.Each(stride, func(i int) error {
		if len(per[i]) == 0 {
			return nil
		}
		st := s.shards[i]
		st.mu.Lock()
		defer st.mu.Unlock()
		for _, r := range per[i] {
			g := int(r.ID)
			l := st.local(g, stride)
			switch {
			case r.Op == wal.OpAdd && l < 0:
				st.insert(g, stride, r.Row, m)
			case r.Op == wal.OpDelete && l >= 0:
				st.idx.Delete(l)
			}
		}
		return nil
	})
}

// Live reports whether global id g is resident and not tombstoned — i.e.
// whether a Delete of g would succeed. The durability layer consults it
// before logging a Delete record, so the op log never carries records for
// mutations that were going to be no-ops.
func (s *Set) Live(g int) bool {
	if g < 0 || g >= int(s.nextID.Load()) {
		return false
	}
	st := s.shards[g%len(s.shards)]
	st.mu.RLock()
	defer st.mu.RUnlock()
	l := st.local(g, len(s.shards))
	return l >= 0 && !st.idx.IsDeleted(l)
}

// Delete tombstones global id g, returning false when g was never
// allocated, is already tombstoned, or was reclaimed by a compaction. Only
// the owning shard is write-locked. When the set was built with a
// compaction threshold, crossing it schedules a background compaction of
// the affected shard.
func (s *Set) Delete(g int) bool {
	if g < 0 || g >= int(s.nextID.Load()) {
		return false
	}
	st := s.shards[g%len(s.shards)]
	st.mu.Lock()
	l := st.local(g, len(s.shards))
	deleted := l >= 0 && st.idx.Delete(l)
	size, dead, unpacked := st.debt()
	st.mu.Unlock()
	if deleted {
		s.maybeAutoCompact(st, size, dead, unpacked)
	}
	return deleted
}

// debt returns what a compaction of the shard would work off: its resident
// rows, its tombstones, and the rows in its trees' tails. Callers hold
// st.mu.
//
// dblsh:locked mu
func (st *state) debt() (size, dead, unpacked int) {
	return st.idx.Size(), st.idx.Deleted(), st.idx.Unpacked()
}

// owes reports whether a shard with the given debt owes a compaction: its
// tails hold half their capacity, or its tombstoned fraction has reached
// the threshold (which 0 disables). The tail's half is a fixed share, not
// an option: far enough from full that the rebuild finishes before an add
// has to repack inline, and every tail row a query walks costs it about a
// leaf test in L trees.
func (s *Set) owes(size, dead, unpacked int) bool {
	if 2*unpacked >= s.tailCap {
		return true
	}
	frac := s.CompactFraction()
	return frac > 0 && size >= autoCompactMinRows && float64(dead) >= frac*float64(size)
}

// maybeAutoCompact schedules a background compaction of st when it owes
// one, and reports whether it did.
func (s *Set) maybeAutoCompact(st *state, size, dead, unpacked int) bool {
	if !s.owes(size, dead, unpacked) {
		return false
	}
	if !st.compacting.CompareAndSwap(false, true) {
		return false // one compaction of this shard at a time
	}
	go func() {
		s.compactState(st)
		st.compacting.Store(false)
		// The mutations that raced the rebuild were replayed onto it, and
		// those that found this one in flight scheduled nothing: what they
		// left may owe another.
		st.mu.RLock()
		size, dead, unpacked := st.debt()
		st.mu.RUnlock()
		s.maybeAutoCompact(st, size, dead, unpacked)
	}()
	return true
}

// CompactOwed schedules one background compaction of every shard that owes
// one — the compactions that the records Replay applied did not schedule —
// and returns how many it scheduled.
func (s *Set) CompactOwed() int {
	n := 0
	for _, st := range s.shards {
		st.mu.RLock()
		size, dead, unpacked := st.debt()
		st.mu.RUnlock()
		if s.maybeAutoCompact(st, size, dead, unpacked) {
			n++
		}
	}
	return n
}

// CompactShard rebuilds shard i from its live rows, dropping all tombstones
// and repacking its tails, while every shard — including i itself — keeps
// serving. Global ids are preserved. It returns the number of tombstones
// reclaimed (0 when the shard had none, whether or not it repacked).
//
// The rebuild is online: the live rows and their projections are copied
// under a read lock (searches unaffected, mutations to this shard wait only
// for the copy), the replacement index is packed with no locks held, and
// the write lock is taken just long enough to replay the mutations that
// raced the build and swap the index in. Nothing is hashed: the
// projections come out of the old trees' leaves (core.Index.Projections),
// and the new index is core.Build's over the same rows, node for node.
func (s *Set) CompactShard(i int) int {
	return s.compactState(s.shards[i])
}

func (s *Set) compactState(st *state) int {
	st.compactMu.Lock()
	defer st.compactMu.Unlock()

	// Snapshot the live rows and their projections under the read lock.
	st.mu.RLock()
	old := st.idx
	if old.Deleted() == 0 && old.Unpacked() == 0 {
		st.mu.RUnlock()
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
		snapGlobals[j] = st.globals[ol]
	}
	snapSize := old.Size()
	st.mu.RUnlock()

	// Rebuild with no locks held; the shard serves reads and writes
	// throughout. compactMu keeps concurrent compactions of this shard
	// from racing each other, so old == st.idx still holds at swap time.
	c := s.cfg
	c.Seed = st.seed
	c.InitialRadius = 0 // re-estimate from the compacted content
	fresh := core.Repack(live, projected, c)

	// Swap under the write lock, replaying whatever raced the build: rows
	// appended after the snapshot, and tombstones laid on snapshot rows.
	st.mu.Lock()
	defer st.mu.Unlock()
	for j, ol := range oldLocals {
		if old.IsDeleted(ol) {
			fresh.Delete(j)
		}
	}
	newGlobals := snapGlobals
	for local := snapSize; local < old.Size(); local++ {
		nl := fresh.Insert(old.Data().Row(local))
		newGlobals = append(newGlobals, st.globals[local])
		if old.IsDeleted(local) {
			fresh.Delete(nl)
		}
	}
	reclaimed := old.Size() - fresh.Size()
	st.idx = fresh
	st.globals = newGlobals
	st.localOf = nil
	st.materialize()
	st.compactions++
	st.lastCompaction = time.Now()
	return reclaimed
}

// Compact compacts every shard in turn and returns the total number of
// tombstones reclaimed. At most one shard is rebuilding at any moment, and
// even that shard keeps serving (see CompactShard).
func (s *Set) Compact() int {
	total := 0
	for _, st := range s.shards {
		total += s.compactState(st)
	}
	return total
}

// Info describes one shard's current state.
type Info struct {
	Shard          int
	Size           int // resident vectors (live + tombstoned)
	Live           int
	Deleted        int
	Unpacked       int // rows in the trees' tails, not yet repacked
	Compactions    int
	LastCompaction time.Time // zero until the first compaction
	IndexSizeBytes int64
}

// Infos reports per-shard statistics.
func (s *Set) Infos() []Info {
	out := make([]Info, len(s.shards))
	for i, st := range s.shards {
		st.mu.RLock()
		out[i] = Info{
			Shard:          i,
			Size:           st.idx.Size(),
			Live:           st.idx.Live(),
			Deleted:        st.idx.Deleted(),
			Unpacked:       st.idx.Unpacked(),
			Compactions:    st.compactions,
			LastCompaction: st.lastCompaction,
			IndexSizeBytes: st.idx.IndexSizeBytes(),
		}
		st.mu.RUnlock()
	}
	return out
}

// SnapshotShard takes shard i's resident rows, their global ids and tombstones
// and its trees' arenas into a Part, under the shard's read lock, so the part
// is the shard as it stood at one instant and its trees index exactly its rows.
// The arenas, ids and tombstones are copied — a memcpy, not a walk: inserts
// rewrite arenas in place, and deletes lay tombstones. The rows are viewed
// instead, capacity capped at their length, because a shard's rows are
// append-only: vec.Matrix.Append, under the write lock, is the one writer of a
// live index's matrix and writes only past the view; SetRow only fills matrices
// no index holds yet; compaction swaps in a new matrix and leaves the old one
// as it was; and NewFromFlat's zero-copy rows are the caller's not to mutate.
// The cap makes an Append onto a restored copy of the part reallocate rather
// than write into the live shard's array. Persistence streams a snapshot one
// shard at a time — each holds only that shard's read lock, briefly, so
// serializing a large index never stalls traffic index-wide. The shards are
// therefore taken at different instants: a part may hold ids at or above what
// NextID returned before the first one (whoever restores the parts takes the
// largest id they hold as a floor for the allocator), and an Add between id
// allocation and shard insertion is simply absent, which reads back as a benign
// id-space hole.
func (s *Set) SnapshotShard(i int) Part {
	st := s.shards[i]
	st.mu.RLock()
	defer st.mu.RUnlock()
	rows := st.idx.Data().Data()
	p := Part{
		Rows:    len(st.globals),
		R0:      st.idx.InitialRadius(),
		Flat:    rows[:len(rows):len(rows)],
		Globals: append([]int(nil), st.globals...),
		Trees:   st.idx.Trees(),
	}
	if st.idx.Deleted() > 0 {
		p.Deleted = append([]bool(nil), st.idx.DeletedBits()...)
	}
	return p
}

// Searcher is a reusable query context: one core searcher per shard, each
// running its shard's part of core's round driver. It must be used from one
// goroutine at a time.
type Searcher struct {
	set   *Set
	per   []*core.Searcher
	seen  []*core.Index // which core index each searcher is bound to
	parts []core.Part
	last  core.Stats
}

// NewSearcher returns a searcher bound to the set. Per-shard core searchers
// are created lazily and transparently replaced when a compaction swaps a
// shard's underlying index. An idle searcher (e.g. parked in a pool) keeps
// the index it last touched reachable until its next use or until the pool
// is dropped by GC — a deliberate trade: releasing eagerly would need weak
// references threaded through the core searcher, and the retention is
// bounded by two GC cycles for pooled searchers.
func (s *Set) NewSearcher() *Searcher {
	sr := &Searcher{
		set:   s,
		per:   make([]*core.Searcher, len(s.shards)),
		seen:  make([]*core.Index, len(s.shards)),
		parts: make([]core.Part, len(s.shards)),
	}
	for i, st := range s.shards {
		sr.parts[i] = core.Part{Lock: &st.mu, Bind: func() (*core.Searcher, []int) { return sr.bind(i) }}
	}
	return sr
}

// bind is shard i's core.Part.Bind: the core searcher for the shard's
// current index — a new one when a compaction has replaced it — and the
// shard's local→global id map. Callers hold the shard's lock.
//
// dblsh:locked mu
func (sr *Searcher) bind(i int) (*core.Searcher, []int) {
	st := sr.set.shards[i]
	if sr.seen[i] != st.idx {
		sr.per[i] = st.idx.NewSearcher()
		sr.seen[i] = st.idx
	}
	return sr.per[i], st.globals
}

// LastStats reports the most recent query's aggregated statistics:
// candidates verified across all shards, rounds run, and the final radius
// of the shared ladder.
func (sr *Searcher) LastStats() core.Stats { return sr.last }

// Search answers a (c,k)-ANN query: core.Search over one part per shard.
// A non-nil error (context expiry) still comes with the best candidates
// found before cancellation.
func (sr *Searcher) Search(q []float32, k int, p core.QueryParams) ([]vec.Neighbor, error) {
	core.CheckQuery(q, sr.set.dim, k)
	nbs, st, err := core.Search(sr.parts, q, k, p)
	sr.last = st
	return nbs, err
}

// SearchRadius answers a single (r,c)-NN query (Algorithm 1):
// core.SearchRadius over one part per shard, one candidate budget of 2tL+1
// shared by all of them.
func (sr *Searcher) SearchRadius(q []float32, r float64, p core.QueryParams) (vec.Neighbor, bool, error) {
	core.CheckQuery(q, sr.set.dim, 1)
	nb, ok, st, err := core.SearchRadius(sr.parts, q, r, p)
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
// finished, on the caller's goroutine, with each shard's lock released.
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
