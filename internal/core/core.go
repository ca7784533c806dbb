// Package core implements DB-LSH itself: the (K,L)-index with query-centric
// dynamic bucketing of Tian, Zhao and Zhou (ICDE 2022).
//
// Indexing phase (Section IV-B): every data point is mapped into L
// K-dimensional projected spaces by L×K independent 2-stable projections
// (Eq. 7) and each projected space is indexed with an R*-tree built by STR
// bulk loading.
//
// Query phase (Section IV-C): a c-ANN query runs a series of (r,c)-NN
// queries with geometrically growing radius (Algorithm 2). Each (r,c)-NN
// query materializes L query-centric hypercubic buckets W(G_i(q), w0·r)
// (Eq. 8) as window queries on the R*-trees and verifies the points found
// until either a point within c·r is known or 2tL+1 candidates have been
// inspected (Algorithm 1). The (c,k)-ANN generalization follows the rules at
// the end of Section IV-C: the candidate budget becomes 2tL+k and the
// distance test applies to the k-th best candidate so far.
//
// The package is determinism-critical — the candidate stream and result
// set must not depend on map order, select winners, or runtime kernel
// choices — and is patrolled by dblsh-lint's detorder analyzer.
//
// dblsh:deterministic
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"dblsh/internal/lsh"
	"dblsh/internal/metric"
	"dblsh/internal/rstar"
	"dblsh/internal/vec"
)

// Config controls index construction.
type Config struct {
	// C is the approximation ratio (> 1). Default 1.5, the paper's default.
	C float64
	// W0 is the initial bucket width. Default 4c² (γ = 2), giving the
	// paper's headline bound ρ* ≤ 1/c^4.746.
	W0 float64
	// T is the candidate constant t: queries verify at most 2tL+k points.
	// Default 100.
	T int
	// K is the number of hash functions per projected space. 0 uses the
	// paper's experimental setting: 10, or 12 for n ≥ 1M (Section VI-A).
	K int
	// L is the number of projected spaces. 0 uses the paper's setting of 5.
	L int
	// Seed drives all hash-function sampling. A given (Seed, K, L, dim)
	// always produces the same index.
	Seed int64
	// InitialRadius is the starting search radius r of Algorithm 2.
	// 0 estimates it from a data sample (the paper assumes distances are
	// normalized so r=1 works; synthetic data is not, so we estimate).
	InitialRadius float64
	// EarlyStopFactor loosens the ladder's termination test: the query
	// stops once the k-th candidate is within EarlyStopFactor·c·r instead
	// of c·r. Values above 1 terminate earlier, trading recall for speed —
	// the "early termination conditions" direction the paper's conclusion
	// sketches (cf. I-LSH/EI-LSH). 0 or 1 reproduces the paper exactly.
	EarlyStopFactor float64
	// Metric records the boundary reduction under which the indexed
	// vectors were transformed. The core ladder itself always runs pure
	// Euclidean distance over the (already transformed) internal space —
	// Algorithm 2 is only correct for L2 — so the field is never consulted
	// here; it rides along so the shard and persistence layers can
	// reconstruct the boundary transform.
	Metric metric.Kind
	// MetricNormBound is the fitted norm bound M of the inner-product
	// reduction (0 for the other metrics); plumbing like Metric.
	MetricNormBound float64
	// Tree configures the R*-trees.
	Tree rstar.Options
	// Quantize is ignored: benchmark/layers.go:93 still sets it. The next
	// PR allowed to edit benchmark/ removes it.
	Quantize string
}

func (c Config) withDefaults(n int) Config {
	if c.C <= 1 {
		c.C = 1.5
	}
	if c.W0 <= 0 {
		c.W0 = 4 * c.C * c.C
	}
	if c.T <= 0 {
		c.T = 100
	}
	// The paper's experiments fix K and L rather than deriving them from
	// Lemma 1: at the default width w0 = 4c² the far-collision probability
	// p2 is so close to 1 that the theoretical K = log_{1/p2}(n/t) runs into
	// the thousands (Section V-B discusses exactly this trade-off). Follow
	// the paper's Section VI-A settings: K = 10 (12 for n ≥ 1M), L = 5.
	if c.K == 0 {
		c.K = 10
		if n >= 1_000_000 {
			c.K = 12
		}
	}
	if c.L == 0 {
		c.L = 5
	}
	if c.EarlyStopFactor <= 0 {
		c.EarlyStopFactor = 1
	}
	return c
}

// Resolved returns the configuration after defaulting and derivation for a
// dataset of n points — the parameters Build would actually use. It is
// idempotent: resolving an already-resolved configuration changes nothing,
// so a caller (such as the shard layer) can resolve once against the full
// dataset size and hand the result to several smaller Builds without the
// size-dependent K derivation diverging per shard.
func (c Config) Resolved(n int) Config { return c.withDefaults(n) }

// Index is an immutable DB-LSH index over a dataset. Concurrent queries are
// safe; each goroutine should use its own Searcher.
type Index struct {
	data      *vec.Matrix // dblsh:guardedby caller
	cfg       Config
	family    *lsh.Family
	projected []*vec.Matrix // dblsh:guardedby caller — L matrices, n×K
	trees     []*rstar.Tree // dblsh:guardedby caller — L R*-trees
	r0        float64
	pool      sync.Pool

	// Tombstones: deleted points stay in the trees but are filtered from
	// query results. Rebuild the index when the deleted fraction grows
	// large; LSH indexes are cheap to rebuild (bulk loading).
	deleted      []bool // dblsh:guardedby caller
	deletedCount int    // dblsh:guardedby caller
}

// Build constructs the index: L projections of the dataset and L bulk-loaded
// R*-trees. Projection and tree construction run in parallel across the L
// spaces.
//
// dblsh:exclusive the index is under construction and unpublished; the
// build goroutines partition the L projected spaces, so no state is shared
func Build(data *vec.Matrix, cfg Config) *Index {
	idx := newIndex(data, cfg)
	idx.eachSpace(func(i int) error {
		idx.projected[i] = idx.family.Compound(i).Project(data)
		idx.trees[i] = rstar.BulkLoad(idx.projected[i], idx.cfg.Tree)
		return nil
	})
	if idx.r0 <= 0 {
		idx.r0 = estimateInitialRadius(data, idx.cfg.Seed)
	}
	return idx
}

// Load is Build for an index that was saved: trees holds the L arenas
// Trees returned when it was, data the same rows and cfg the same
// configuration, InitialRadius included (it must be positive: nothing is
// estimated). Nothing is projected and nothing is packed — each tree is
// adopted as it is and its projected matrix read back out of its leaves — so
// the loaded index answers, and grows, exactly as the saved one would have.
// The arenas are validated as rstar.Load describes; an error means they are
// not trees over data's rows.
//
// dblsh:exclusive as Build
func Load(data *vec.Matrix, cfg Config, trees []rstar.Arena) (*Index, error) {
	idx := newIndex(data, cfg)
	if len(trees) != idx.cfg.L || idx.r0 <= 0 {
		return nil, fmt.Errorf("core: load needs %d trees and a positive initial radius, got %d and %v", idx.cfg.L, len(trees), idx.r0)
	}
	err := idx.eachSpace(func(i int) (err error) {
		idx.trees[i], err = rstar.Load(trees[i], data.Rows(), idx.cfg.K, idx.cfg.Tree)
		if err == nil {
			idx.projected[i] = idx.trees[i].Data()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return idx, nil
}

// Trees returns a copy of the L trees' arenas, what Load rebuilds them
// from. The caller must hold off mutations for the duration.
func (idx *Index) Trees() []rstar.Arena {
	out := make([]rstar.Arena, len(idx.trees))
	for i, t := range idx.trees {
		out[i] = t.Snapshot()
	}
	return out
}

// newIndex returns the index Build and Load fill in: defaults resolved, the
// hash family sampled, no projections or trees yet.
func newIndex(data *vec.Matrix, cfg Config) *Index {
	cfg = cfg.withDefaults(data.Rows())
	idx := &Index{
		data:      data,
		cfg:       cfg,
		family:    lsh.NewFamily(cfg.L, cfg.K, data.Dim(), cfg.Seed),
		projected: make([]*vec.Matrix, cfg.L),
		trees:     make([]*rstar.Tree, cfg.L),
		r0:        cfg.InitialRadius,
	}
	idx.pool.New = func() interface{} { return newSearcher(idx) }
	return idx
}

// eachSpace runs fn for each of the L projected spaces, GOMAXPROCS at a
// time, and returns what errors it met.
func (idx *Index) eachSpace(fn func(i int) error) error {
	errs := make([]error, idx.cfg.L)
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := range errs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// estimateInitialRadius picks a starting radius well below the typical
// nearest-neighbor distance so Algorithm 2's geometric ladder brackets r*.
// Starting too low only costs a handful of cheap extra rounds. Each sample
// query verifies its pool through the blocked batch kernel rather than one
// scalar distance at a time; the id sequence (and therefore the result) is
// identical to the scalar formulation.
func estimateInitialRadius(data *vec.Matrix, seed int64) float64 {
	n := data.Rows()
	if n < 2 {
		return 1
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5bf03635))
	const samples = 24
	const pool = 512
	ids := make([]int, 0, pool)
	dists := make([]float64, pool)
	best := math.Inf(1)
	for s := 0; s < samples; s++ {
		qi := rng.Intn(n)
		q := data.Row(qi)
		ids = ids[:0]
		for p := 0; p < pool; p++ {
			if oi := rng.Intn(n); oi != qi {
				ids = append(ids, oi)
			}
		}
		vec.SquaredDistsTo(q, data, ids, dists[:len(ids)])
		for _, d := range dists[:len(ids)] {
			if d < best {
				best = d
			}
		}
	}
	r := math.Sqrt(best) / 4
	if r <= 0 || math.IsInf(r, 1) {
		return 1
	}
	return r
}

// Insert adds a point to the index and returns its id, extending the paper's
// static design with the incremental maintenance its R*-trees natively
// support (the paper's Section VII lists this direction as future work).
// Insert must not run concurrently with queries or other Inserts.
func (idx *Index) Insert(p []float32) int {
	if len(p) != idx.data.Dim() {
		panic(fmt.Sprintf("core: insert dim %d, index dim %d", len(p), idx.data.Dim()))
	}
	id := idx.data.Append(p)
	for i := 0; i < idx.cfg.L; i++ {
		pid := idx.projected[i].Append(idx.family.Compound(i).Hash(nil, p))
		if pid != id {
			panic("core: projected matrix out of sync with data")
		}
		idx.trees[i].Insert(id)
	}
	if idx.deleted != nil {
		idx.deleted = append(idx.deleted, false)
	}
	return id
}

// Delete tombstones a point: it stays in the trees but is excluded from all
// subsequent query results. Returns false if id is out of range or already
// deleted. Delete must not run concurrently with queries or mutations.
// Deletion is O(1); reclaim space by rebuilding when Deleted() grows large.
func (idx *Index) Delete(id int) bool {
	if id < 0 || id >= idx.data.Rows() {
		return false
	}
	if idx.deleted == nil {
		idx.deleted = make([]bool, idx.data.Rows())
	}
	for len(idx.deleted) < idx.data.Rows() {
		idx.deleted = append(idx.deleted, false)
	}
	if idx.deleted[id] {
		return false
	}
	idx.deleted[id] = true
	idx.deletedCount++
	return true
}

// Deleted returns the number of tombstoned points.
func (idx *Index) Deleted() int { return idx.deletedCount }

// IsDeleted reports whether id is tombstoned.
func (idx *Index) IsDeleted(id int) bool { return idx.isDeleted(id) }

// DeletedBits returns the tombstone bitmap: bit i is true when point i is
// deleted. The slice may be nil (no deletions yet) or shorter than Size()
// (points appended since the last Delete are live). Callers must treat it
// as read-only; it aliases the index's own state.
func (idx *Index) DeletedBits() []bool { return idx.deleted }

// LiveRows returns a compacted copy of the live (non-tombstoned) rows
// together with each copied row's current id: row j of the returned matrix
// is the point that was ids[j] in this index. It is the rebuild primitive
// for compaction — Build over the returned matrix yields an equivalent
// index with zero tombstone debt.
func (idx *Index) LiveRows() (*vec.Matrix, []int) {
	m := vec.NewMatrix(idx.Live(), idx.data.Dim())
	ids := make([]int, 0, idx.Live())
	for i := 0; i < idx.data.Rows(); i++ {
		if idx.isDeleted(i) {
			continue
		}
		m.SetRow(len(ids), idx.data.Row(i))
		ids = append(ids, i)
	}
	return m, ids
}

// Live returns the number of points that queries can still return.
func (idx *Index) Live() int { return idx.data.Rows() - idx.deletedCount }

// isDeleted reports whether id is tombstoned.
func (idx *Index) isDeleted(id int) bool {
	return idx.deleted != nil && id < len(idx.deleted) && idx.deleted[id]
}

// Params reports the effective configuration.
func (idx *Index) Params() Config { return idx.cfg }

// Data returns the index's point matrix. Callers must treat it as read-only.
func (idx *Index) Data() *vec.Matrix { return idx.data }

// Size returns the number of indexed points.
func (idx *Index) Size() int { return idx.data.Rows() }

// Dim returns the dimensionality of the original space.
func (idx *Index) Dim() int { return idx.data.Dim() }

// InitialRadius returns the starting radius of the query ladder.
func (idx *Index) InitialRadius() float64 { return idx.r0 }

// IndexSizeBytes approximates the memory footprint of the projections and
// trees (excluding the original data), the quantity Table IV compares.
func (idx *Index) IndexSizeBytes() int64 {
	var b int64
	for i, p := range idx.projected {
		b += int64(p.Rows()) * int64(p.Dim()) * 4
		b += idx.trees[i].ComputeStats().BytesApprox
	}
	return b
}

// Stats describes a completed query.
type Stats struct {
	Candidates int     // points verified with an exact distance computation
	Rounds     int     // (r,c)-NN rounds executed
	FinalR     float64 // radius at termination

	// NodesVisited counts R*-tree nodes examined by the query's traversal,
	// summed across trees and rounds. Under the incremental cursor ladder
	// each node is examined at most once per query (plus re-arms); under the
	// window re-scan oracle every round re-examines the covered region, so
	// the two modes report very different values for identical results —
	// this counter is how the difference is measured.
	NodesVisited int
	// Frontier is the number of items (subtrees and points) still parked in
	// the traversal cursors when the query finished — the residual work the
	// incremental ladder never had to touch. Zero under the re-scan oracle.
	Frontier int
	// QuantPruned and QuantSwept are always 0: benchmark/layers.go:317-318
	// still reads them. The next PR allowed to edit benchmark/ removes them.
	QuantPruned, QuantSwept int
	// ParallelRounds and StragglerNanos are always 0: benchmark/layers.go:321-322
	// still reads them. The next PR allowed to edit benchmark/ removes them.
	ParallelRounds int
	StragglerNanos int64
}

// QueryParams carries per-query overrides of the knobs Config freezes at
// build time. The zero value reproduces the index's build-time behavior
// exactly, so every query path threads a QueryParams and the legacy entry
// points pass the zero value.
type QueryParams struct {
	// T overrides Config.T for this query: the verification budget becomes
	// 2·T·L+k exact distance computations. 0 keeps the build-time value.
	T int
	// EarlyStopFactor overrides Config.EarlyStopFactor for this query.
	// 0 keeps the build-time value; 1 reproduces Algorithm 2 exactly.
	EarlyStopFactor float64
	// MaxRadius caps Algorithm 2's radius ladder: rounds whose radius would
	// exceed it are not executed and the query returns whatever candidates
	// it has. 0 leaves the ladder unbounded.
	MaxRadius float64
	// Budget, when positive, replaces the derived candidate budget (2tL+k
	// for the ladder, 2tL+1 for a fixed-radius round) with an absolute cap
	// on exact distance computations. The shard coordinator uses it to
	// share one budget across per-shard probes.
	Budget int
	// Ctx, when non-nil, is polled between radius rounds; once it is done
	// the query stops and returns the best candidates found so far together
	// with Ctx.Err().
	Ctx context.Context
	// Filter, when non-nil, restricts results to ids it accepts. Rejected
	// points are skipped inside the verification loop before the exact
	// distance computation — the same path tombstoned points take — so they
	// consume none of the candidate budget.
	Filter func(id int) bool
	// Parallelism is ignored: benchmark/layers.go:244 still sets it. The next
	// PR allowed to edit benchmark/ removes it.
	Parallelism int
}

// Resolve merges the per-query overrides with the build-time configuration,
// returning the effective candidate constant and early-stop factor. It is
// the single source of the knob-defaulting rules; the shard coordinator
// uses it so the multi-shard ladder terminates exactly like the
// single-shard one.
func (p QueryParams) Resolve(cfg Config) (t int, stopFactor float64) {
	return p.resolve(cfg)
}

// Cancelled reports whether the query's context has expired.
func (p QueryParams) Cancelled() bool { return p.cancelled() }

// resolve merges the per-query overrides with the build-time configuration.
func (p QueryParams) resolve(cfg Config) (t int, stopFactor float64) {
	t = cfg.T
	if p.T > 0 {
		t = p.T
	}
	stopFactor = cfg.EarlyStopFactor
	if p.EarlyStopFactor > 0 {
		stopFactor = p.EarlyStopFactor
	}
	if stopFactor <= 0 {
		stopFactor = 1
	}
	return t, stopFactor
}

// cancelled reports whether the query's context has expired.
func (p QueryParams) cancelled() bool {
	if p.Ctx == nil {
		return false
	}
	select {
	case <-p.Ctx.Done():
		return true
	default:
		return false
	}
}

// Searcher holds per-goroutine query scratch state (visited stamps, the
// query's L hash vectors, the L persistent traversal cursors, and the
// candidate block buffers of the batched verification path). Obtain one with
// NewSearcher; a Searcher must not be used concurrently.
type Searcher struct {
	idx     *Index
	visited []uint32
	epoch   uint32
	qhash   [][]float32
	last    Stats

	// Candidate block scratch: ids gathered from the traversal, and the
	// distances the batch kernel writes for them. In cursor mode bmeta runs
	// parallel to bids, recording which cursor surfaced each candidate (and
	// where in its shell) so an unconsumed candidate can be returned to its
	// frontier instead of relying on a re-scan to rediscover it.
	bids   []int
	bmeta  []blockMeta
	bdists []float64
	ebuf   []int32 // cursor emission batch buffer

	// cursors are the L per-tree incremental frontiers of the ladder; Begin
	// seeds them and each round advances them by one shell, so the query
	// touches every tree node at most once instead of re-walking the covered
	// region every round. rescan switches the searcher back to the
	// root-to-leaf window re-scan of the original Algorithm 2 formulation —
	// kept alive as the differential oracle the cursor ladder is tested
	// against, verifying the same candidates in the same order.
	cursors []*rstar.Cursor
	rescan  bool
	rearms  int // cursor re-arms triggered by mid-query tree mutations
}

// blockMeta locates a gathered candidate in its cursor's current shell:
// cursors[tree].Unpop(pos) hands it back to the frontier.
type blockMeta struct {
	tree int32
	pos  int32
}

func newSearcher(idx *Index) *Searcher {
	s := &Searcher{
		idx:     idx,
		visited: make([]uint32, idx.data.Rows()),
		qhash:   make([][]float32, idx.cfg.L),
		bids:    make([]int, 0, verifyBlockSize),
		bmeta:   make([]blockMeta, 0, verifyBlockSize),
		bdists:  make([]float64, verifyBlockSize),
		ebuf:    make([]int32, verifyBlockSize),
	}
	for i := range s.qhash {
		s.qhash[i] = make([]float32, 0, idx.cfg.K)
	}
	if idx.cfg.Tree.MaxEntries <= 64 {
		// The cursors' per-leaf bitmasks need MaxEntries ≤ 64 (default 32);
		// an exotic wider tree falls back to the window re-scan traversal,
		// which answers identically (see SetWindowRescan).
		s.cursors = make([]*rstar.Cursor, idx.cfg.L)
		for i := range s.cursors {
			s.cursors[i] = rstar.NewCursor(idx.trees[i])
		}
	} else {
		s.rescan = true
	}
	return s
}

// SetWindowRescan switches the searcher between the incremental cursor
// ladder (the default, on = false) and the per-round window re-scan of the
// paper's literal Algorithm 2 formulation. The two traversals verify the
// same candidate set in the same order — re-scan mode exists as the
// differential oracle the equivalence tests and fuzzers compare against.
func (s *Searcher) SetWindowRescan(on bool) {
	if s.cursors == nil {
		on = true // no cursors to switch to (tree too wide; see newSearcher)
	}
	s.rescan = on
}

// FrontierLen returns the total number of items parked across the
// searcher's cursors — Stats.Frontier for callers (the shard coordinator)
// that drive rounds themselves.
func (s *Searcher) FrontierLen() int {
	n := 0
	for _, c := range s.cursors {
		n += c.FrontierLen()
	}
	return n
}

// CursorReArms returns how many cursor re-arms mid-query tree mutations have
// forced since the searcher was created. Test hook for the mutate-during-
// query interleaving.
func (s *Searcher) CursorReArms() int { return s.rearms }

// verifyBlockSize is the candidate block the verification path gathers
// before calling the batch distance kernels: large enough to amortize the
// per-block bookkeeping and keep q's cache lines hot across rows. The
// cursor ladder always gathers full blocks — a stop mid-block hands the
// unconsumed candidates back to the frontiers exactly, so over-gathering
// never costs more than one block of traversal per query. The window
// re-scan oracle has no hand-back: once the caller's top-k heap is full a
// stop can fire at any flush, and every fresh candidate gathered past the
// stop is traversal the pre-blocking code never paid (late-round windows
// are dense with already-visited points), so there the gather shrinks to
// verifyBlockHot.
const (
	verifyBlockSize = 64
	verifyBlockHot  = 2
)

// flushBlock verifies the gathered candidate block with the batched kernel
// and reports the candidates to emit in gather order. worst, when non-nil,
// bounds the early-abandon kernel: candidates whose exact distance provably
// exceeds worst() are reported as +Inf — by construction they cannot enter
// the top-k heap that worst came from, so results are identical to exact
// verification. emit returns how many candidates it consumed and whether
// to stop the traversal (consuming fewer than the block stops regardless,
// so a stop exactly at the block's last candidate is still exact); the
// unconsumed candidates get their visited stamps cleared so a later round
// can rediscover them (stamp 0 never matches a live epoch). Returns false
// on stop.
func (s *Searcher) flushBlock(q []float32, worst func() float64, emit emitFunc) bool {
	if len(s.bids) == 0 {
		return true
	}
	if cap(s.bdists) < len(s.bids) {
		s.bdists = make([]float64, len(s.bids))
	}
	dists := s.bdists[:len(s.bids)]
	bound := math.Inf(1)
	if worst != nil {
		bound = worst()
	}
	vec.SquaredDistsToBounded(q, s.idx.data, s.bids, bound*bound, dists)
	for j := range dists {
		dists[j] = math.Sqrt(dists[j])
	}
	n, stop := emit(s.bids, dists)
	stop = stop || n < len(s.bids)
	withMeta := len(s.bmeta) == len(s.bids)
	for k, id := range s.bids[n:] {
		s.visited[id] = 0
		if withMeta {
			// Cursor mode: a re-scan would rediscover the candidate next
			// round; the frontier has to get it back explicitly.
			m := s.bmeta[n+k]
			s.cursors[m.tree].Unpop(int(m.pos))
		}
	}
	s.bids = s.bids[:0]
	s.bmeta = s.bmeta[:0]
	return !stop
}

// emitFunc receives one verified candidate block in gather order: ids[j]'s
// exact distance is dists[j] (or +Inf when the early-abandon kernel proved
// it cannot beat the caller's bound). It returns how many candidates it
// consumed and whether the traversal should stop; consumed < len(ids)
// implies stop.
type emitFunc = func(ids []int, dists []float64) (consumed int, stop bool)

// NewSearcher returns a dedicated searcher bound to the index.
func (idx *Index) NewSearcher() *Searcher { return newSearcher(idx) }

// KANN answers a (c,k)-ANN query using a pooled searcher. For repeated
// queries from one goroutine, prefer an explicit Searcher.
func (idx *Index) KANN(q []float32, k int) []vec.Neighbor {
	s := idx.pool.Get().(*Searcher)
	defer idx.pool.Put(s)
	return s.KANN(q, k)
}

// KANNParams answers a (c,k)-ANN query with per-query overrides using a
// pooled searcher, returning the query's statistics alongside the results.
// A non-nil error (the context's) still comes with the best candidates
// found before cancellation.
func (idx *Index) KANNParams(q []float32, k int, p QueryParams) ([]vec.Neighbor, Stats, error) {
	s := idx.pool.Get().(*Searcher)
	defer idx.pool.Put(s)
	nbs, err := s.KANNParams(q, k, p)
	return nbs, s.last, err
}

// ANN answers a c-ANN query (k = 1). ok is false only on an empty index.
func (idx *Index) ANN(q []float32) (vec.Neighbor, bool) {
	s := idx.pool.Get().(*Searcher)
	defer idx.pool.Put(s)
	return s.ANN(q)
}

// LastStats returns statistics for the searcher's most recent query.
func (s *Searcher) LastStats() Stats { return s.last }

// freshEpoch starts a new visited-stamp epoch, clearing stamps on wraparound
// and growing the stamp array if the index gained points since the searcher
// was created.
func (s *Searcher) freshEpoch() {
	s.ensureStamps()
	s.epoch++
	if s.epoch == 0 {
		for i := range s.visited {
			s.visited[i] = 0
		}
		s.epoch = 1
	}
}

// ANN answers a c-ANN query with this searcher.
func (s *Searcher) ANN(q []float32) (vec.Neighbor, bool) {
	res := s.KANN(q, 1)
	if len(res) == 0 {
		return vec.Neighbor{}, false
	}
	return res[0], true
}

// KANN answers a (c,k)-ANN query with the index's build-time parameters.
func (s *Searcher) KANN(q []float32, k int) []vec.Neighbor {
	nbs, _ := s.KANNParams(q, k, QueryParams{})
	return nbs
}

// CheckQuery enforces the query entry points' panic contract for programmer
// errors: a query of the wrong dimension, or k ≤ 0. The shard layer calls it
// before it takes a lock, so a panicking query never strands one.
func CheckQuery(q []float32, dim, k int) {
	if len(q) != dim {
		panic(fmt.Sprintf("core: query dim %d, index dim %d", len(q), dim))
	}
	if k <= 0 {
		panic("core: k must be positive")
	}
}

// RunLadder is the control flow of Algorithm 2 with the Section IV-C (c,k)
// termination rules, written once for one index and for a sharded set: the
// radius grows r, c·r, c²·r, … under p.MaxRadius; p.Ctx is polled before each
// round; the query ends when a round reports it done, when the k-th best
// candidate is within stopC·r, or when all live points have been verified;
// and once the next window would contain every projected point, one covering
// sweep replaces the rest of the schedule. What a round does is the caller's:
// round(r, false) runs the L window queries of radius r, pushing verified
// candidates into cand and counting them in *cnt, and reports done — its emit
// closure stopped it on the budget or on the termination test — and, when
// not done, covered: the windows at radius r·c contain every projected
// point. round(r, true) is the covering sweep, bounded by the budget alone;
// what it returns is ignored. RunLadder keeps st.Rounds, st.FinalR and
// st.Candidates, and returns p.Ctx's error if it expired between rounds —
// cand then holds the best candidates found before cancellation.
func RunLadder(p QueryParams, st *Stats, r, c, stopC float64, live int, cand *vec.TopK, cnt *int,
	round func(r float64, sweep bool) (done, covered bool)) error {
	var err error
	for {
		if p.MaxRadius > 0 && r > p.MaxRadius {
			break
		}
		if p.cancelled() {
			err = p.Ctx.Err()
			break
		}
		st.Rounds++
		done, covered := round(r, false)
		st.FinalR = r
		if done {
			break
		}
		if w, full := cand.Worst(); full && w <= stopC*r {
			break
		}
		if *cnt >= live {
			break // every live point verified: the result is exact
		}
		r *= c
		if p.MaxRadius > 0 && r > p.MaxRadius {
			// Checked here as well as at the loop top so the full-corpus
			// sweep below can never run past the cap.
			break
		}
		if covered {
			round(r, true)
			break
		}
	}
	st.Candidates = *cnt
	return err
}

// KANNParams answers a (c,k)-ANN query — RunLadder over this index: at each
// radius L window queries materialize query-centric buckets of width w0·r;
// candidates are verified by exact distance — in blocks, through the batched
// kernels with early-abandon pruning against the current k-th best — until
// the budget 2tL+k is exhausted or the k-th best candidate is within c·r. The
// QueryParams override the build-time knobs for this query only; the zero
// value is KANN. The returned error is non-nil only when p.Ctx expires, and
// even then the candidates verified before cancellation are returned.
func (s *Searcher) KANNParams(q []float32, k int, p QueryParams) ([]vec.Neighbor, error) {
	idx := s.idx
	CheckQuery(q, idx.data.Dim(), k)
	s.last = Stats{}
	if idx.data.Rows() == 0 {
		return nil, nil
	}
	// Checked before the per-query hashing as well as per round, so the
	// queries behind a dead context in a large batch are near-free.
	if p.cancelled() {
		return nil, p.Ctx.Err()
	}

	s.Begin(q)

	t, stopFactor := p.resolve(idx.cfg)
	cand := vec.NewTopK(k)
	budget := 2*t*idx.cfg.L + k
	if p.Budget > 0 {
		budget = p.Budget
	}
	cnt := 0
	c := idx.cfg.C
	stopC := stopFactor * c
	w0 := idx.cfg.W0
	r := idx.r0 // the round being run; emit's termination test reads it

	worst := func() float64 {
		if w, full := cand.Worst(); full {
			return w
		}
		return math.Inf(1)
	}
	done := false
	// The budget and the termination test apply per candidate in gather
	// order, exactly as the pre-blocking per-id loop did; a mid-block stop
	// hands the unconsumed tail back to the traversal (see flushBlock), so
	// blocking never changes which candidates are verified.
	emit := func(ids []int, dists []float64) (int, bool) {
		for j, id := range ids {
			cand.Push(id, dists[j])
			cnt++
			if cnt >= budget {
				done = true
				return j + 1, true
			}
			if w, full := cand.Worst(); full && w <= stopC*r {
				done = true
				return j + 1, true
			}
		}
		return len(ids), false
	}
	// The covering sweep is bounded by the budget but not the termination
	// test.
	sweepEmit := func(ids []int, dists []float64) (int, bool) {
		for j, id := range ids {
			cand.Push(id, dists[j])
			cnt++
			if cnt >= budget {
				return j + 1, true
			}
		}
		return len(ids), false
	}
	round := func(radius float64, sweep bool) (bool, bool) {
		if sweep {
			s.Sweep(q, p.Filter, worst, sweepEmit)
			return true, false
		}
		r = radius
		s.runWindows(q, r, p.Filter, worst, emit)
		return done, !done && s.coversAllTrees(w0*(r*c))
	}
	err := RunLadder(p, &s.last, r, c, stopC, idx.Live(), cand, &cnt, round)
	s.finishTraversal()
	return cand.Results(), err
}

// finishTraversal records the cursors' end-of-query state into the stats.
func (s *Searcher) finishTraversal() {
	if !s.rescan {
		s.last.Frontier = s.FrontierLen()
	}
}

// coversAllTrees reports whether a window of width w centred at the query
// hash would contain the entire bounding box of every tree.
func (s *Searcher) coversAllTrees(w float64) bool {
	for i, tr := range s.idx.trees {
		if !tr.Covered(s.qhash[i], w/2) {
			return false
		}
	}
	return true
}

// Round-level query primitives.
//
// KANNParams runs the whole radius ladder against one index. A sharded
// index needs the ladder *split across indexes*: every shard executes the
// same round r, cr, c²r, … and a coordinator merges candidates, applies the
// global budget and the global termination test — otherwise each shard
// re-runs the full ladder against its sparser stripe and a query over S
// shards costs S× the paper's work profile. Begin/RunRound/Covers/Sweep
// expose one round as the unit of work so the shard layer can be that
// coordinator: its round function for RunLadder.
//
// Candidates flow to the caller in verified blocks, not per-id callbacks:
// the traversal gathers up to verifyBlockSize ids, the batch kernels verify
// the whole block against the contiguous matrix storage (early-abandoning
// rows that provably cannot beat the caller's current k-th best), and emit
// receives the block. emit's consumed-count return keeps the caller's
// budget exact across the block boundary.

// Begin prepares the searcher for a round-coordinated query: it starts a
// fresh visited epoch, hashes q into each projected space, and seeds the L
// traversal cursors at their roots (cursor mode; seeding is O(1) per tree —
// traversal happens lazily as rounds advance). Call it once per query
// before the first RunRound, with a q that passed CheckQuery.
func (s *Searcher) Begin(q []float32) {
	s.last = Stats{}
	s.freshEpoch()
	for i := 0; i < s.idx.cfg.L; i++ {
		s.qhash[i] = s.idx.family.Compound(i).Hash(s.qhash[i][:0], q)
	}
	if !s.rescan {
		for i, cur := range s.cursors {
			cur.Reset(s.qhash[i])
		}
	}
}

// ensureStamps grows the visited-stamp array if the index gained points
// since the previous round (the coordinator releases the index's lock
// between rounds, so appends can interleave).
func (s *Searcher) ensureStamps() {
	if n := s.idx.data.Rows(); n > len(s.visited) {
		grown := make([]uint32, n)
		copy(grown, s.visited)
		s.visited = grown
	}
}

// RunRound executes one (r,c)-NN round: every previously-unvisited, live
// point inside a query-centric bucket of width w0·r that passes filter is
// verified in blocks and reported to emit with its exact Euclidean distance
// — or +Inf for candidates the early-abandon kernel pruned because they
// provably cannot beat worst() (see flushBlock). worst, when non-nil,
// should return the caller's current k-th best distance (+Inf while the
// heap is under capacity). emit (see emitFunc) stops the round mid-block;
// unconsumed candidates are handed back for later rounds. The caller owns
// the candidate heap, the budget and the termination test.
//
// In the default cursor mode the round advances the L persistent frontiers
// by one shell instead of re-scanning each window from the root; a tree
// mutated since the previous round (the shard coordinator releases its lock
// between rounds, so appends can interleave) is detected by version and its
// cursor re-armed, so mid-query inserts are picked up exactly as a re-scan
// would pick them up rather than silently missed.
func (s *Searcher) RunRound(q []float32, r float64, filter func(int) bool, worst func() float64, emit emitFunc) {
	s.ensureStamps()
	s.runWindows(q, r, filter, worst, emit)
}

// runWindows is RunRound without the stamp-growth check (KANNParams has
// already run freshEpoch when it calls this).
func (s *Searcher) runWindows(q []float32, r float64, filter func(int) bool, worst func() float64, emit emitFunc) {
	if s.rescan {
		s.runWindowsRescan(q, r, filter, worst, emit)
		return
	}
	half := s.idx.cfg.W0 * r / 2
	s.bids = s.bids[:0]
	s.bmeta = s.bmeta[:0]
	for i := 0; i < s.idx.cfg.L; i++ {
		if !s.advanceCursor(i, half, q, filter, worst, emit) {
			return // stopped: flushBlock already handed back unconsumed work
		}
	}
	s.flushBlock(q, worst, emit)
}

// advanceCursor widens cursor i's window to Chebyshev half-width half and
// gathers the newly-exposed shell into the verification block, flushing at
// full blocks (cursor mode always gathers verifyBlockSize; see
// blockLimit). A stale cursor (tree mutated since it was seeded) is
// re-armed first. Returns false when a flush stopped the traversal — the
// unexamined shell remainder stays in the frontier so later rounds can
// still surface it.
func (s *Searcher) advanceCursor(i int, half float64, q []float32, filter func(int) bool, worst func() float64, emit emitFunc) bool {
	cur := s.cursors[i]
	if !cur.Synced() {
		cur.ReArm()
		s.rearms++
	}
	before := cur.NodesVisited()
	cur.BeginRound(half)
	base := 0 // emission ordinal of ebuf[0] within this cursor's round
	stopped := false
outer:
	for {
		m := cur.NextBatch(s.ebuf)
		if m == 0 {
			break
		}
		for j := 0; j < m; j++ {
			id := int(s.ebuf[j])
			if s.visited[id] == s.epoch {
				continue
			}
			s.visited[id] = s.epoch
			if s.idx.isDeleted(id) {
				continue
			}
			if filter != nil && !filter(id) {
				continue
			}
			s.bids = append(s.bids, id)
			s.bmeta = append(s.bmeta, blockMeta{tree: int32(i), pos: int32(base + j)})
			if len(s.bids) >= verifyBlockSize {
				if !s.flushBlock(q, worst, emit) {
					// Hand back the batch tail the gather never examined;
					// flushBlock handed back its own unconsumed candidates.
					for u := j + 1; u < m; u++ {
						cur.Unpop(base + u)
					}
					stopped = true
					break outer
				}
			}
		}
		base += m
	}
	if stopped {
		// The stop ends the query; skip the O(frontier) round teardown.
		// Were another round driven anyway, the cursor re-arms and the
		// visited stamps keep the re-walk equivalent to a window re-scan.
		cur.Abandon()
	} else {
		cur.EndRound()
	}
	s.last.NodesVisited += cur.NodesVisited() - before
	return !stopped
}

// runWindowsRescan is the window re-scan formulation: each round runs every
// window query root-to-leaf, re-walking the already-covered region and
// relying on the visited stamps to skip re-verification. Kept as the
// differential oracle for the cursor ladder (see SetWindowRescan).
func (s *Searcher) runWindowsRescan(q []float32, r float64, filter func(int) bool, worst func() float64, emit emitFunc) {
	idx := s.idx
	s.bids = s.bids[:0]
	s.bmeta = s.bmeta[:0]
	aborted := false
	limit := s.blockLimit(worst)
	for i := 0; i < idx.cfg.L && !aborted; i++ {
		w := rstar.WindowRect(s.qhash[i], idx.cfg.W0*r)
		s.last.NodesVisited += idx.trees[i].WindowVisits(w, func(id int) bool {
			if s.visited[id] == s.epoch {
				return true
			}
			s.visited[id] = s.epoch
			if idx.isDeleted(id) {
				return true
			}
			if filter != nil && !filter(id) {
				return true
			}
			s.bids = append(s.bids, id)
			if len(s.bids) >= limit {
				if !s.flushBlock(q, worst, emit) {
					aborted = true
					return false
				}
				limit = s.blockLimit(worst)
			}
			return true
		})
	}
	if !aborted {
		s.flushBlock(q, worst, emit)
	}
}

// blockLimit picks the gather size for the re-scan oracle's next block:
// full-size while the caller's heap is still filling (no stop can fire),
// verifyBlockHot once it is full — the re-scan has no way to hand back
// over-gathered candidates, so a stop must not over-run traversal by more
// than a few entries. The cursor ladder never consults this: it always
// gathers full blocks, because a stop mid-block hands the unconsumed tail
// back to the frontiers exactly (see Cursor.Unpop) and over-gathering
// costs at most one block of traversal once per query.
func (s *Searcher) blockLimit(worst func() float64) int {
	if worst != nil && !math.IsInf(worst(), 1) {
		return verifyBlockHot
	}
	return verifyBlockSize
}

// Covers reports whether the next round at radius r would materialize
// buckets containing every indexed point — the ladder's natural end.
func (s *Searcher) Covers(r float64) bool { return s.coversAllTrees(s.idx.cfg.W0 * r) }

// Sweep verifies all remaining unvisited live points, for the final
// full-coverage round, through the first tree (every point appears in every
// tree, so one suffices). Blocks, worst and emit behave as in RunRound. In
// cursor mode the sweep simply drains the first frontier — everything not
// yet popped — instead of re-walking the whole tree.
func (s *Searcher) Sweep(q []float32, filter func(int) bool, worst func() float64, emit emitFunc) {
	idx := s.idx
	if idx.data.Rows() == 0 {
		return
	}
	s.ensureStamps()
	s.bids = s.bids[:0]
	s.bmeta = s.bmeta[:0]
	if !s.rescan {
		if s.advanceCursor(0, math.Inf(1), q, filter, worst, emit) {
			s.flushBlock(q, worst, emit)
		}
		return
	}
	limit := s.blockLimit(worst)
	aborted := false
	tr := idx.trees[0]
	s.last.NodesVisited += tr.WindowVisits(tr.Bounds(), func(id int) bool {
		if s.visited[id] == s.epoch {
			return true
		}
		s.visited[id] = s.epoch
		if idx.isDeleted(id) {
			return true
		}
		if filter != nil && !filter(id) {
			return true
		}
		s.bids = append(s.bids, id)
		if len(s.bids) >= limit {
			if !s.flushBlock(q, worst, emit) {
				aborted = true
				return false
			}
			limit = s.blockLimit(worst)
		}
		return true
	})
	if !aborted {
		s.flushBlock(q, worst, emit)
	}
}

// RNear answers a single (r,c)-NN query (Algorithm 1): it returns a point
// within c·r of q if one is found before the 2tL+1 candidate budget runs
// out, the budget-exhausting candidate otherwise, or ok = false when the L
// window queries complete without either condition triggering.
func (s *Searcher) RNear(q []float32, r float64) (vec.Neighbor, bool) {
	nb, ok, _ := s.RNearParams(q, r, QueryParams{})
	return nb, ok
}

// RNearParams is RNear with per-query overrides: the candidate budget uses
// p.T when set, p.Filter excludes points before verification, and p.Ctx is
// checked once at entry (a single (r,c)-NN round is the unit of cancellation
// in the ladder). p.EarlyStopFactor and p.MaxRadius do not apply to a
// fixed-radius query and are ignored.
func (s *Searcher) RNearParams(q []float32, r float64, p QueryParams) (vec.Neighbor, bool, error) {
	idx := s.idx
	CheckQuery(q, idx.data.Dim(), 1)
	s.last = Stats{Rounds: 1, FinalR: r}
	if idx.data.Rows() == 0 {
		return vec.Neighbor{}, false, nil
	}
	if p.cancelled() {
		s.last = Stats{FinalR: r}
		return vec.Neighbor{}, false, p.Ctx.Err()
	}
	s.freshEpoch()
	for i := 0; i < idx.cfg.L; i++ {
		s.qhash[i] = idx.family.Compound(i).Hash(s.qhash[i][:0], q)
	}

	t, _ := p.resolve(idx.cfg)
	budget := 2*t*idx.cfg.L + 1
	if p.Budget > 0 {
		budget = p.Budget
	}
	cnt := 0
	c := idx.cfg.C
	var found vec.Neighbor
	ok := false
	// Verification runs through the blocked batch kernels like the ladder's
	// rounds: candidates gather into blocks and the budget and the c·r test
	// apply per candidate in gather order, so the answer is the one the
	// scalar per-id loop produced. No early-abandon bound applies — the
	// budget-exhausting candidate is returned with its distance, so every
	// distance must be exact.
	emit := func(ids []int, dists []float64) (int, bool) {
		for j, id := range ids {
			cnt++
			if cnt >= budget || dists[j] <= c*r {
				found, ok = vec.Neighbor{ID: id, Dist: dists[j]}, true
				return j + 1, true
			}
		}
		return len(ids), false
	}
	s.bids = s.bids[:0]
	s.bmeta = s.bmeta[:0]
	aborted := false
	for i := 0; i < idx.cfg.L && !aborted; i++ {
		w := rstar.WindowRect(s.qhash[i], idx.cfg.W0*r)
		s.last.NodesVisited += idx.trees[i].WindowVisits(w, func(id int) bool {
			if s.visited[id] == s.epoch {
				return true
			}
			s.visited[id] = s.epoch
			if idx.isDeleted(id) {
				return true
			}
			if p.Filter != nil && !p.Filter(id) {
				return true
			}
			s.bids = append(s.bids, id)
			if len(s.bids) >= verifyBlockSize {
				if !s.flushBlock(q, nil, emit) {
					aborted = true
					return false
				}
			}
			return true
		})
		// Flush at each tree boundary as well as at full blocks: a
		// qualifying candidate in an early tree's window must stop the
		// query before the remaining windows are traversed, matching the
		// pre-blocking per-id loop's early exit to within one window.
		if !aborted && !s.flushBlock(q, nil, emit) {
			aborted = true
		}
	}
	s.last.Candidates = cnt
	return found, ok, nil
}
