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
	"sync/atomic"

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
	return c
}

// Resolved returns the configuration after defaulting and derivation for a
// dataset of n points — the parameters Build would actually use. It is
// idempotent: resolving an already-resolved configuration changes nothing,
// so a caller (such as the shard layer) can resolve once and hand the
// result to every later rebuild without the size-dependent K derivation
// moving as the rows come and go.
func (c Config) Resolved(n int) Config { return c.withDefaults(n) }

// Index is a DB-LSH index over a dataset: L STR-packed R*-trees, each with
// a tail of the rows inserted since. Concurrent queries are safe; each
// goroutine should use its own Searcher.
type Index struct {
	data   *vec.Matrix // dblsh:guardedby caller
	cfg    Config
	family *lsh.Family
	trees  []*rstar.Tree // dblsh:guardedby caller — L R*-trees
	hash   []float64     // dblsh:guardedby caller — Insert's K·L hash of its row
	point  []float32     // dblsh:guardedby caller — hash narrowed: space i's point at i·K
	r0     float64
	pool   sync.Pool

	// Tombstones: deleted points stay in the trees but are filtered from
	// query results. Rebuild the index when the deleted fraction grows
	// large; LSH indexes are cheap to rebuild (bulk loading).
	deleted      []bool // dblsh:guardedby caller
	deletedCount int    // dblsh:guardedby caller
}

// projectBlock is how many rows one claim of Build's projection pass
// hashes: enough to make the claim counter noise, few enough that the last
// claims of a build leave no worker idle for long.
const projectBlock = 256

// Build constructs the index in two passes. The first hashes the dataset
// into L transient n×K matrices, one per projected space: workers claim
// blocks of projectBlock rows, GOMAXPROCS at a time, and hash each row into
// all L spaces with one fused lsh.Family.Hash, so a row is read once, not
// once per space. The matrices are bit for bit what Compound(i).Project
// returns. The second pass packs them (see Repack).
//
// dblsh:exclusive the index is under construction and unpublished; the
// projection pass's goroutines partition the rows and the bulk loads the L
// projected spaces, so no state is shared
func Build(data *vec.Matrix, cfg Config) *Index {
	idx := newIndex(data, cfg)
	n, k := data.Rows(), idx.cfg.K
	projected := make([]*vec.Matrix, idx.cfg.L)
	for i := range projected {
		projected[i] = vec.NewMatrix(n, k)
	}
	Each((n+projectBlock-1)/projectBlock, func(b int) error {
		h := make([]float64, k*idx.cfg.L)
		for r := b * projectBlock; r < min(n, (b+1)*projectBlock); r++ {
			idx.family.Hash(h, data.Row(r))
			for i, m := range projected {
				narrow(m.Row(r), h[i*k:])
			}
		}
		return nil
	})
	idx.pack(projected)
	return idx
}

// Repack is Build over rows whose projections are known already: projected
// holds row r's K coordinates in space i at row r of projected[i], as
// Projections gathers them. The L R*-trees are STR-packed side by side, one
// space per claim; a tree copies its matrix into its leaves, which hold the
// only copy of the projected points from then on, and the matrix is dropped.
// The index is the one Build makes of data under cfg, node for node.
//
// dblsh:exclusive as Build
func Repack(data *vec.Matrix, projected []*vec.Matrix, cfg Config) *Index {
	idx := newIndex(data, cfg)
	idx.pack(projected)
	return idx
}

// pack packs the L trees over projected and estimates the initial radius
// when the configuration leaves it unset.
//
// dblsh:exclusive as Build
func (idx *Index) pack(projected []*vec.Matrix) {
	idx.eachSpace(func(i int) error {
		idx.trees[i] = rstar.Pack(projected[i], idx.cfg.Tree)
		projected[i] = nil
		return nil
	})
	if idx.r0 <= 0 {
		idx.r0 = estimateInitialRadius(idx.data, idx.cfg.Seed)
	}
}

// Projections gathers the coordinates of rows ids of idx in each of the L
// projected spaces out of the trees' leaves, packed and tail alike, one
// space per claim: row j of the i-th matrix is row ids[j]'s point in space
// i, the float32s the tree holds, so no row is hashed again. With LiveRows
// it is what a rebuild reads from an index, under the caller's read lock.
func (idx *Index) Projections(ids []int) []*vec.Matrix {
	at := make([]int32, idx.data.Rows())
	for i := range at {
		at[i] = -1
	}
	for j, id := range ids {
		at[id] = int32(j)
	}
	out := make([]*vec.Matrix, len(idx.trees))
	idx.eachSpace(func(i int) error {
		out[i] = vec.NewMatrix(len(ids), idx.cfg.K)
		idx.trees[i].Points(out[i], at)
		return nil
	})
	return out
}

// Load is Build for an index that was saved: trees holds the L arenas
// Trees returned when it was, data the same rows and cfg the same
// configuration, InitialRadius included (it must be positive: nothing is
// estimated). Nothing is projected and nothing is packed — each tree is
// adopted as it is — so the loaded index answers, and grows, exactly as the
// saved one would have.
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
		return err
	})
	if err != nil {
		return nil, err
	}
	return idx, nil
}

// Trees returns a copy of the L trees' arenas, the form Load takes them
// in. The caller must hold off mutations for the duration.
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
		data:   data,
		cfg:    cfg,
		family: lsh.NewFamily(cfg.L, cfg.K, data.Dim(), cfg.Seed),
		trees:  make([]*rstar.Tree, cfg.L),
		hash:   make([]float64, cfg.K*cfg.L),
		point:  make([]float32, cfg.K*cfg.L),
		r0:     cfg.InitialRadius,
	}
	idx.pool.New = func() interface{} { return newSearcher(idx) }
	return idx
}

// narrow writes the float32 narrowing of src's first len(dst) entries
// into dst: one space's K coordinates out of a family hash.
func narrow(dst []float32, src []float64) {
	for j := range dst {
		dst[j] = float32(src[j])
	}
}

// eachSpace runs fn for each of the L projected spaces, as Each does.
func (idx *Index) eachSpace(fn func(i int) error) error {
	return Each(idx.cfg.L, fn)
}

// Each runs fn for the work items 0…n−1 — Build's row blocks, the L
// projected spaces, or the shard layer's batch queries —
// GOMAXPROCS at a time, and returns what errors it met.
// Workers claim items from one counter. The caller's goroutine is one of
// the workers, so at GOMAXPROCS 1 the items run one after another on it.
// The caller waits for the items, not for the helpers: on busy cores a
// helper may start only after the others have claimed every item, and it
// then exits without touching anything but the claim counter.
// A panic in fn is recovered in its item; once every item has finished,
// the lowest-index item's panic is raised again on the caller's
// goroutine, where the sequential loop would have raised it.
func Each(n int, fn func(i int) error) error {
	errs := make([]error, n)
	panics := make([]any, n)
	job := &struct {
		next atomic.Int32
		wg   sync.WaitGroup
		fn   func(i int) error
	}{fn: fn}
	job.wg.Add(n)
	work := func() {
		for i := int(job.next.Add(1)) - 1; i < n; i = int(job.next.Add(1)) - 1 {
			func() {
				defer job.wg.Done()
				defer func() { panics[i] = recover() }()
				errs[i] = job.fn(i)
			}()
		}
	}
	for range min(n, runtime.GOMAXPROCS(0)) - 1 {
		go work()
	}
	work()
	job.wg.Wait()
	// A helper that starts only now finds no item left and never reads
	// job.fn. Dropping fn keeps such a helper from holding what fn
	// captured, an index being built or grown, reachable.
	job.fn = nil
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
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
// static design (its Section VII leaves updates to future work) the way
// Bentley and Saxe make a static structure dynamic: the packed trees stay as
// they are and the point joins each tree's tail, which a rebuild folds into
// a fresh pack. Insert must not run concurrently with queries or other
// Inserts.
//
// The row is appended to the data once and hashed into all L spaces with
// one fused lsh.Family.Hash; each projected space then appends its K
// coordinates to its tree's last tail leaf (rstar.Tree.InsertPoint): no
// descent, no split, nothing run side by side. A tail that is full is
// repacked first, the L trees side by side; the shard layer schedules
// rebuilds long before that happens.
//
// dblsh:exclusive callers serialize Insert with every query and mutation
// of the index; an inline repack's goroutines partition the L spaces, and
// eachSpace waits for all of them before it returns
func (idx *Index) Insert(p []float32) int {
	if len(p) != idx.data.Dim() {
		panic(fmt.Sprintf("core: insert dim %d, index dim %d", len(p), idx.data.Dim()))
	}
	id := idx.data.Append(p)
	idx.family.Hash(idx.hash, p)
	narrow(idx.point, idx.hash)
	if t := idx.trees[0]; t.TailLen() == t.TailCap() {
		idx.eachSpace(func(i int) error {
			idx.trees[i].Repack()
			return nil
		})
	}
	k := idx.cfg.K
	for i, t := range idx.trees {
		t.InsertPoint(id, idx.point[i*k:(i+1)*k])
	}
	if idx.deleted != nil {
		idx.deleted = append(idx.deleted, false)
	}
	return id
}

// Unpacked returns the number of rows in the trees' tails: those added since
// the index was built or last repacked. Every tree holds the same tail.
func (idx *Index) Unpacked() int { return idx.trees[0].TailLen() }

// UnpackedCap returns how many rows the tails hold before an Insert has to
// repack inline.
func (idx *Index) UnpackedCap() int { return idx.trees[0].TailCap() }

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
// is the point that was ids[j] in this index. Build over the returned
// matrix, or Repack over it and Projections(ids), yields an equivalent index
// with zero tombstone debt. The copy has spare capacity for UnpackedCap more
// rows, so the Inserts that fill the new index's tails append in place
// instead of reallocating every row.
func (idx *Index) LiveRows() (*vec.Matrix, []int) {
	live, dim := idx.Live(), idx.data.Dim()
	m := vec.WrapMatrix(make([]float32, live*dim, (live+idx.UnpackedCap())*dim), live, dim)
	ids := make([]int, 0, live)
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

// IndexSizeBytes approximates the memory footprint of the L trees, whose
// leaves hold the projected points (the original data excluded), the
// quantity Table IV compares.
func (idx *Index) IndexSizeBytes() int64 {
	var b int64
	for _, t := range idx.trees {
		b += t.ComputeStats().BytesApprox
	}
	return b
}

// Stats describes a completed query.
type Stats struct {
	Candidates int     // points verified with an exact distance computation
	Rounds     int     // (r,c)-NN rounds executed
	FinalR     float64 // radius at termination

	// NodesVisited counts R*-tree nodes examined by the query's traversal,
	// summed across trees and rounds: an interior node once per query, and
	// a leaf each time a wider window reaches more of its entries.
	NodesVisited int
	// Frontier is the number of items (subtrees and points) still parked in
	// the traversal cursors when the query finished — the residual work the
	// incremental ladder never had to touch.
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
	// EarlyStopFactor loosens the ladder's termination test: the query
	// stops once the k-th candidate is within EarlyStopFactor·c·r instead
	// of c·r. Values above 1 terminate earlier, trading recall for speed —
	// the "early termination conditions" direction the paper's conclusion
	// sketches (cf. I-LSH/EI-LSH). 0 or 1 reproduces Algorithm 2 exactly.
	EarlyStopFactor float64
	// MaxRadius caps Algorithm 2's radius ladder: rounds whose radius would
	// exceed it are not executed and the query returns whatever candidates
	// it has. 0 leaves the ladder unbounded.
	MaxRadius float64
	// Ctx, when non-nil, is polled between radius rounds; once it is done
	// the query stops and returns the best candidates found so far together
	// with Ctx.Err().
	Ctx context.Context
	// Filter, when non-nil, restricts results to ids it accepts (global ids
	// when the query runs through the shard layer's id map). Rejected points
	// are skipped inside the gather loop before the exact distance
	// computation — the same path tombstoned points take — so they consume
	// none of the candidate budget.
	Filter func(id int) bool
	// Parallelism is ignored: benchmark/layers.go:244 still sets it. The next
	// PR allowed to edit benchmark/ removes it.
	Parallelism int
}

// resolve merges the per-query overrides with the build-time configuration,
// returning the effective candidate constant and early-stop factor.
func (p QueryParams) resolve(cfg Config) (t int, stopFactor float64) {
	t = cfg.T
	if p.T > 0 {
		t = p.T
	}
	stopFactor = 1
	if p.EarlyStopFactor > 0 {
		stopFactor = p.EarlyStopFactor
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
	hash    []float64   // the query hashed into all L spaces, K·L entries
	qhash   [][]float32 // the same, narrowed: one K-entry centre per space
	last    Stats

	// Candidate block scratch: ids gathered from the traversal, and the
	// distances the batch kernel writes for them. bmeta runs parallel to
	// bids, recording which cursor surfaced each candidate (and where in its
	// shell) so an unconsumed candidate can be returned to its frontier.
	bids   []int
	bmeta  []blockMeta
	bdists []float64
	ebuf   []int32 // cursor emission batch buffer

	// cursors are the L per-tree incremental frontiers of the ladder; begin
	// seeds them and each round advances them by one shell, so the query
	// touches every tree node at most once instead of re-walking the covered
	// region every round.
	cursors []*rstar.Cursor
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
		hash:    make([]float64, idx.cfg.K*idx.cfg.L),
		qhash:   make([][]float32, idx.cfg.L),
		bids:    make([]int, 0, verifyBlockSize),
		bmeta:   make([]blockMeta, 0, verifyBlockSize),
		bdists:  make([]float64, verifyBlockSize),
		ebuf:    make([]int32, verifyBlockSize),
		cursors: make([]*rstar.Cursor, idx.cfg.L),
	}
	for i := range s.qhash {
		s.qhash[i] = make([]float32, idx.cfg.K)
		s.cursors[i] = rstar.NewCursor(idx.trees[i])
	}
	return s
}

// verifyBlockSize is the candidate block the verification path gathers
// before calling the batch distance kernels: large enough to amortize the
// per-block bookkeeping and keep q's cache lines hot across rows. A stop
// mid-block hands the unconsumed candidates back to the frontiers exactly,
// so over-gathering never costs more than one block of traversal per query.
const verifyBlockSize = 64

// NewSearcher returns a dedicated searcher bound to the index.
func (idx *Index) NewSearcher() *Searcher { return newSearcher(idx) }

// KANN answers a (c,k)-ANN query using a pooled searcher. For repeated
// queries from one goroutine, prefer an explicit Searcher.
func (idx *Index) KANN(q []float32, k int) []vec.Neighbor {
	s := idx.pool.Get().(*Searcher)
	defer idx.pool.Put(s)
	return s.KANN(q, k)
}

// LastStats returns statistics for the searcher's most recent query.
func (s *Searcher) LastStats() Stats { return s.last }

// KANN answers a (c,k)-ANN query with the index's build-time parameters.
func (s *Searcher) KANN(q []float32, k int) []vec.Neighbor {
	nbs, _ := s.KANNParams(q, k, QueryParams{})
	return nbs
}

// KANNParams answers a (c,k)-ANN query — Search over the searcher's own
// index with the identity id map. The QueryParams override the build-time
// knobs for this query only; the zero value is KANN. The returned error is
// non-nil only when p.Ctx expires, and even then the candidates verified
// before cancellation are returned.
func (s *Searcher) KANNParams(q []float32, k int, p QueryParams) ([]vec.Neighbor, error) {
	CheckQuery(q, s.idx.data.Dim(), k)
	nbs, st, err := Search(s, nil, q, k, p)
	s.last = st
	return nbs, err
}

// CheckQuery enforces the query entry points' panic contract for programmer
// errors: a query of the wrong dimension, or k ≤ 0. The shard layer calls it
// before it takes the lock, so a panicking query never strands it. The public
// package refuses such queries with an error before they get this far.
func CheckQuery(q []float32, dim, k int) {
	if len(q) != dim {
		panic(fmt.Sprintf("core: query dim %d, index dim %d", len(q), dim))
	}
	if k <= 0 {
		panic("core: k must be positive")
	}
}

// The round driver.
//
// A query runs on one searcher of one index, and maps the index's local ids
// to the caller's through an id map (nil: the identity). It runs the rounds
// r, c·r, c²·r, … against the index's trees, and the round driver below is
// the one place that owns what the paper's algorithms decide — the
// candidate budget, the initial radius, the per-candidate emit and stop
// rule, the covering test and sweep, and the statistics. The index must not
// change from the query's first round to its last: the caller holds off
// mutations for the whole query (the shard layer holds its read lock
// around it), so the cursors' frontiers and the visited stamps stay valid
// from round to round.
//
// Candidates flow in verified blocks: the cursors gather up to
// verifyBlockSize ids, the batch kernel verifies the block against the
// contiguous matrix storage (early-abandoning rows that provably cannot
// beat the current k-th best), and the emit rule consumes it candidate by
// candidate, handing an unconsumed tail back to the frontiers.

// query is one run of the round driver.
type query struct {
	s      *Searcher
	ids    []int          // local → global id map; nil is the identity
	filter func(int) bool // over global ids

	// cand is Algorithm 2's top-k. Algorithm 1 has none: it keeps the
	// candidate that stopped it in found.
	cand   *vec.TopK
	found  vec.Neighbor
	budget int
	cnt    int
	r      float64 // the running round's radius
	stopC  float64 // stop once the k-th best (Algorithm 1: a candidate) is within stopC·r
	sweep  bool    // the covering sweep: only the budget stops it
	done   bool    // the emit rule stopped the query
	st     Stats
}

// Search answers a (c,k)-ANN query on s's index, reporting ids through the
// local → global map ids (nil: the identity): Algorithm 2 with the Section
// IV-C (c,k) rules. The radius starts at the index's initial radius and
// grows r, c·r, c²·r, … up to p.MaxRadius; every candidate lands in one
// top-k and counts against one budget of 2tL+k (see query.emit). The query
// ends when the emit rule stops it, when the k-th best is within stopC·r
// after a round, when every live point has been verified, or — once the
// next round's windows would contain every projected point — after one
// covering sweep of whatever is left. p.Ctx is polled before each round;
// once it has expired the query returns the best candidates found so far
// with its error.
func Search(s *Searcher, ids []int, q []float32, k int, p QueryParams) ([]vec.Neighbor, Stats, error) {
	// Checked before the per-query hashing as well as per round, so the
	// queries behind a dead context in a large batch are near-free.
	if p.cancelled() {
		return nil, Stats{}, p.Ctx.Err()
	}
	qr := query{s: s, ids: ids, filter: p.Filter}
	cfg, r, live, resident := qr.start(q)
	if resident == 0 {
		return nil, Stats{}, nil
	}
	t, stopFactor := p.resolve(cfg)
	// No query collects or verifies more than the resident rows, whatever
	// its k: past them the budget never binds, and a k near the int limit
	// cannot overflow it.
	qr.cand = vec.NewTopKOf(k, resident)
	qr.budget = 2*t*cfg.L + min(k, resident)
	qr.stopC = stopFactor * cfg.C
	var err error
	for p.MaxRadius <= 0 || r <= p.MaxRadius {
		if p.cancelled() {
			err = p.Ctx.Err()
			break
		}
		qr.st.Rounds++
		covered := qr.round(q, r, r*cfg.C, false)
		qr.st.FinalR = r
		if qr.done || qr.cnt >= live {
			break // stopped, or every live point verified: the result is exact
		}
		if w, full := qr.cand.Worst(); full && w <= qr.stopC*r {
			break
		}
		r *= cfg.C
		if covered && (p.MaxRadius <= 0 || r <= p.MaxRadius) {
			qr.round(q, r, r, true)
			break
		}
	}
	qr.finish()
	return qr.cand.Results(), qr.st, err
}

// SearchRadius answers an (r,c)-NN query on s's index, reporting ids through
// ids as Search does: Algorithm 1, as one round of the driver at radius r.
// It returns the first candidate within c·r, or the candidate that spends
// the budget of 2tL+1, or ok = false when the windows hold neither. The emit rule differs from the ladder's because the
// contract does: "some point within c·r", not a ranked top-k — so the first
// qualifying candidate stops the query whatever is still unverified, and
// the budget-spending candidate is returned as it stands. No early-abandon
// bound applies, since every distance it might return must be exact.
// p.EarlyStopFactor and p.MaxRadius do not apply to a fixed-radius query;
// p.Ctx is checked once, before the round.
func SearchRadius(s *Searcher, ids []int, q []float32, r float64, p QueryParams) (vec.Neighbor, bool, Stats, error) {
	if p.cancelled() {
		return vec.Neighbor{}, false, Stats{FinalR: r}, p.Ctx.Err()
	}
	qr := query{s: s, ids: ids, filter: p.Filter}
	cfg, _, _, _ := qr.start(q)
	t, _ := p.resolve(cfg)
	qr.budget = 2*t*cfg.L + 1
	qr.stopC = cfg.C
	qr.round(q, r, r, false)
	qr.st.Rounds, qr.st.FinalR = 1, r
	qr.finish()
	return qr.found, qr.done, qr.st, nil
}

// start begins the searcher on the query, returning the index's
// configuration and initial radius, and how many of its points are live and
// resident.
func (qr *query) start(q []float32) (cfg Config, r0 float64, live, resident int) {
	idx := qr.s.idx
	qr.s.begin(q)
	return idx.cfg, idx.r0, idx.Live(), idx.Size()
}

// round runs one round at radius r — or, with sweep, the covering sweep. It
// reports whether the windows at radius next would contain the whole
// projected set; that is meaningful only when the query is not done.
func (qr *query) round(q []float32, r, next float64, sweep bool) (covered bool) {
	qr.r, qr.sweep = r, sweep
	s := qr.s
	if sweep {
		s.sweepRound(q, qr)
		return false
	}
	s.windowRound(q, qr)
	return !qr.done && s.covers(s.idx.cfg.W0*next)
}

// finish folds the end-of-query state into the statistics.
func (qr *query) finish() {
	qr.st.Candidates = qr.cnt
	for _, c := range qr.s.cursors {
		qr.st.Frontier += c.FrontierLen()
	}
}

// global maps one of the index's local ids to its global id.
func (qr *query) global(id int) int {
	if qr.ids == nil {
		return id
	}
	return qr.ids[id]
}

// worst is the early-abandon bound of the next verified block: the k-th
// best distance so far, +Inf while the top-k is filling or for Algorithm 1.
func (qr *query) worst() float64 {
	if qr.cand != nil {
		if w, full := qr.cand.Worst(); full {
			return w
		}
	}
	return math.Inf(1)
}

// emit is the per-candidate rule. It takes one verified block — local ids,
// and their exact distances or +Inf where the early-abandon kernel proved a
// candidate cannot enter the top-k — in gather order, and counts each
// candidate against the budget. Algorithm 2 pushes it into the top-k and
// stops at the candidate that spends the budget or — outside the covering
// sweep — that brings the k-th best within stopC·r. Algorithm 1 stops at the
// first candidate within c·r, or at the one that spends the budget, and
// keeps it. emit returns how many candidates it consumed and whether the
// query stops; flushBlock hands the unconsumed rest back to the frontiers,
// so blocking never changes which candidates are verified.
func (qr *query) emit(ids []int, dists []float64) (int, bool) {
	for j, id := range ids {
		qr.cnt++
		nb := vec.Neighbor{ID: qr.global(id), Dist: dists[j]}
		if qr.cand == nil {
			qr.done = qr.cnt >= qr.budget || nb.Dist <= qr.stopC*qr.r
		} else {
			qr.cand.Push(nb.ID, nb.Dist)
			w, full := qr.cand.Worst()
			qr.done = qr.cnt >= qr.budget || !qr.sweep && full && w <= qr.stopC*qr.r
		}
		if qr.done {
			qr.found = nb
			return j + 1, true
		}
	}
	return len(ids), false
}

// begin starts the searcher on query q: a fresh visited epoch, an empty
// candidate block (a Filter that panicked mid-gather left the previous
// query's block unverified), q hashed into all L projected spaces with one
// fused pass, and the L cursors seeded at their roots (O(1) per tree;
// traversal happens lazily as rounds advance).
func (s *Searcher) begin(q []float32) {
	s.freshEpoch()
	s.bids, s.bmeta = s.bids[:0], s.bmeta[:0]
	s.idx.family.Hash(s.hash, q)
	k := s.idx.cfg.K
	for i, cur := range s.cursors {
		narrow(s.qhash[i], s.hash[i*k:])
		cur.Reset(s.qhash[i])
	}
}

// freshEpoch starts a new visited-stamp epoch, clearing stamps on wraparound
// and growing the stamp array if the index gained points since the searcher
// was created.
func (s *Searcher) freshEpoch() {
	if n := s.idx.data.Rows(); n > len(s.visited) {
		s.visited = append(s.visited, make([]uint32, n-len(s.visited))...)
	}
	s.epoch++
	if s.epoch == 0 {
		clear(s.visited)
		s.epoch = 1
	}
}

// covers reports whether a window of width w centred at the query hash
// would contain the entire bounding box of every tree.
func (s *Searcher) covers(w float64) bool {
	for i, tr := range s.idx.trees {
		if !tr.Covered(s.qhash[i], w/2) {
			return false
		}
	}
	return true
}

// windowRound runs the round at radius qr.r: every previously-unvisited
// live point inside the L query-centric buckets of width w0·r that qr's
// filter accepts is verified in blocks and handed to qr.emit. Each cursor
// widens by one shell instead of re-scanning its window from the root.
func (s *Searcher) windowRound(q []float32, qr *query) {
	half := s.idx.cfg.W0 * qr.r / 2
	for i := range s.cursors {
		if !s.advanceCursor(i, half, q, qr) {
			return // stopped: flushBlock already handed back unconsumed work
		}
	}
	s.flushBlock(q, qr)
}

// sweepRound verifies all remaining unvisited live points, for the final
// covering round. Every point is in every tree, so draining the first
// cursor's frontier — everything not yet popped — is enough.
func (s *Searcher) sweepRound(q []float32, qr *query) {
	if s.advanceCursor(0, math.Inf(1), q, qr) {
		s.flushBlock(q, qr)
	}
}

// advanceCursor widens cursor i's window to Chebyshev half-width half and
// gathers the newly-exposed shell into the verification block, flushing at
// full blocks. Returns false when a flush stopped the traversal, and with
// it the query.
func (s *Searcher) advanceCursor(i int, half float64, q []float32, qr *query) bool {
	cur := s.cursors[i]
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
			if s.idx.isDeleted(id) || qr.filter != nil && !qr.filter(qr.global(id)) {
				continue
			}
			s.bids = append(s.bids, id)
			s.bmeta = append(s.bmeta, blockMeta{tree: int32(i), pos: int32(base + j)})
			if len(s.bids) >= verifyBlockSize && !s.flushBlock(q, qr) {
				// Hand back the batch tail the gather never examined;
				// flushBlock handed back its own unconsumed candidates.
				for u := j + 1; u < m; u++ {
					cur.Unpop(base + u)
				}
				stopped = true
				break outer
			}
		}
		base += m
	}
	if stopped {
		// The stop ends the query; skip the O(frontier) round teardown.
		cur.Abandon()
	} else {
		cur.EndRound()
	}
	qr.st.NodesVisited += cur.NodesVisited() - before
	return !stopped
}

// flushBlock verifies the gathered candidate block with the batched kernel,
// bounded by qr.worst() — candidates whose exact distance provably exceeds
// it are reported as +Inf, and by construction cannot enter the top-k it
// came from, so results are identical to exact verification — and hands it
// to qr.emit. Candidates emit did not consume get their visited stamps
// cleared (stamp 0 never matches a live epoch) and go back to their
// cursors' frontiers, so a later round can rediscover them. Returns false
// when emit stopped the query.
func (s *Searcher) flushBlock(q []float32, qr *query) bool {
	if len(s.bids) == 0 {
		return true
	}
	dists := s.bdists[:len(s.bids)]
	bound := qr.worst()
	vec.SquaredDistsToBounded(q, s.idx.data, s.bids, bound*bound, dists)
	for j := range dists {
		dists[j] = math.Sqrt(dists[j])
	}
	n, stop := qr.emit(s.bids, dists)
	for k, id := range s.bids[n:] {
		s.visited[id] = 0
		m := s.bmeta[n+k]
		s.cursors[m.tree].Unpop(int(m.pos))
	}
	s.bids = s.bids[:0]
	s.bmeta = s.bmeta[:0]
	return !stop
}
