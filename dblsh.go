// Package dblsh provides fast high-dimensional approximate nearest neighbor
// (ANN) search with probabilistic quality guarantees, implementing DB-LSH
// ("DB-LSH: Locality-Sensitive Hashing with Query-based Dynamic Bucketing",
// Tian, Zhao, Zhou — ICDE 2022).
//
// DB-LSH hashes every point into L low-dimensional projected spaces with
// 2-stable random projections and indexes each projected space with an
// R*-tree. Queries build *query-centric* hypercubic buckets on the fly —
// window queries whose width grows geometrically with the search radius —
// which removes the hash-boundary problem of classical LSH while keeping
// sub-linear query cost: O(n^ρ* d log n) with ρ* ≤ 1/c^4.746 at the default
// bucket width (Lemma 3 / Theorem 2 of the paper).
//
// # Quick start
//
//	data := [][]float32{...}            // your vectors, all the same length
//	idx, err := dblsh.New(data, dblsh.Options{})
//	if err != nil { ... }
//	hits, err := idx.SearchOpts(query, 10) // 10 approximate nearest neighbors
//	if err != nil { ... }                   // wrong dim, k ≤ 0, NaN or ±Inf
//	for _, h := range hits {
//	    fmt.Println(h.ID, h.Dist)       // index into data, Euclidean distance
//	}
//
// The zero Options give the paper's defaults: approximation ratio c = 1.5,
// initial bucket width w0 = 4c², L = 5 projected spaces, and K derived from
// the dataset size. All randomness is seeded, so the same Options and data
// always produce the same index and the same answers.
//
// # Per-query options
//
// Options freezes only the index's structural parameters. The query-phase
// knobs — candidate budget, early-stop factor, radius cap — are per-query
// trade-offs, set with functional SearchOption values on the *Opts entry
// points so one index can serve heterogeneous traffic:
//
//	var st dblsh.Stats
//	hits, err := idx.SearchOpts(query, 10,
//	    dblsh.WithCandidateBudget(25),          // cheap: verify few candidates
//	    dblsh.WithEarlyStop(1.5),               // stop the radius ladder early
//	    dblsh.WithContext(ctx),                 // honor the request deadline
//	    dblsh.WithFilter(func(id int) bool {    // ACL pushdown: skip before
//	        return acl.Allowed(tenant, id)      // the distance computation
//	    }),
//	    dblsh.WithStats(&st),                   // observe the work done
//	)
//
// Each operation has one entry point: SearchOpts (on an Index, through an
// internal pool of Searchers, or on a Searcher of your own),
// SearchRadiusOpts, SearchBatchOpts and DeleteWithError. None of them
// panics on bad input: a query of the wrong dimension, k ≤ 0, a NaN or
// infinite coordinate or radius, or an invalid option is an error, returned
// before the query touches the index.
//
// # Metrics
//
// Options.Metric selects the distance the index searches under. The paper's
// machinery is correct only for Euclidean distance, so non-Euclidean
// metrics are implemented as reductions to Euclidean search: Cosine
// unit-normalizes vectors at ingest (for unit vectors L2 order is angular
// order; Result.Dist is the cosine distance 1−cos θ), and InnerProduct
// applies the augmented-dimension MIPS reduction (Result.Dist is the
// negated inner product, so ascending order ranks by descending ⟨q,x⟩):
//
//	idx, err := dblsh.New(embeddings, dblsh.Options{Metric: dblsh.Cosine})
//	hits, err := idx.SearchOpts(queryEmbedding, 10) // hits[i].Dist = 1 − cos θ
//
// The radius ladder itself always runs in the internal L2 space, staying
// faithful to Algorithm 2; only the boundary speaks the chosen metric.
//
// # Concurrency
//
// An Index is safe for fully concurrent use: searches, Add, DeleteWithError,
// compaction and WriteTo may all overlap. Internally it is one DB-LSH index
// guarded by one read-write lock. A search holds the read lock from the
// first round of its radius ladder to the last, so it answers from one
// state of the index; an Add, a delete or a compaction swap takes the write
// lock, so it waits for the searches in flight, and the searches that
// arrive meanwhile wait for it:
//
//	go func() { idx.Add(v) }()          // write-locks the index briefly
//	hits, err := idx.SearchOpts(q, 10)  // read-locks it for the whole query
//
// An Add appends the vector to an append-only tail in each of the L trees,
// which queries walk in arrival order. A delete only tombstones. Compact
// rebuilds the index from its live vectors — dropping the tombstone debt
// and packing the tails into fresh STR-packed trees — while the index keeps
// serving (the rebuild holds no lock; only a short swap does). Adds
// schedule that rebuild in the background once the tails hold 512 vectors,
// and Options.CompactFraction does so on tombstones. Global ids are stable
// across all of it.
//
// Earlier versions striped the rows over Options.Shards independently
// locked indexes. A query then walked every stripe's trees each round: on a
// clustered 100 000 × 128 corpus at k = 10 (2-vCPU amd64 box), 4 stripes
// visited 330.9 nodes per query against one index's 235.4, at a median of
// 114 µs against 67 µs. What stripes bought was smaller rebuilds: a
// closed-loop writer at 100 000 × 128 sustained 9.2 k adds/s over 4
// stripes and 1.8–1.9 k over one index, whose every repack rebuilds all of
// it.
//
// # Durability
//
// Open turns the index into a durable store backed by a directory: a
// snapshot (the WriteTo format, which holds the trees as they are, so that
// loading it rebuilds nothing) plus a write-ahead op log of every Add and
// Delete since that snapshot. A process killed without Close reopens with
// every mutation the sync policy had fsynced, under the same ids; a
// truncated final log record (a crash mid-append) is detected and dropped:
//
//	idx, err := dblsh.Open(dir, dblsh.Options{
//	    Dim:             768,                  // required when dir is empty
//	    Sync:            dblsh.SyncAlways,     // fsync before acknowledging
//	    CheckpointEvery: time.Minute,          // absorb the log in background
//	})
//	defer idx.Close()
//	id, err := idx.Add(v)                      // durable once Add returns
//
// Checkpoint (or the background checkpointer) rewrites the snapshot, copied
// under the read lock, and truncates the log, bounding both
// recovery time and disk growth while the store keeps serving. Save bridges
// the other way: it writes any in-memory index as the checkpoint of a fresh
// directory.
package dblsh

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"dblsh/internal/core"
	"dblsh/internal/metric"
	"dblsh/internal/shard"
	"dblsh/internal/vec"
)

// Result is one retrieved neighbor: the index of the point in the data the
// index was built over, and its distance to the query in the index's
// metric — Euclidean distance by default, cosine distance under Cosine,
// and the negated inner product −⟨q,x⟩ under InnerProduct (so ascending
// order always means "best first").
type Result struct {
	ID   int
	Dist float64
}

// Options configures index construction. The zero value is ready to use and
// mirrors the paper's experimental defaults.
type Options struct {
	// C is the approximation ratio, in [1.01, 64]: returned points are
	// c²-approximate nearest neighbors with constant probability (Theorem 1).
	// Smaller C means better accuracy and more work per query. Default 1.5.
	C float64

	// W0 overrides the initial bucket width (finite). Default 4C² (γ = 2),
	// the operating point with bound exponent α = 4.746.
	W0 float64

	// K is the number of hash functions per projected space, at most 64; 0
	// uses the paper's experimental setting (10, or 12 for datasets of 1M+
	// points). L·K·dim may not exceed 2²⁸ hash coefficients.
	K int

	// L is the number of projected spaces (and R*-trees), at most 64; 0 uses
	// the paper's setting of 5.
	L int

	// T is the candidate constant, at most 2²⁰: a (c,k)-ANN query verifies
	// at most 2·T·L + k exact distances. Larger T trades time for accuracy.
	// Default 100.
	T int

	// Seed makes hashing reproducible. The default 0 is a valid seed.
	Seed int64

	// Shards is ignored: every index is one index (see the package doc's
	// Concurrency section for what striping cost a query).
	// benchmark/run.go:89 still sets it. The next PR allowed to edit
	// benchmark/ removes it.
	Shards int

	// CompactFraction, when positive, enables automatic background
	// compaction: a delete that pushes the tombstoned fraction to the
	// threshold schedules a rebuild of the index from its live vectors.
	// Must be below 1. 0 disables; reclaim manually with Compact. The
	// repacks that adds owe (see Add) run whatever its value.
	CompactFraction float64

	// Parallelism is ignored: benchmark/durable.go:107 still sets it. The
	// next PR allowed to edit benchmark/ removes it.
	Parallelism int

	// Metric selects the distance the index searches under: Euclidean (the
	// default), Cosine, or InnerProduct. Non-Euclidean metrics transform
	// vectors at the boundary (which forces a copy of the input data) and
	// run the paper's machinery unchanged over the transformed space; see
	// the Metric constants for what Result.Dist means under each.
	Metric Metric

	// NormBound overrides the inner-product reduction's norm bound M, which
	// otherwise is fitted as the maximum vector norm of the build dataset.
	// Every vector ever ingested must satisfy ‖v‖ ≤ M, so set a bound with
	// headroom when Adds may exceed the build-time maximum. Only valid with
	// Metric == InnerProduct.
	NormBound float64

	// The fields below configure the durability subsystem and apply only to
	// indexes opened with Open; New and NewFromFlat build purely in-memory
	// indexes and ignore them.

	// Dim is the vector dimensionality of a durable store created in an
	// empty directory (there is no dataset to infer it from). Once the
	// directory holds a checkpoint the stored dimensionality wins, and a
	// non-zero Dim that disagrees with it is an error.
	Dim int

	// Sync selects when logged mutations are fsynced to stable storage:
	// SyncAlways (the zero value — every mutation, before it is
	// acknowledged), SyncInterval (a background flush every SyncEvery), or
	// SyncNever (the OS decides). See the SyncPolicy constants for the loss
	// window each policy bounds.
	Sync SyncPolicy

	// SyncEvery is the background fsync cadence under SyncInterval.
	// 0 defaults to 100ms. Ignored under the other policies.
	SyncEvery time.Duration

	// CheckpointEvery, when positive, runs a background checkpoint at that
	// cadence (skipped while no mutations are pending): the snapshot is
	// rewritten and the op log truncated, bounding both
	// recovery time and log growth. 0 leaves checkpointing to explicit
	// Checkpoint calls.
	CheckpointEvery time.Duration
}

// Index answers approximate nearest neighbor queries. It is safe for fully
// concurrent use, including searches overlapping Add, DeleteWithError,
// compaction and WriteTo.
type Index struct {
	set *shard.Set
	dim int // user-facing dimensionality; the internal space may be wider
	met metric.Metric
	dur *durable // non-nil only for indexes opened with Open

	pool sync.Pool // of *Searcher, for Index.SearchOpts
}

// New builds an index over data, copying the vectors into an internal
// contiguous layout. All rows must have the same nonzero length.
func New(data [][]float32, opts Options) (*Index, error) {
	if len(data) == 0 {
		return nil, errors.New("dblsh: empty dataset")
	}
	dim := len(data[0])
	if dim == 0 {
		return nil, errors.New("dblsh: zero-dimensional vectors")
	}
	m := vec.NewMatrix(len(data), dim)
	for i, row := range data {
		if len(row) != dim {
			return nil, fmt.Errorf("dblsh: row %d has dimension %d, want %d", i, len(row), dim)
		}
		m.SetRow(i, row)
	}
	return NewFromFlat(m.Data(), len(data), dim, opts)
}

// NewFromFlat builds an index over n vectors of dimension dim stored
// row-major in flat. Under the default Euclidean metric the slice is used
// directly without copying, and the caller must not mutate it while the
// index is alive; non-Euclidean indexes copy (and transform) the data into
// an internal layout. The zero-copy rows have no room to grow, so the first
// Add copies them, holding the write lock (~50 ms at 100 000 × 128); an
// index loaded with Read or Open, or rebuilt by a compaction, keeps room for
// a full tail of adds. len(flat) must equal n*dim, and every value must be
// finite: NaN or ±Inf anywhere is an error.
func NewFromFlat(flat []float32, n, dim int, opts Options) (*Index, error) {
	if n <= 0 || dim <= 0 {
		return nil, fmt.Errorf("dblsh: invalid shape %d×%d", n, dim)
	}
	if len(flat) != n*dim {
		return nil, fmt.Errorf("dblsh: flat data has %d values, want %d×%d = %d", len(flat), n, dim, n*dim)
	}
	// x·0 is 0 for a finite x and NaN for NaN and ±Inf, so the dot kernel
	// against a zero row vets a whole row at SIMD speed (a third of the
	// scalar scan's time over a 40k × 960 corpus); only a row that fails is
	// scanned for the coordinate to name.
	zero := make([]float32, dim)
	for r := 0; r < n; r++ {
		row := flat[r*dim : (r+1)*dim]
		if vec.Dot(row, zero) != 0 {
			return nil, fmt.Errorf("dblsh: row %d: %w", r, checkFinite(row))
		}
	}
	return newIndex(flat, n, dim, opts)
}

// firstNonFinite returns the position of the first NaN or ±Inf in v, or -1.
// The index fails closed on such input under every metric: a NaN coordinate
// projects to NaN keys, which no ordering the R*-trees keep (the STR
// pack's sort order, rectangle containment, the window tests' gaps)
// survives, and on a durable index it would be logged and replayed forever.
func firstNonFinite(v []float32) int {
	for i, x := range v {
		if x-x != 0 { // finite values are the ones whose self-difference is 0
			return i
		}
	}
	return -1
}

func nonFiniteError(coord int, x float32) error {
	return fmt.Errorf("dblsh: coordinate %d is %v; vectors must be finite", coord, x)
}

// checkFinite returns the error for the first NaN or ±Inf in v, if any.
func checkFinite(v []float32) error {
	if i := firstNonFinite(v); i >= 0 {
		return nonFiniteError(i, v[i])
	}
	return nil
}

// newIndex validates opts and builds an index over n ≥ 0 rows. It is
// NewFromFlat without the non-empty requirement: Open starts a fresh
// durable store from an empty index and grows it by WAL replay.
func newIndex(flat []float32, n, dim int, opts Options) (*Index, error) {
	if opts.C != 0 && opts.C <= 1 {
		return nil, fmt.Errorf("dblsh: approximation ratio C must exceed 1, got %v", opts.C)
	}
	if opts.K < 0 || opts.L < 0 || opts.T < 0 {
		return nil, errors.New("dblsh: K, L and T must be non-negative")
	}
	if err := checkCompactFraction(opts.CompactFraction); err != nil {
		return nil, err
	}
	met, err := buildMetric(opts, flat, n, dim)
	if err != nil {
		return nil, err
	}
	cfg := core.Config{
		C:               opts.C,
		W0:              opts.W0,
		K:               opts.K,
		L:               opts.L,
		T:               opts.T,
		Seed:            opts.Seed,
		Metric:          met.Kind(),
		MetricNormBound: met.NormBound(),
	}
	idim := met.InternalDim(dim)
	if err := checkConfig(idim, cfg.Resolved(n)); err != nil {
		return nil, err
	}
	iflat := flat
	if met.Kind() != metric.Euclidean {
		if iflat, err = transformFlat(met, flat, n, dim); err != nil {
			return nil, err
		}
	}
	set := shard.Build(iflat, n, idim, 1, opts.CompactFraction, cfg)
	return &Index{set: set, dim: dim, met: met}, nil
}

// Len returns the number of resident vectors, live plus tombstoned. It
// shrinks when a compaction reclaims tombstones; ids, however, are never
// reused — see NextID for the id-space bound.
func (idx *Index) Len() int { return idx.set.Len() }

// NextID returns the exclusive upper bound of the id space: every id ever
// returned by Add (and every build-time id) is below it, whether or not the
// vector is still live.
func (idx *Index) NextID() int { return idx.set.NextID() }

// Dim returns the vector dimensionality callers ingest and query with. (The
// internal search space is one dimension wider under InnerProduct; callers
// never see it.)
func (idx *Index) Dim() int { return idx.dim }

// Metric returns the distance metric the index was built with.
func (idx *Index) Metric() Metric { return Metric(idx.met.Kind()) }

// Searcher is a reusable per-goroutine query context: Index.SearchOpts
// borrows one from the index's pool for each query, and a query-heavy loop
// can hold its own.
type Searcher struct {
	idx   *Index
	inner *shard.Searcher
	qbuf  []float32 // reused query-transform scratch for non-Euclidean metrics
}

// NewSearcher returns a searcher bound to the index. A Searcher must only be
// used from one goroutine at a time; it remains valid across Add,
// DeleteWithError and compaction.
func (idx *Index) NewSearcher() *Searcher {
	return &Searcher{idx: idx, inner: idx.set.NewSearcher()}
}

// Stats describes the work one query did; WithStats and WithBatchStats
// record it.
type Stats struct {
	// Candidates is the number of exact distance computations performed.
	Candidates int
	// Rounds is the number of (r,c)-NN radius levels visited (Algorithm 2).
	Rounds int
	// FinalRadius is the search radius at which the query terminated.
	FinalRadius float64
	// NodesVisited counts R*-tree nodes examined by the query's traversal,
	// across all projected spaces and rounds: an interior node once per
	// query, and a leaf each time a wider window reaches more of its
	// entries. A tail leaf holds added vectors in arrival order, so it
	// straddles every window and is re-entered each round.
	NodesVisited int
	// FrontierSize is the number of items still parked in the traversal
	// cursors when the query finished — the residual work the incremental
	// ladder never had to touch.
	FrontierSize int
}

// Params reports the effective index parameters after defaulting and
// derivation.
type Params struct {
	C, W0 float64
	K, L  int
	T     int
	// Metric is the distance metric the index searches under.
	Metric Metric
	// NormBound is the inner-product reduction's fitted norm bound M; 0
	// under the other metrics.
	NormBound float64
	// Quantize is always "off": benchmark/layers.go:93 still reads it. The
	// next PR allowed to edit benchmark/ removes it.
	Quantize string
}

// Params returns the parameters the index was built with.
func (idx *Index) Params() Params {
	cfg := idx.set.Params()
	return Params{
		C: cfg.C, W0: cfg.W0, K: cfg.K, L: cfg.L, T: cfg.T,
		Metric: Metric(cfg.Metric), NormBound: cfg.MetricNormBound,
		Quantize: "off",
	}
}

// IndexSizeBytes estimates the memory held by the R*-trees, whose leaves
// hold the projected points, excluding the original vectors.
func (idx *Index) IndexSizeBytes() int64 { return idx.set.IndexSizeBytes() }

// Add inserts a vector and returns its id. Ids are allocated sequentially
// and never reused. Add is safe to call concurrently with searches and
// other mutations: it takes the write lock briefly, between the rounds of
// running queries. Searchers created before an Add remain valid. A vector with a NaN or infinite coordinate is
// rejected with an error under every metric, before anything is logged or
// applied. Under a non-Euclidean metric the vector must also satisfy the
// metric's ingest contract (nonzero under Cosine, ‖v‖ within the norm bound
// under InnerProduct) or an error is returned.
//
// The vector joins an append-only tail in each of the L trees: a hash and L
// appends, with no tree descent. A tail holds 1 024 vectors; a query walks
// it in arrival order, which costs it up to ~50 % more tree nodes on
// well-clustered data when the tail is full (less on overlapping data).
// Once the tail holds half that, the Add schedules a background rebuild
// that packs it (see Compact), and an Add that finds the tail full packs it
// inline, holding the write lock.
//
// On a durable index (see Open) the mutation is write-ahead: the op log
// record is appended — and, under SyncAlways, fsynced — before the vector
// enters the index. A logging failure therefore applies nothing and
// returns an error wrapping ErrDurability (safe to retry); after Close,
// Add applies nothing and returns ErrClosed.
func (idx *Index) Add(v []float32) (int, error) {
	if len(v) != idx.dim {
		return 0, fmt.Errorf("dblsh: vector dim %d, index dim %d", len(v), idx.dim)
	}
	if err := checkFinite(v); err != nil {
		return 0, err
	}
	row := v
	if idx.met.Kind() != metric.Euclidean {
		if err := idx.met.CheckPoint(v); err != nil {
			return 0, err
		}
		row = idx.met.TransformPoint(nil, v)
	}
	if idx.dur != nil {
		return idx.dur.add(idx, row)
	}
	return idx.set.Add(row), nil
}

// DeleteWithError removes vector id from future search results. The
// underlying storage is tombstoned, not reclaimed — reclaim with Compact,
// or set Options.CompactFraction to automate it. It is safe to call
// concurrently with searches and mutations: it takes the write lock
// briefly. ok is false when id was never allocated, is
// already deleted, or was reclaimed by a compaction.
//
// On a durable index (see Open) the tombstone is write-ahead: the op log
// record is appended — and, under SyncAlways, fsynced — before the
// tombstone is laid, so ok = true means the delete is as durable as the
// sync policy promises. err is non-nil when the record could not be logged
// (wrapping ErrDurability; nothing was applied, retrying is safe) or when
// the index is closed (ErrClosed). On a purely in-memory index err is
// always nil.
func (idx *Index) DeleteWithError(id int) (ok bool, err error) {
	if idx.dur != nil {
		return idx.dur.delete(idx, id)
	}
	return idx.set.Delete(id), nil
}

// Deleted returns the number of tombstoned vectors.
func (idx *Index) Deleted() int { return idx.set.Deleted() }

// Compact rebuilds the index from its live vectors, dropping its tombstones
// and packing its trees' tails, while it keeps serving searches and
// mutations (only a short swap takes the write lock). Global ids are
// preserved. It returns the number of tombstones reclaimed.
func (idx *Index) Compact() int { return idx.set.Compact() }

// SetCompactFraction replaces the auto-compaction threshold at runtime —
// see Options.CompactFraction. The threshold is an operational policy, not
// part of the persisted index state, so an index loaded with Read starts
// with auto-compaction disabled; use this to enable it.
func (idx *Index) SetCompactFraction(f float64) error {
	if err := checkCompactFraction(f); err != nil {
		return err
	}
	idx.set.SetCompactFraction(f)
	return nil
}

func checkCompactFraction(f float64) error {
	if f < 0 || f >= 1 {
		return fmt.Errorf("dblsh: CompactFraction must be in [0,1), got %v", f)
	}
	return nil
}

// ShardStat describes the index's current state.
type ShardStat struct {
	// Shard is always 0: the index is one shard.
	Shard int
	// Size is the number of resident vectors, live plus tombstoned.
	Size int
	// Live is the number of vectors searches can still return.
	Live int
	// Deleted is the tombstone count a compaction would reclaim.
	Deleted int
	// Unpacked is the number of vectors added since the index was last
	// packed. They wait in an append-only tail that queries walk in arrival
	// order; a compaction, which an add schedules once the tail is half
	// full, packs them.
	Unpacked int
	// Compactions counts completed compactions, repacks included.
	Compactions int
	// LastCompaction is when the most recent compaction finished; zero if
	// the index has never been compacted.
	LastCompaction time.Time
	// IndexSizeBytes estimates the trees' footprint.
	IndexSizeBytes int64
}

// ShardStats reports the index's statistics as one entry. It keeps the
// form of the striped index's per-stripe list because benchmark/durable.go
// still ranges over it; the next PR allowed to edit benchmark/ replaces it.
func (idx *Index) ShardStats() []ShardStat {
	in := idx.set.Info()
	return []ShardStat{{
		Size:           in.Size,
		Live:           in.Live,
		Deleted:        in.Deleted,
		Unpacked:       in.Unpacked,
		Compactions:    in.Compactions,
		LastCompaction: in.LastCompaction,
		IndexSizeBytes: in.IndexSizeBytes,
	}}
}
