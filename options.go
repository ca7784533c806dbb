// Per-query search options. Index construction (Options) fixes the paper's
// structural parameters — K, L, the hash family — but the knobs of the query
// phase (Algorithm 2) are per-query trade-offs between recall and latency.
// SearchOption lets one index instance serve cheap low-recall lookups and
// expensive high-recall lookups side by side, honor request deadlines, and
// push access-control predicates into candidate verification.

package dblsh

import (
	"context"
	"errors"
	"fmt"

	"dblsh/internal/core"
	"dblsh/internal/metric"
)

// SearchOption customizes a single query without touching the index's
// build-time configuration. Options compose left to right; when two options
// set the same knob the last one wins. The zero set of options reproduces
// the plain Search/SearchBatch/SearchRadius behavior exactly.
type SearchOption func(*searchSettings)

// searchSettings is the resolved form of a []SearchOption. Option
// constructors validate eagerly and record the first error here, so the
// *Opts entry points can report it before touching the index.
type searchSettings struct {
	p          core.QueryParams
	stats      *Stats
	batchStats *[]Stats
	err        error
}

func (s *searchSettings) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

func applySearchOptions(opts []SearchOption) (searchSettings, error) {
	var s searchSettings
	for _, o := range opts {
		o(&s)
	}
	return s, s.err
}

// WithCandidateBudget overrides the candidate constant t for this query:
// at most 2·t·L+k exact distances are computed (Algorithm 1's budget).
// Larger values trade latency for accuracy; smaller values answer fast from
// fewer candidates. t must be positive.
func WithCandidateBudget(t int) SearchOption {
	return func(s *searchSettings) {
		if t <= 0 {
			s.fail(fmt.Errorf("dblsh: candidate budget must be positive, got %d", t))
			return
		}
		s.p.T = t
	}
}

// WithEarlyStop loosens the termination test of the radius ladder for this
// query: it stops once the k-th candidate is within factor·C·r of the
// current radius r instead of C·r. factor must be ≥ 1; 1 reproduces the
// paper's Algorithm 2 exactly, larger values stop earlier, trading recall
// for latency.
func WithEarlyStop(factor float64) SearchOption {
	return func(s *searchSettings) {
		if factor < 1 {
			s.fail(fmt.Errorf("dblsh: early-stop factor must be ≥ 1, got %v", factor))
			return
		}
		s.p.EarlyStopFactor = factor
	}
}

// WithMaxRadius caps the radius ladder: rounds whose search radius would
// exceed r are not executed and the query returns whatever candidates it
// found within the cap (possibly none). Use it when hits beyond a known
// distance are worthless, e.g. duplicate detection. r must be positive.
func WithMaxRadius(r float64) SearchOption {
	return func(s *searchSettings) {
		if r <= 0 {
			s.fail(fmt.Errorf("dblsh: max radius must be positive, got %v", r))
			return
		}
		s.p.MaxRadius = r
	}
}

// WithContext attaches a deadline/cancellation context to the query. It is
// polled between radius rounds — the ladder's natural unit of work — so
// cancellation is prompt but never splits a round. A cancelled query returns
// the best candidates found so far together with ctx.Err().
func WithContext(ctx context.Context) SearchOption {
	return func(s *searchSettings) {
		if ctx == nil {
			s.fail(errors.New("dblsh: WithContext requires a non-nil context"))
			return
		}
		s.p.Ctx = ctx
	}
}

// WithFilter restricts results to ids keep accepts — tenant scoping, ACL
// checks, or excluding the query point itself. The predicate is pushed down
// into the verification loop (the same skip path tombstoned points take),
// so rejected points consume none of the candidate budget and no exact
// distance is computed for them. keep must be cheap: it runs once per
// candidate the window queries surface. It must also be safe for
// concurrent use: SearchBatchOpts invokes it from its parallel workers.
func WithFilter(keep func(id int) bool) SearchOption {
	return func(s *searchSettings) {
		if keep == nil {
			s.fail(errors.New("dblsh: WithFilter requires a non-nil predicate"))
			return
		}
		s.p.Filter = keep
	}
}

// WithStats records the query's work statistics into st. For batch queries
// the per-query statistics are summed (FinalRadius reports the maximum).
func WithStats(st *Stats) SearchOption {
	return func(s *searchSettings) {
		if st == nil {
			s.fail(errors.New("dblsh: WithStats requires a non-nil *Stats"))
			return
		}
		s.stats = st
	}
}

// WithBatchStats records one Stats per query of a SearchBatchOpts call into
// *sts (resized to the number of queries). It is only valid on
// SearchBatchOpts.
func WithBatchStats(sts *[]Stats) SearchOption {
	return func(s *searchSettings) {
		if sts == nil {
			s.fail(errors.New("dblsh: WithBatchStats requires a non-nil *[]Stats"))
			return
		}
		s.batchStats = sts
	}
}

var errBatchStatsScope = errors.New("dblsh: WithBatchStats applies only to SearchBatchOpts")

func statsFromCore(st core.Stats) Stats {
	return Stats{
		Candidates:   st.Candidates,
		Rounds:       st.Rounds,
		FinalRadius:  st.FinalR,
		NodesVisited: st.NodesVisited,
		FrontierSize: st.Frontier,
	}
}

// SearchOpts is Search with per-query options. The error is non-nil when an
// option is invalid, the query has a NaN or infinite coordinate (refused
// before anything is hashed: such a query projects to window bounds every
// comparison against which is false, and every entry of every tree would
// count as inside) or the query's context expires; a context error still
// comes with the best results found before cancellation. Like Search, it
// panics if len(q) != Dim() or k <= 0.
func (idx *Index) SearchOpts(q []float32, k int, opts ...SearchOption) ([]Result, error) {
	set, err := applySearchOptions(opts)
	if err != nil {
		return nil, err
	}
	if set.batchStats != nil {
		return nil, errBatchStatsScope
	}
	if err := checkFinite(q); err != nil {
		return nil, err
	}
	if err := idx.internalMaxRadius(q, &set); err != nil {
		return nil, err
	}
	var buf []float32
	nbs, st, err := idx.set.Search(idx.transformQuery(&buf, q), k, set.p)
	if set.stats != nil {
		*set.stats = statsFromCore(st)
	}
	return idx.userResults(q, nbs), err
}

// SearchOpts is Searcher.Search with per-query options; see Index.SearchOpts.
func (s *Searcher) SearchOpts(q []float32, k int, opts ...SearchOption) ([]Result, error) {
	set, err := applySearchOptions(opts)
	if err != nil {
		return nil, err
	}
	if set.batchStats != nil {
		return nil, errBatchStatsScope
	}
	if err := checkFinite(q); err != nil {
		return nil, err
	}
	if err := s.idx.internalMaxRadius(q, &set); err != nil {
		return nil, err
	}
	nbs, err := s.inner.Search(s.idx.transformQuery(&s.qbuf, q), k, set.p)
	if set.stats != nil {
		*set.stats = statsFromCore(s.inner.LastStats())
	}
	return s.idx.userResults(q, nbs), err
}

// SearchRadiusOpts is SearchRadius with per-query options. Of the knobs,
// WithCandidateBudget, WithFilter, WithContext and WithStats apply; the
// ladder-shaping options (WithEarlyStop, WithMaxRadius) are ignored because
// a fixed-radius query runs a single round. The radius is in the index's
// metric (Euclidean distance, or cosine distance in [0,2]); under
// InnerProduct a radius has no meaning and an error is returned, as it is
// for a query with a NaN or infinite coordinate.
func (s *Searcher) SearchRadiusOpts(q []float32, r float64, opts ...SearchOption) (Result, bool, error) {
	set, err := applySearchOptions(opts)
	if err != nil {
		return Result{}, false, err
	}
	if set.batchStats != nil {
		return Result{}, false, errBatchStatsScope
	}
	if err := checkFinite(q); err != nil {
		return Result{}, false, err
	}
	ir, err := s.idx.met.InternalRadius(q, r)
	if err != nil {
		return Result{}, false, err
	}
	nb, ok, err := s.inner.SearchRadius(s.idx.transformQuery(&s.qbuf, q), ir, set.p)
	if set.stats != nil {
		*set.stats = statsFromCore(s.inner.LastStats())
	}
	res := Result{ID: nb.ID, Dist: nb.Dist}
	if ok {
		res.Dist = s.idx.met.DistMapper(q)(nb.Dist)
	}
	return res, ok, err
}

// SearchBatchOpts is SearchBatch with per-query options applied uniformly to
// every query in the batch. Queries run in parallel across GOMAXPROCS
// workers, each with its own Searcher; results[i] corresponds to queries[i].
// A query with a NaN or infinite coordinate fails the whole batch before any
// query runs. On context expiry the queries already answered keep their
// results, the rest are nil, and the context's error is returned. It is
// safe to run concurrently with Add and Delete; shard locks are taken per
// ladder round, so mutations interleave between rounds and a query may
// observe vectors added while it runs.
func (idx *Index) SearchBatchOpts(queries [][]float32, k int, opts ...SearchOption) ([][]Result, error) {
	set, err := applySearchOptions(opts)
	if err != nil {
		return nil, err
	}
	for i, q := range queries {
		if err := checkFinite(q); err != nil {
			return nil, fmt.Errorf("dblsh: query %d: %w", i, err)
		}
	}
	if err := idx.internalMaxRadius(nil, &set); err != nil {
		return nil, err
	}
	internal := queries
	if idx.met.Kind() != metric.Euclidean {
		internal = make([][]float32, len(queries))
		for i, q := range queries {
			internal[i] = idx.transformQuery(new([]float32), q)
		}
	}
	nbs, coreStats, firstErr := idx.set.SearchBatch(internal, k, set.p)
	out := make([][]Result, len(queries))
	for i, n := range nbs {
		if n == nil {
			continue // not answered: keep the nil marker
		}
		out[i] = idx.userResults(queries[i], n)
	}

	var per []Stats
	if set.batchStats != nil || set.stats != nil {
		per = make([]Stats, len(queries))
		for i, st := range coreStats {
			per[i] = statsFromCore(st)
		}
	}
	if set.batchStats != nil {
		*set.batchStats = per
	}
	if set.stats != nil {
		var agg Stats
		for _, st := range per {
			agg.Candidates += st.Candidates
			agg.Rounds += st.Rounds
			agg.NodesVisited += st.NodesVisited
			agg.FrontierSize += st.FrontierSize
			if st.FinalRadius > agg.FinalRadius {
				agg.FinalRadius = st.FinalRadius
			}
		}
		*set.stats = agg
	}
	return out, firstErr
}
