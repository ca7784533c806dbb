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
// set the same knob the last one wins. With no options a query runs with
// the index's build-time parameters.
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

// applySearchOptions resolves opts for a batch or for a single query: each
// of WithStats and WithBatchStats is an error outside its scope.
func applySearchOptions(opts []SearchOption, batch bool) (searchSettings, error) {
	var s searchSettings
	for _, o := range opts {
		o(&s)
	}
	switch {
	case batch && s.stats != nil:
		s.fail(errors.New("dblsh: WithStats applies only to single queries; use WithBatchStats"))
	case !batch && s.batchStats != nil:
		s.fail(errors.New("dblsh: WithBatchStats applies only to SearchBatchOpts"))
	}
	return s, s.err
}

// WithCandidateBudget overrides the candidate constant t for this query:
// at most 2·t·L+k exact distances are computed (Algorithm 1's budget).
// Larger values trade latency for accuracy; smaller values answer fast from
// fewer candidates. t must be in [1, 2²⁰], the range Options.T allows.
func WithCandidateBudget(t int) SearchOption {
	return func(s *searchSettings) {
		if t < 1 || t > maxT {
			s.fail(fmt.Errorf("dblsh: candidate budget must be in [1, %d], got %d", maxT, t))
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
		if !(factor >= 1) { // NaN fails too
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
		if !(r > 0) { // NaN fails too
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
// concurrent use: SearchBatchOpts invokes it from its parallel workers. If
// keep panics, the panic reaches the caller's goroutine (a batch's once its
// other queries have finished) with the index's lock released, and the
// index and its searchers answer the next query as if the panicking one
// had never run.
func WithFilter(keep func(id int) bool) SearchOption {
	return func(s *searchSettings) {
		if keep == nil {
			s.fail(errors.New("dblsh: WithFilter requires a non-nil predicate"))
			return
		}
		s.p.Filter = keep
	}
}

// WithStats records the query's work statistics into st. It is only valid
// on single queries; a batch records per-query statistics with
// WithBatchStats.
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

func statsFromCore(st core.Stats) Stats {
	return Stats{
		Candidates:   st.Candidates,
		Rounds:       st.Rounds,
		FinalRadius:  st.FinalR,
		NodesVisited: st.NodesVisited,
		FrontierSize: st.Frontier,
	}
}

// checkQuery refuses a query the index cannot answer: one of the wrong
// dimension, a k below 1, or a NaN or infinite coordinate. A non-finite
// query projects to window bounds every comparison against which is false,
// so every entry of every tree would count as inside.
func (idx *Index) checkQuery(q []float32, k int) error {
	if len(q) != idx.dim {
		return fmt.Errorf("dblsh: query dim %d, index dim %d", len(q), idx.dim)
	}
	if k <= 0 {
		return fmt.Errorf("dblsh: k must be positive, got %d", k)
	}
	return checkFinite(q)
}

// SearchOpts returns the k approximate nearest neighbors of q, sorted by
// ascending distance, through a Searcher borrowed from the index's pool;
// see Searcher.SearchOpts.
func (idx *Index) SearchOpts(q []float32, k int, opts ...SearchOption) ([]Result, error) {
	s, _ := idx.pool.Get().(*Searcher)
	if s == nil {
		s = idx.NewSearcher()
	}
	defer idx.pool.Put(s)
	return s.SearchOpts(q, k, opts...)
}

// SearchOpts returns the k approximate nearest neighbors of q, sorted by
// ascending distance, with per-query options applied. Unless WithFilter or
// WithMaxRadius excludes some, fewer than k results come back only when
// fewer than k vectors are live. The error is non-nil,
// and nothing is searched, when q has the wrong dimension or a NaN or
// infinite coordinate, k < 1, or an option is invalid. It is also non-nil
// when the query's context expires, and then it comes with the best
// results found before cancellation.
func (s *Searcher) SearchOpts(q []float32, k int, opts ...SearchOption) ([]Result, error) {
	set, err := applySearchOptions(opts, false)
	if err == nil {
		err = s.idx.checkQuery(q, k)
	}
	if err == nil {
		err = s.idx.internalMaxRadius(&set)
	}
	if err != nil {
		return nil, err
	}
	nbs, err := s.inner.Search(s.idx.transformQuery(&s.qbuf, q), k, set.p)
	if set.stats != nil {
		*set.stats = statsFromCore(s.inner.LastStats())
	}
	return s.idx.userResults(q, nbs), err
}

// SearchRadiusOpts answers a single (r,c)-NN query (Algorithm 1 of the
// paper): if some indexed point lies within distance r of q, it returns a
// point within c·r with constant probability; if no point lies within c·r
// it returns ok = false. It is the primitive SearchOpts's radius ladder is
// built from, for callers that know their target radius. The radius is in
// the index's metric — Euclidean distance, or cosine distance in [0,2] —
// and must be finite and ≥ 0; under InnerProduct a radius has no meaning
// and every radius is an error. Of the options, WithCandidateBudget,
// WithFilter, WithContext and WithStats apply; the ladder-shaping options
// (WithEarlyStop, WithMaxRadius) are ignored because a fixed-radius query
// runs a single round. The query itself is checked as SearchOpts checks it.
func (s *Searcher) SearchRadiusOpts(q []float32, r float64, opts ...SearchOption) (Result, bool, error) {
	set, err := applySearchOptions(opts, false)
	if err == nil {
		err = s.idx.checkQuery(q, 1)
	}
	var ir float64
	if err == nil {
		ir, err = s.idx.internalRadius(r)
	}
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

// SearchBatchOpts answers many queries with the same k and options, in
// parallel across up to GOMAXPROCS workers, the caller's goroutine among
// them; results[i] corresponds to queries[i]. Every query is checked as
// SearchOpts checks it before any of them runs, and the first refused one
// fails the whole batch with an error naming its index. On context expiry
// the queries already answered keep their results, the rest are nil, and
// the context's error is returned. It is safe to run concurrently with Add
// and DeleteWithError; the read lock is taken per ladder round, so
// mutations interleave between rounds and a query may observe vectors added
// while it runs.
func (idx *Index) SearchBatchOpts(queries [][]float32, k int, opts ...SearchOption) ([][]Result, error) {
	set, err := applySearchOptions(opts, true)
	if err == nil {
		err = idx.internalMaxRadius(&set)
	}
	if err != nil {
		return nil, err
	}
	for i, q := range queries {
		if err := idx.checkQuery(q, k); err != nil {
			return nil, fmt.Errorf("%w (query %d)", err, i)
		}
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
	if set.batchStats != nil {
		per := make([]Stats, len(queries))
		for i, st := range coreStats {
			per[i] = statsFromCore(st)
		}
		*set.batchStats = per
	}
	return out, firstErr
}
