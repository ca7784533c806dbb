// Public metric selection. The index machinery is correct only for
// Euclidean distance, so non-Euclidean metrics are implemented as
// reductions *to* Euclidean search (see internal/metric): points and
// queries are transformed once at the boundary, the core radius ladder runs
// pure L2 over the transformed space, and internal scores map back to the
// chosen metric's user-facing distance on the way out.

package dblsh

import (
	"fmt"
	"math"

	"dblsh/internal/metric"
	"dblsh/internal/vec"
)

// Metric selects the distance an index searches under. The zero value is
// Euclidean, the paper's setting.
type Metric int

const (
	// Euclidean is plain L2 distance; Result.Dist is the Euclidean
	// distance.
	Euclidean Metric = Metric(metric.Euclidean)
	// Cosine searches by angle: vectors are unit-normalized at ingest and
	// Result.Dist is the cosine distance 1−cos θ in [0,2]. The vectors'
	// magnitudes are deliberately ignored; the zero vector cannot be
	// indexed.
	Cosine Metric = Metric(metric.Cosine)
	// InnerProduct searches for maximum inner product (MIPS) via the
	// augmented-dimension reduction: points gain one dimension and are
	// scaled into the unit ball by a norm bound fitted at build time.
	// Result.Dist is the NEGATED inner product −⟨q,x⟩, so the library's
	// ascending-distance order ranks by descending inner product; negate it
	// to recover ⟨q,x⟩. Radius queries (SearchRadiusOpts, WithMaxRadius) are
	// not defined under this metric and return an error.
	InnerProduct Metric = Metric(metric.InnerProduct)
)

// String returns the canonical name: "euclidean", "cosine" or "ip".
func (m Metric) String() string { return metric.Kind(m).String() }

// ParseMetric maps a metric name ("euclidean"/"l2", "cosine"/"angular",
// "ip"/"dot"/"inner_product") to its Metric.
func ParseMetric(s string) (Metric, error) {
	k, err := metric.ParseKind(s)
	return Metric(k), err
}

// buildMetric resolves Options.Metric against the dataset: the inner-product
// reduction fits its norm bound from the data unless Options.NormBound
// overrides it.
func buildMetric(opts Options, flat []float32, n, dim int) (metric.Metric, error) {
	kind := metric.Kind(opts.Metric)
	if !kind.Valid() {
		return nil, fmt.Errorf("dblsh: unknown metric %d", opts.Metric)
	}
	if opts.NormBound < 0 {
		return nil, fmt.Errorf("dblsh: NormBound must be non-negative, got %v", opts.NormBound)
	}
	if opts.NormBound > 0 && kind != metric.InnerProduct {
		return nil, fmt.Errorf("dblsh: NormBound only applies to the InnerProduct metric")
	}
	bound := 0.0
	if kind == metric.InnerProduct {
		bound = opts.NormBound
		if bound == 0 {
			bound = metric.FitNormBound(flat, n, dim)
		}
	}
	return metric.New(kind, bound)
}

// transformFlat maps a user dataset into the metric's internal Euclidean
// space, validating every row.
func transformFlat(m metric.Metric, flat []float32, n, dim int) ([]float32, error) {
	out := make([]float32, 0, n*m.InternalDim(dim))
	for i := 0; i < n; i++ {
		row := flat[i*dim : (i+1)*dim]
		if err := m.CheckPoint(row); err != nil {
			return nil, fmt.Errorf("dblsh: row %d: %w", i, err)
		}
		out = m.TransformPoint(out, row)
	}
	return out, nil
}

// transformQuery maps a checked user query into the internal space, reusing
// buf. Under Euclidean it returns q itself — the hot path stays zero-copy.
func (idx *Index) transformQuery(buf *[]float32, q []float32) []float32 {
	if idx.met.Kind() == metric.Euclidean {
		return q
	}
	*buf = idx.met.TransformQuery((*buf)[:0], q)
	return *buf
}

// userResults maps internal-space neighbors to user-facing results: ids are
// shared, distances go through the metric's score mapping (identity for
// Euclidean), with the mapper's per-query state computed once for the whole
// set. Every metric's mapping is monotone in the internal distance, so
// ascending order is preserved.
func (idx *Index) userResults(q []float32, nbs []vec.Neighbor) []Result {
	mapDist := idx.met.DistMapper(q)
	out := make([]Result, len(nbs))
	for i, nb := range nbs {
		out[i] = Result{ID: nb.ID, Dist: mapDist(nb.Dist)}
	}
	return out
}

// internalRadius maps a user-facing radius into internal L2 units. Under
// every metric a radius must be finite and ≥ 0; the metric may refuse more
// (cosine distance above 2, any radius under InnerProduct).
func (idx *Index) internalRadius(r float64) (float64, error) {
	if !(r >= 0) || math.IsInf(r, 1) {
		return 0, fmt.Errorf("dblsh: radius must be finite and ≥ 0, got %v", r)
	}
	return idx.met.InternalRadius(r)
}

// internalMaxRadius rewrites a user-facing WithMaxRadius cap into internal
// L2 units in place.
func (idx *Index) internalMaxRadius(s *searchSettings) error {
	if s.p.MaxRadius <= 0 {
		return nil
	}
	r, err := idx.internalRadius(s.p.MaxRadius)
	if err != nil {
		return err
	}
	s.p.MaxRadius = r
	return nil
}
