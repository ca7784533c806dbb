// Package metric makes the DB-LSH stack metric-aware without touching its
// mathematical core. The index machinery — 2-stable projections, R*-trees,
// the radius ladder of Algorithm 2 — is correct only for Euclidean distance,
// so instead of parameterizing the ladder, each Metric owns a reduction *to*
// Euclidean space:
//
//   - a point transform applied once at ingest,
//   - a query transform applied once per query, and
//   - a mapping from the internal L2 score back to the metric's user-facing
//     distance.
//
// The core then runs pure L2 over the transformed (internal) vectors and
// stays faithful to the paper, while the boundary speaks the caller's
// metric:
//
//   - Euclidean is the identity.
//   - Cosine unit-normalizes points and queries; for unit vectors
//     ‖x−q‖² = 2(1−cos θ), so the internal L2 ladder ranks exactly by
//     cosine similarity and the reported distance is the cosine distance
//     1−cos θ.
//   - InnerProduct applies the classic augmented-dimension MIPS reduction
//     (Bachrach et al., RecSys 2014): points are scaled into the unit ball
//     by a norm bound M and given the extra coordinate √(1−‖x/M‖²), queries
//     are unit-normalized with a 0 appended; then ‖x̂−q̂‖² = 2 − 2⟨q,x⟩/(M‖q‖),
//     so nearest-in-L2 is exactly maximum inner product.
package metric

import (
	"fmt"
	"math"

	"dblsh/internal/vec"
)

// Kind identifies a metric. The numeric values are part of the persistence
// format (DBLSHv4) and must never be renumbered.
type Kind uint32

const (
	// Euclidean is plain L2 distance, the paper's setting and the default.
	Euclidean Kind = iota
	// Cosine is cosine distance 1−cos θ over unit-normalized vectors.
	Cosine
	// InnerProduct is maximum inner-product search via the augmented-
	// dimension reduction; reported distances are negated inner products so
	// ascending order means descending ⟨q,x⟩.
	InnerProduct

	numKinds
)

// String returns the canonical lower-case name, also accepted by ParseKind.
func (k Kind) String() string {
	switch k {
	case Euclidean:
		return "euclidean"
	case Cosine:
		return "cosine"
	case InnerProduct:
		return "ip"
	}
	return fmt.Sprintf("metric(%d)", uint32(k))
}

// Valid reports whether k names a known metric.
func (k Kind) Valid() bool { return k < numKinds }

// ParseKind maps a metric name to its Kind. It accepts the String() forms
// plus common aliases ("l2", "angular", "dot", "inner_product").
func ParseKind(s string) (Kind, error) {
	switch s {
	case "euclidean", "l2", "":
		return Euclidean, nil
	case "cosine", "angular":
		return Cosine, nil
	case "ip", "dot", "inner_product", "mips":
		return InnerProduct, nil
	}
	return Euclidean, fmt.Errorf("metric: unknown metric %q (want euclidean, cosine or ip)", s)
}

// Metric reduces one distance measure to internal Euclidean search. A Metric
// is immutable and safe for concurrent use.
type Metric interface {
	// Kind identifies the metric for persistence and stats.
	Kind() Kind

	// InternalDim returns the dimensionality of the internal Euclidean
	// space for user vectors of dimension d (d+1 for the MIPS reduction).
	InternalDim(d int) int

	// UserDim inverts InternalDim.
	UserDim(internal int) int

	// CheckPoint validates a user point before ingest: cosine rejects the
	// zero vector (no direction), inner product rejects points whose norm
	// exceeds the reduction's norm bound.
	CheckPoint(p []float32) error

	// TransformPoint appends the internal representation of user point p to
	// dst and returns the extended slice. p must have passed CheckPoint.
	TransformPoint(dst, p []float32) []float32

	// TransformQuery appends the internal representation of query q to dst.
	// Unlike points, any query is acceptable (a zero query is answered with
	// an arbitrary but deterministic ranking).
	TransformQuery(dst, q []float32) []float32

	// DistMapper returns the mapping from internal L2 distances (between
	// the transformed q and transformed points) back to the metric's
	// user-facing distance — L2 itself, cosine distance 1−cos θ, or the
	// negated inner product −⟨q,x⟩. q is the untransformed query; any
	// per-query state (the inner-product reduction's M·‖q‖ factor) is
	// computed once here, so mapping a whole top-k costs one norm pass,
	// not k.
	DistMapper(q []float32) func(internal float64) float64

	// InternalRadius maps a user-facing radius to internal L2 units for
	// fixed-radius queries and radius caps. Inner product has no meaningful
	// radius and returns an error.
	InternalRadius(r float64) (float64, error)

	// NormBound returns the fitted norm bound M of the MIPS reduction and 0
	// for the other metrics. It is the parameter the index file persists.
	NormBound() float64
}

// New constructs the metric for k. normBound is only meaningful for
// InnerProduct: it is the reduction's norm bound M (every ingested point
// must satisfy ‖p‖ ≤ M). FitNormBound derives it from a dataset.
func New(k Kind, normBound float64) (Metric, error) {
	switch k {
	case Euclidean:
		return euclidean{}, nil
	case Cosine:
		return cosine{}, nil
	case InnerProduct:
		if normBound <= 0 || math.IsInf(normBound, 1) || math.IsNaN(normBound) {
			return nil, fmt.Errorf("metric: inner product needs a positive finite norm bound, got %v", normBound)
		}
		return innerProduct{m: normBound}, nil
	}
	return nil, fmt.Errorf("metric: unknown kind %d", k)
}

// FitNormBound returns the MIPS norm bound for a dataset stored row-major in
// flat (n rows of dim): the maximum row norm, or 1 when the dataset is empty
// or all-zero so the reduction stays well-defined.
func FitNormBound(flat []float32, n, dim int) float64 {
	bound := 0.0
	for i := 0; i < n; i++ {
		if nm := vec.Norm(flat[i*dim : (i+1)*dim]); nm > bound {
			bound = nm
		}
	}
	if bound <= 0 {
		return 1
	}
	return bound
}

// --- Euclidean ---------------------------------------------------------------

type euclidean struct{}

func (euclidean) Kind() Kind                 { return Euclidean }
func (euclidean) InternalDim(d int) int      { return d }
func (euclidean) UserDim(internal int) int   { return internal }
func (euclidean) CheckPoint([]float32) error { return nil }
func (euclidean) NormBound() float64         { return 0 }

func (euclidean) TransformPoint(dst, p []float32) []float32 { return append(dst, p...) }
func (euclidean) TransformQuery(dst, q []float32) []float32 { return append(dst, q...) }

func (euclidean) DistMapper([]float32) func(float64) float64 {
	return func(internal float64) float64 { return internal }
}

func (euclidean) InternalRadius(r float64) (float64, error) { return r, nil }

// --- Cosine ------------------------------------------------------------------

type cosine struct{}

func (cosine) Kind() Kind               { return Cosine }
func (cosine) InternalDim(d int) int    { return d }
func (cosine) UserDim(internal int) int { return internal }
func (cosine) NormBound() float64       { return 0 }

func (cosine) CheckPoint(p []float32) error {
	if vec.Norm(p) == 0 {
		return fmt.Errorf("metric: cosine cannot index the zero vector (no direction)")
	}
	return nil
}

func appendNormalized(dst, p []float32) []float32 {
	n := vec.Norm(p)
	if n == 0 {
		return append(dst, p...)
	}
	inv := float32(1 / n)
	for _, x := range p {
		dst = append(dst, x*inv)
	}
	return dst
}

func (cosine) TransformPoint(dst, p []float32) []float32 { return appendNormalized(dst, p) }
func (cosine) TransformQuery(dst, q []float32) []float32 { return appendNormalized(dst, q) }

// DistMapper: for unit vectors ‖x−q‖² = 2(1−cos θ), so cosine distance is
// d²/2.
func (cosine) DistMapper([]float32) func(float64) float64 {
	return func(internal float64) float64 { return internal * internal / 2 }
}

// InternalRadius inverts UserDist: a cosine-distance radius r (in [0,2])
// corresponds to internal L2 radius √(2r).
func (cosine) InternalRadius(r float64) (float64, error) {
	if r < 0 || r > 2 {
		return 0, fmt.Errorf("metric: cosine distance radius must be in [0,2], got %v", r)
	}
	return math.Sqrt(2 * r), nil
}

// --- Inner product -----------------------------------------------------------

type innerProduct struct {
	m float64 // norm bound M: every indexed point satisfies ‖p‖ ≤ M
}

func (innerProduct) Kind() Kind               { return InnerProduct }
func (innerProduct) InternalDim(d int) int    { return d + 1 }
func (innerProduct) UserDim(internal int) int { return internal - 1 }
func (ip innerProduct) NormBound() float64    { return ip.m }

func (ip innerProduct) CheckPoint(p []float32) error {
	// A float32 round-trip of a boundary norm can land an ulp above M; the
	// relative slack forgives that without admitting genuinely larger points.
	if n := vec.Norm(p); n > ip.m*(1+1e-6) {
		return fmt.Errorf("metric: point norm %v exceeds the inner-product norm bound %v (rebuild the index with a larger bound)", n, ip.m)
	}
	return nil
}

// TransformPoint scales p into the unit ball and appends √(1−‖p/M‖²), making
// every stored vector a unit vector.
func (ip innerProduct) TransformPoint(dst, p []float32) []float32 {
	inv := float32(1 / ip.m)
	var s float64
	for _, x := range p {
		y := x * inv
		s += float64(y) * float64(y)
		dst = append(dst, y)
	}
	extra := 1 - s
	if extra < 0 {
		extra = 0 // ‖p‖ within rounding of M
	}
	return append(dst, float32(math.Sqrt(extra)))
}

// TransformQuery unit-normalizes q and appends 0: the augmented coordinate
// never contributes to ⟨q̂,x̂⟩, so d² = 2 − 2⟨q,x⟩/(M‖q‖).
func (ip innerProduct) TransformQuery(dst, q []float32) []float32 {
	return append(appendNormalized(dst, q), 0)
}

// DistMapper recovers −⟨q,x⟩ = −M·‖q‖·(2−d²)/2. The sign makes ascending
// "distance" order rank by descending inner product, matching the library's
// sorted-results contract. ‖q‖ is computed once for the whole result set.
func (ip innerProduct) DistMapper(q []float32) func(float64) float64 {
	scale := ip.m * vec.Norm(q)
	return func(internal float64) float64 {
		return -scale * (2 - internal*internal) / 2
	}
}

func (innerProduct) InternalRadius(float64) (float64, error) {
	return 0, fmt.Errorf("metric: radius queries are not defined for inner-product search")
}
