package vec

import "math"

// Blocked batch verification kernels.
//
// DB-LSH spends nearly all query time verifying candidates — exact distance
// computations inside the 2tL+k budget. Verifying candidates one callback at
// a time keeps the query vector and the loop bookkeeping out of steady
// state; these kernels take a whole block of candidate row ids and sweep
// them against the contiguous Matrix storage in one pass, so q stays in
// cache, the per-candidate call overhead amortizes across the block, and
// the early-abandon variant can stop a row's scan the moment it provably
// cannot beat the current k-th best.

// DistsTo computes the Euclidean distance from q to each candidate row of m
// listed in ids, writing results into out. out must have len(ids) capacity;
// out[j] corresponds to ids[j]. len(q) must equal m.Dim().
func DistsTo(q []float32, m *Matrix, ids []int, out []float64) {
	SquaredDistsTo(q, m, ids, out)
	for j, s := range out {
		out[j] = math.Sqrt(s)
	}
}

// SquaredDistsTo is DistsTo without the final square root.
func SquaredDistsTo(q []float32, m *Matrix, ids []int, out []float64) {
	_ = out[:len(ids)]
	for j, id := range ids {
		out[j] = SquaredDist(q, m.Row(id))
	}
}

// abandonStride is how many components the bounded kernel accumulates
// between bound checks: large enough that the check cost is noise, small
// enough that a hopeless high-dimensional row is dropped after a fraction
// of its components.
const abandonStride = 16

// SquaredDistsToBounded is SquaredDistsTo with early-abandon pruning: rows
// whose partial squared distance already exceeds bound are reported as +Inf
// instead of being scanned to completion. Squared distances grow
// monotonically component by component, so a row abandoned at component c
// is guaranteed to have its true squared distance > bound — callers that
// only keep candidates strictly under the bound (a top-k heap whose worst
// is the bound) observe exactly the same result set as with the exact
// kernel. Rows strictly under the bound are computed exactly; a row within
// rounding of the bound itself may report either its value or +Inf.
//
// A surviving row's value does not depend on the bound: every bound —
// including +Inf, which can never abandon — runs the same per-row
// accumulation order, so loosening the bound admits more rows but never
// changes a row's reported distance by even an ulp.
//
// The rows of a block are scattered over the matrix, so the sweep asks for
// each one prefetchAhead rows before it computes it (see prefetch.go): the
// kernel then waits for memory once per block, not once per row. The ids,
// the bound and the per-row kernel are what they would be without the
// prefetch, so the outputs are too, bit for bit, under every kernel row.
func SquaredDistsToBounded(q []float32, m *Matrix, ids []int, bound float64, out []float64) {
	_ = out[:len(ids)]
	impl := activeKernel.squaredDistBounded
	lines := prefetchLineCount(m.d)
	for _, id := range ids[:min(prefetchAhead, len(ids))] {
		prefetchLines(m.Row(id), lines)
	}
	for j, id := range ids {
		if j+prefetchAhead < len(ids) {
			prefetchLines(m.Row(ids[j+prefetchAhead]), lines)
		}
		out[j] = impl(q, m.Row(id), bound)
	}
}

// squaredDistBounded is squaredDistUnrolled with an early exit: the four
// chains run across the whole vector exactly as there, and every
// abandonStride components (and where the chains stop) their sum, reduced
// the way the final one is, is tested against bound. The chains never see
// the bound, so a surviving row is bit-identical to squaredDistUnrolled's
// value; and rounding is monotone, so a partial sum over the bound proves
// the full one is over it too.
//
// dblsh:kernelimpl
func squaredDistBounded(a, b []float32, bound float64) float64 {
	if len(a) == 0 {
		return 0
	}
	_ = b[len(a)-1]
	var s0, s1, s2, s3 float64
	i := 0
	for end := len(a) &^ 3; i < end; {
		for stop := min(i+abandonStride, end); i < stop; i += 4 {
			d0 := a[i] - b[i]
			d1 := a[i+1] - b[i+1]
			d2 := a[i+2] - b[i+2]
			d3 := a[i+3] - b[i+3]
			s0 += float64(d0) * float64(d0)
			s1 += float64(d1) * float64(d1)
			s2 += float64(d2) * float64(d2)
			s3 += float64(d3) * float64(d3)
		}
		if (s0+s1)+(s2+s3) > bound {
			return math.Inf(1)
		}
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s += float64(d) * float64(d)
	}
	if s > bound {
		return math.Inf(1)
	}
	return s
}
