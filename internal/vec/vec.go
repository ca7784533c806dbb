// Package vec provides dense float32 vector primitives used throughout the
// DB-LSH codebase: distance computation, dot products, and a flat row-major
// matrix representation that keeps point data contiguous in memory.
//
// All hot loops are written so the compiler can keep operands in registers;
// distances are accumulated in float64 to avoid catastrophic cancellation on
// high-dimensional data.
//
// The package is determinism-critical: a candidate's distance must be
// bit-identical across runs, whichever block and bound it was verified
// under, so dblsh-lint's detorder analyzer patrols it.
//
// dblsh:deterministic
package vec

import (
	"fmt"
	"math"
)

// Dot returns the inner product of a and b. The slices must have equal
// length; zero-length inputs return 0. The computation routes through the
// runtime-dispatched kernel table (see SetKernel); variants may differ in
// summation order and therefore in the last ulps of the result.
func Dot(a, b []float32) float64 {
	return activeKernel.dot(a, b)
}

// DotRows writes into out[j] the inner product of x with row j of a, the
// len(out)×len(x) row-major matrix a — out[j] is Dot(a[j*d:(j+1)*d], x)
// with d = len(x), bit for bit, under every kernel row. It takes the rows
// three at a time through the kernel row's dot3, which reads x once for
// all three where the row has a fused body, and the one or two left over
// through its Dot. out is only written, never handed to the kernel, so a
// caller's buffer for it can live on the caller's stack. len(a) must equal
// len(out)·len(x).
func DotRows(out []float64, a, x []float32) {
	d := len(x)
	if len(a) != len(out)*d {
		panic(fmt.Sprintf("vec: DotRows of %d floats as %d rows of %d", len(a), len(out), d))
	}
	k := activeKernel
	j := 0
	for ; j+3 <= len(out); j += 3 {
		out[j], out[j+1], out[j+2] = k.dot3(a[j*d:(j+1)*d], a[(j+1)*d:(j+2)*d], a[(j+2)*d:(j+3)*d], x)
	}
	for ; j < len(out); j++ {
		out[j] = k.dot(a[j*d:(j+1)*d], x)
	}
}

// dot3Of is the dot3 of a kernel row without a fused body: its dot, once
// per row.
func dot3Of(dot func(a, b []float32) float64) func(a0, a1, a2, x []float32) (float64, float64, float64) {
	return func(a0, a1, a2, x []float32) (float64, float64, float64) {
		return dot(a0, x), dot(a1, x), dot(a2, x)
	}
}

// dotUnrolled is the 4×-unrolled dot kernel, the dispatch default.
//
// dblsh:kernelimpl
func dotUnrolled(a, b []float32) float64 {
	if len(a) == 0 {
		return 0
	}
	_ = b[len(a)-1] // bounds-check hint
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += float64(a[i]) * float64(b[i])
		s1 += float64(a[i+1]) * float64(b[i+1])
		s2 += float64(a[i+2]) * float64(b[i+2])
		s3 += float64(a[i+3]) * float64(b[i+3])
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < len(a); i++ {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}

// SquaredDist returns the squared Euclidean distance between a and b. The
// slices must have equal length; zero-length inputs return 0.
//
// The loop is 4×-unrolled into independent accumulators so the four
// dependency chains retire in parallel — the verification hot path spends
// nearly all its time here. Component differences are taken in float32 (one
// conversion per element instead of two; the half-ulp it rounds away is at
// the input data's own precision), then squared and accumulated in float64
// so long sums never cancel catastrophically. Routes through the
// runtime-dispatched kernel table (see SetKernel).
func SquaredDist(a, b []float32) float64 {
	return activeKernel.squaredDist(a, b)
}

// squaredDistUnrolled is the 4×-unrolled squared-distance kernel, the
// dispatch default.
//
// dblsh:kernelimpl
func squaredDistUnrolled(a, b []float32) float64 {
	if len(a) == 0 {
		return 0
	}
	_ = b[len(a)-1] // bounds-check hint
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += float64(d0) * float64(d0)
		s1 += float64(d1) * float64(d1)
		s2 += float64(d2) * float64(d2)
		s3 += float64(d3) * float64(d3)
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s += float64(d) * float64(d)
	}
	return s
}

// Dist returns the Euclidean distance between a and b.
func Dist(a, b []float32) float64 {
	return math.Sqrt(SquaredDist(a, b))
}

// Norm returns the Euclidean norm of a.
func Norm(a []float32) float64 {
	var s float64
	for _, x := range a {
		s += float64(x) * float64(x)
	}
	return math.Sqrt(s)
}

// Scale multiplies every component of a by f in place.
func Scale(a []float32, f float32) {
	for i := range a {
		a[i] *= f
	}
}

// Add adds b into a component-wise in place.
func Add(a, b []float32) {
	if len(a) == 0 {
		return
	}
	_ = b[len(a)-1]
	for i := range a {
		a[i] += b[i]
	}
}

// Matrix is an n×d row-major matrix of float32. Rows are points. The backing
// array is one contiguous allocation, which matters for cache behaviour when
// scanning millions of candidates.
type Matrix struct {
	data []float32
	n, d int
}

// NewMatrix allocates an n×d zero matrix.
func NewMatrix(n, d int) *Matrix {
	if n < 0 || d <= 0 {
		panic(fmt.Sprintf("vec: invalid matrix shape %d×%d", n, d))
	}
	return &Matrix{data: make([]float32, n*d), n: n, d: d}
}

// WrapMatrix wraps an existing flat slice as an n×d matrix without copying.
// len(data) must equal n*d.
func WrapMatrix(data []float32, n, d int) *Matrix {
	if len(data) != n*d {
		panic(fmt.Sprintf("vec: wrap size mismatch: len=%d want %d×%d", len(data), n, d))
	}
	return &Matrix{data: data, n: n, d: d}
}

// Rows returns the number of rows (points).
func (m *Matrix) Rows() int { return m.n }

// Dim returns the dimensionality of each row.
func (m *Matrix) Dim() int { return m.d }

// Row returns row i as a view aliasing the matrix storage: writes through
// the returned slice are visible in the matrix and vice versa. The view's
// capacity is clipped to the row, so appending to it cannot clobber the
// following rows. A later Append to the matrix may reallocate the backing
// array, after which previously returned rows no longer alias it.
func (m *Matrix) Row(i int) []float32 {
	return m.data[i*m.d : (i+1)*m.d : (i+1)*m.d]
}

// SetRow copies p into row i. len(p) must equal Dim().
func (m *Matrix) SetRow(i int, p []float32) {
	if len(p) != m.d {
		panic(fmt.Sprintf("vec: SetRow dim mismatch: %d want %d", len(p), m.d))
	}
	copy(m.Row(i), p)
}

// Data returns the backing slice (row-major). It is a view, not a copy:
// mutations through it are visible in the matrix, and an Append that grows
// the matrix may move the storage, detaching previously returned slices.
// Use Clone for an independent copy.
func (m *Matrix) Data() []float32 { return m.data }

// Append adds a row to the matrix, growing storage as needed, and returns the
// new row index.
func (m *Matrix) Append(p []float32) int {
	if len(p) != m.d {
		panic(fmt.Sprintf("vec: Append dim mismatch: %d want %d", len(p), m.d))
	}
	m.data = append(m.data, p...)
	m.n++
	return m.n - 1
}

// Clone returns a deep copy of the matrix. The copy owns fresh storage:
// no later mutation or Append on either matrix can affect the other.
func (m *Matrix) Clone() *Matrix {
	out := &Matrix{data: make([]float32, len(m.data)), n: m.n, d: m.d}
	copy(out.data, m.data)
	return out
}

// Slice returns a view of rows [lo,hi) sharing storage with m: writes
// through the view are visible in the parent and vice versa. The view's
// capacity is clipped at hi, so an Append on the view reallocates instead
// of silently overwriting the parent's rows beyond it — after such an
// Append the view no longer aliases the parent. An Append on the parent
// may likewise move the parent's storage and detach the view.
func (m *Matrix) Slice(lo, hi int) *Matrix {
	if lo < 0 || hi < lo || hi > m.n {
		panic(fmt.Sprintf("vec: slice [%d,%d) out of range n=%d", lo, hi, m.n))
	}
	return &Matrix{data: m.data[lo*m.d : hi*m.d : hi*m.d], n: hi - lo, d: m.d}
}
