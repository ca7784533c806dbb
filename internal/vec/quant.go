package vec

import "math"

// Int8 scalar quantization for the verification pre-filter.
//
// No query runs this file: the pre-filter cost more than the exact sweep it
// fronted and left the product. It stays, kernel rows and tests included,
// because benchmark/layers.go:84,109,295,298 still replays it; the next PR
// allowed to edit benchmark/ removes it.
//
// A QuantMatrix mirrors a float32 Matrix as int8 codes under a single
// per-matrix affine map x ≈ off + scale·code, so a candidate row costs a
// quarter of the memory bandwidth of its float32 original — the dominant
// cost of verifying randomly-scattered candidate rows is pulling their
// cache lines, not the arithmetic. The mirror supports a squared-distance
// kernel that returns a *certain lower bound* on the exact float32 squared
// distance: rows whose bound already exceeds the caller's cut-off can be
// rejected without ever touching their float32 storage, and because a
// lower bound can never overshoot the true distance, the surviving set —
// and therefore the exact result set — is identical to what the exact
// kernel alone would produce.
//
// Bound derivation. The kernel is asymmetric: only the data row is
// quantized, the query is mapped to its exact (unrounded) position in
// code units, u = (q−off)/scale. Every in-range data value quantizes with
// absolute error at most scale/2 (round-to-nearest), so for one component
// |x−q| = scale·|c + e/scale − u| ≥ scale·max(0, |c−u| − ½) with
// |e| ≤ scale/2. Keeping the query exact instead of rounding it halves
// the per-component guard a symmetric code-vs-code kernel would need, and
// in high dimension that factor compounds: the assembled bound is
// dramatically tighter. unitGuard pads the ½ with headroom for the float
// evaluation of u and of the codes; the final product is deflated by
// quantSafety to absorb accumulation rounding. FuzzQuantBound pins the
// inequality (bound ≤ exact squared distance, always) on random data.

// quantSafety deflates the assembled lower bound to absorb the float
// rounding of the final scale²·acc product and the long accumulation. The
// per-component guard already donates headroom beyond the certain ½ code,
// so the remaining slop is a handful of ulps; 1e-5 covers it with orders
// of magnitude to spare at a negligible tightness cost.
const quantSafety = 1 - 1e-5

// unitClamp bounds query code units. It is far beyond any int8 code, so
// clamping only moves an absurdly distant query component toward the data
// codes — which shrinks |c−u| and keeps bounds on the sound (lower) side —
// while capping the magnitude the kernel's accumulator has to absorb.
const unitClamp = 1 << 20

// unitGuard is the per-component guard of the asymmetric kernel: half a
// code width for the data row's rounding error, plus generous headroom
// for the float evaluation of the unit position and of the codes
// themselves (both are computed in float64 from float32 inputs, so their
// slop is a few 1e-6 code units at most).
const unitGuard = 0.5002

// QuantMatrix is an int8 mirror of a Matrix's rows.
//
// Aliasing contract: the mirror copies by value, exactly like the per-leaf
// coordinate mirrors in the R*-tree. It does NOT alias the parent matrix —
// writes through Matrix.Row or Matrix.Data views update the float32
// storage only, leaving the corresponding codes stale (and a stale code
// breaks the lower-bound guarantee in both directions). After mutating row
// i in place, call UpdateRow(i); after appending rows, call Sync.
// CheckRow reports whether a row's codes are fresh.
type QuantMatrix struct {
	m     *Matrix
	codes []int8
	rows  int     // rows mirrored so far; Sync catches the mirror up to m.Rows()
	scale float32 // x ≈ off + scale·code
	off   float32
	lo    float32 // fitted range: values in [lo, hi] quantize without clamping
	hi    float32
}

// NewQuantMatrix builds the int8 mirror of m's current rows. The affine
// range is fitted to the data with headroom so that moderate future
// appends do not force a refit.
func NewQuantMatrix(m *Matrix) *QuantMatrix {
	qm := &QuantMatrix{m: m}
	qm.refit()
	return qm
}

// Rows returns the number of mirrored rows.
func (qm *QuantMatrix) Rows() int { return qm.rows }

// Scale returns the quantization step: the advertised per-component
// dequantization error bound is Scale()/2.
func (qm *QuantMatrix) Scale() float32 { return qm.scale }

// refit fits the affine range over all current rows (with 25% headroom per
// side) and requantizes everything. Called at construction and when an
// appended value falls outside the fitted range; the headroom makes the
// latter rare enough that the O(n·d) cost amortizes away.
func (qm *QuantMatrix) refit() {
	data := qm.m.Data()
	lo, hi := float32(0), float32(0)
	if len(data) > 0 {
		lo, hi = data[0], data[0]
		for _, v := range data {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	pad := (hi - lo) * 0.25
	if pad == 0 {
		pad = 1
	}
	qm.lo, qm.hi = lo-pad, hi+pad
	qm.off = qm.lo + (qm.hi-qm.lo)/2
	qm.scale = (qm.hi - qm.lo) / 254
	if qm.scale <= 0 {
		qm.scale = 1
	}
	if cap(qm.codes) < len(data) {
		qm.codes = make([]int8, len(data))
	}
	qm.codes = qm.codes[:len(data)]
	for i, v := range data {
		qm.codes[i] = qm.quantize(v)
	}
	qm.rows = qm.m.Rows()
}

// quantize maps an in-range value to its nearest code. Out-of-range values
// are clamped (callers refit instead of quantizing out of range; the clamp
// is a safety net, not a code path the bound relies on).
func (qm *QuantMatrix) quantize(v float32) int8 {
	r := math.Round(float64(v-qm.off) / float64(qm.scale))
	if r > 127 {
		return 127
	}
	if r < -127 {
		return -127
	}
	return int8(r)
}

// Sync appends codes for rows added to the parent matrix since the last
// Sync/NewQuantMatrix. If any new value falls outside the fitted range the
// whole mirror is refitted, keeping the error bound intact.
func (qm *QuantMatrix) Sync() {
	d := qm.m.Dim()
	data := qm.m.Data()
	for _, v := range data[qm.rows*d:] {
		if v < qm.lo || v > qm.hi || v != v {
			qm.refit()
			return
		}
	}
	for _, v := range data[qm.rows*d:] {
		qm.codes = append(qm.codes, qm.quantize(v))
	}
	qm.rows = qm.m.Rows()
}

// UpdateRow requantizes row i after an in-place mutation of the parent
// matrix (see the aliasing contract in the type documentation). Values
// pushed outside the fitted range force a full refit.
func (qm *QuantMatrix) UpdateRow(i int) {
	row := qm.m.Row(i)
	for _, v := range row {
		if v < qm.lo || v > qm.hi || v != v {
			qm.refit()
			return
		}
	}
	d := qm.m.Dim()
	for j, v := range row {
		qm.codes[i*d+j] = qm.quantize(v)
	}
}

// CheckRow reports whether row i's codes match a fresh quantization of the
// parent row — false after the row was mutated through an aliasing view
// without UpdateRow.
func (qm *QuantMatrix) CheckRow(i int) bool {
	row := qm.m.Row(i)
	d := qm.m.Dim()
	for j, v := range row {
		if qm.codes[i*d+j] != qm.quantize(v) {
			return false
		}
	}
	return true
}

// RowCodes returns row i's codes as a view into the mirror (read-only by
// convention).
func (qm *QuantMatrix) RowCodes(i int) []int8 {
	d := qm.m.Dim()
	return qm.codes[i*d : (i+1)*d : (i+1)*d]
}

// QuantizeQueryUnits maps a query into this mirror's code space WITHOUT
// rounding: dst[i] is the query's position in code units, (q[i]−off)/scale,
// clamped to ±unitClamp and with NaN components mapped to 0 (a NaN query
// component admits no sound per-axis bound, so it contributes a term that
// can only understate the distance). Reuses dst's storage when it has
// capacity. The returned units feed LowerBoundSq and
// SquaredDistsToBoundedQuant; recompute them whenever the mirror refits
// (scale/off change), i.e. derive them fresh per query.
func (qm *QuantMatrix) QuantizeQueryUnits(q []float32, dst []float64) []float64 {
	dst = dst[:0]
	inv := 1 / float64(qm.scale)
	off := float64(qm.off)
	for _, v := range q {
		u := (float64(v) - off) * inv
		switch {
		case u >= unitClamp:
			u = unitClamp
		case u <= -unitClamp:
			u = -unitClamp
		case u != u:
			u = 0
		}
		dst = append(dst, u)
	}
	return dst
}

// LowerBoundSq returns a certain lower bound on the exact squared
// Euclidean distance between the query behind u and row i. u must come
// from QuantizeQueryUnits on this mirror's current fit.
func (qm *QuantMatrix) LowerBoundSq(u []float64, i int) float64 {
	acc := activeKernel.quantLB(u, qm.RowCodes(i))
	return float64(qm.scale) * float64(qm.scale) * acc * quantSafety
}

// accLimit returns the accumulator threshold for one sweep against
// boundSq: rows whose kernel accumulator exceeds it satisfy
// LowerBoundSq > boundSq, hoisting the scale conversion out of the
// per-row loop.
func (qm *QuantMatrix) accLimit(boundSq float64) float64 {
	return boundSq / (float64(qm.scale) * float64(qm.scale) * quantSafety)
}

// quantLBScalar is the reference asymmetric lower-bound kernel: the oracle
// the dispatched variants are property-tested against. Per component it
// accumulates max(0, |c−u| − unitGuard)².
//
// dblsh:kernelimpl
func quantLBScalar(u []float64, codes []int8) float64 {
	var acc float64
	for i, ui := range u {
		t := math.Abs(float64(codes[i])-ui) - unitGuard
		if t > 0 {
			acc += t * t
		}
	}
	return acc
}

// quantLBWide is the 8×-unrolled int8-widening lower-bound kernel: eight
// independent accumulator chains so the widening loads, the abs, and the
// multiplies pipeline across iterations.
//
// dblsh:kernelimpl
func quantLBWide(u []float64, codes []int8) float64 {
	if len(u) == 0 {
		return 0
	}
	_ = codes[len(u)-1]
	var a0, a1, a2, a3, a4, a5, a6, a7 float64
	i := 0
	for ; i+8 <= len(u); i += 8 {
		t0 := lbTerm(float64(codes[i]) - u[i])
		t1 := lbTerm(float64(codes[i+1]) - u[i+1])
		t2 := lbTerm(float64(codes[i+2]) - u[i+2])
		t3 := lbTerm(float64(codes[i+3]) - u[i+3])
		t4 := lbTerm(float64(codes[i+4]) - u[i+4])
		t5 := lbTerm(float64(codes[i+5]) - u[i+5])
		t6 := lbTerm(float64(codes[i+6]) - u[i+6])
		t7 := lbTerm(float64(codes[i+7]) - u[i+7])
		a0 += t0 * t0
		a1 += t1 * t1
		a2 += t2 * t2
		a3 += t3 * t3
		a4 += t4 * t4
		a5 += t5 * t5
		a6 += t6 * t6
		a7 += t7 * t7
	}
	acc := ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7))
	for ; i < len(u); i++ {
		t := lbTerm(float64(codes[i]) - u[i])
		acc += t * t
	}
	return acc
}

// lbTerm computes max(0, |t|−unitGuard) branchlessly (abs compiles to a
// sign-mask AND; the max to a float max instruction).
func lbTerm(t float64) float64 {
	t = math.Abs(t) - unitGuard
	return max(t, 0)
}

// SquaredDistsToBoundedQuant is SquaredDistsToBounded with the int8
// pre-filter in front: each candidate's quantized lower bound is computed
// from the mirror first, and only rows whose bound does not already exceed
// bound are re-ranked with the exact float32 kernel — the rest report +Inf
// without touching their float32 rows, exactly the value the exact bounded
// kernel would report for them (their true squared distance provably
// exceeds bound). Returns the number of rows the pre-filter rejected.
// u must be qm.QuantizeQueryUnits(q, ...) under the mirror's current fit;
// an infinite bound disables both the pre-filter and early abandon
// (nothing can be rejected).
func SquaredDistsToBoundedQuant(q []float32, u []float64, m *Matrix, qm *QuantMatrix, ids []int, bound float64, out []float64) int {
	if math.IsInf(bound, 1) {
		SquaredDistsTo(q, m, ids, out)
		return 0
	}
	_ = out[:len(ids)]
	limit := qm.accLimit(bound)
	quantLB := activeKernel.quantLB
	distBounded := activeKernel.squaredDistBounded
	pruned := 0
	inf := math.Inf(1)
	for j, id := range ids {
		if quantLB(u, qm.RowCodes(id)) > limit {
			out[j] = inf
			pruned++
			continue
		}
		out[j] = distBounded(q, m.Row(id), bound)
	}
	return pruned
}
