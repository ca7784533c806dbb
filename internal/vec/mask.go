package vec

import (
	"math"
	"math/bits"
)

// Whole-node window tests.
//
// An R*-tree node keeps what a window query compares against in one
// axis-major ("struct of arrays") block: lane j of row d, block[d·stride+j],
// is entry j's coordinate on axis d. stride is the node capacity rounded up
// to a multiple of 8 and lanes ≥ n (the entry count, at most 64) hold +Inf.
// WindowMask answers a leaf (one block of point coordinates) and BoxMask an
// internal node (two blocks: the children's lower and upper MBR faces) in a
// single call, as bitmasks over the entries.
//
// Membership is decided by genuine float32 comparisons only, the very ones
// Rect.Contains and Rect.Intersects make against the window rectangle
// [wlo, whi]: a coordinate v is inside on an axis exactly when
// !(v < wlo) && !(v > whi), a box [min, max] is reached exactly when
// !(min > whi) && !(max < wlo), so every kernel row returns the same masks
// bit for bit (unordered comparisons, should a NaN ever arrive, count as
// "inside" under every row, as they do in the scalar code). What rows may
// differ in is the gap they report for what the window misses: any value is
// allowed that, once passed through ShaveGap, is a certain lower bound on
// the half-width a window around center needs before the entry (or box)
// can be inside (reached). The avx2 row reports the Chebyshev distance over
// all axes; the portable row reports that for boxes, and for points the
// distance on the one axis it found to exclude the entry.

// WindowMask tests the n points of a leaf block against the window
// [wlo, whi] around center (all of length k; the block holds k rows). alive
// selects the entries of interest. It returns the alive entries inside the
// window on every axis, and a gap no larger than the Chebyshev distance from
// center of any alive entry outside it (+Inf when there is none).
func WindowMask(coords []float32, stride, n int, alive uint64, wlo, whi, center []float32) (in uint64, gap float32) {
	checkBlock(len(coords), stride, n, len(center), len(wlo), len(whi))
	return activeKernel.windowMask(coords, stride, n, alive, wlo, whi, center)
}

// BoxMask tests the n child boxes [cmin, cmax] of an internal node against
// the window. reach has bit j set when the window reaches child j on every
// axis, inside when it contains the child entirely (a subset of reach). For
// every child not reached gaps[j] receives a gap no larger than the
// Chebyshev distance from center to the box; the other lanes of gaps (it
// needs n rounded up to 8 of them) are scratch.
//
// reach and inside depend on wlo and whi alone, which may be any window,
// collapsed axes included; center feeds only the gaps. The cursor passes a
// window around its query, R*-tree insertion a child box enlarged by a new
// entry.
func BoxMask(cmin, cmax []float32, stride, n int, wlo, whi, center, gaps []float32) (reach, inside uint64) {
	checkBlock(min(len(cmin), len(cmax)), stride, n, len(center), len(wlo), len(whi))
	if len(gaps) < (n+7)&^7 {
		panic("vec: BoxMask gaps shorter than the node")
	}
	return activeKernel.boxMask(cmin, cmax, stride, n, wlo, whi, center, gaps)
}

// checkBlock enforces the shape the assembly rows rely on: they read whole
// 8-lane vectors of every row without bounds checks.
func checkBlock(block, stride, n, k, lo, hi int) {
	if n < 0 || n > 64 || (n+7)&^7 > stride || k < 1 || block < k*stride || lo < k || hi < k {
		panic("vec: window-test block does not fit its node")
	}
}

// ShaveGap turns a gap t reported by WindowMask or BoxMask into a half-width
// certainly below every h whose window admits the entry. t was computed in
// float32 between a coordinate m and the center, so the true crossover lies
// within a couple of ulps of t: one from the subtraction, one from rounding
// the window bound center ± h at the magnitude of m. |m| ≤ |center| + t, so
// two ulps of 2t + maxAbsCenter (the largest |center[d]|), plus a denormal
// guard, cover both. The result only defers the next real test of the
// entry; it never decides membership. It is non-decreasing in t from 0 up
// to the t at which 2t + maxAbsCenter overflows. Everywhere else it is 0
// (a negative or NaN t, and every t from that overflow on, +Inf included),
// or +Inf for a negative t so large that 2t + maxAbsCenter overflows
// downward. A traversal does not call it per entry: GapKeys answers "is
// ShaveGap(t) ≤ h" with one compare.
func ShaveGap(t, maxAbsCenter float32) float32 {
	const eps = 2.4e-7 // 2 × 2⁻²³
	g := t - (2*t+maxAbsCenter)*eps - 3e-44
	if !(g > 0) { // negative, or NaN from an infinite t
		return 0
	}
	return g
}

// GapKeys moves ShaveGap off a traversal's per-entry path for one center.
// A subtree parks under Key(t), and a round at half-width h computes
// Reach(h) once. For every float32 t and h, Key(t) ≤ Reach(h) holds exactly
// when ShaveGap(t, maxAbsCenter) ≤ h, and Key(t) > Reach(h) exactly when
// ShaveGap(t, maxAbsCenter) > h.
type GapKeys struct {
	maxAbs float32 // the largest |center[d]|: ≥ 0, +Inf or NaN
	limit  uint32  // bits of the smallest t ≥ 0 at which 2t + maxAbs overflows
}

// NewGapKeys returns the keys for a center whose largest |center[d]| is
// maxAbsCenter. A finite query can project to an infinite center; then
// ShaveGap is 0 for every t, limit is 0 and so is every key.
func NewGapKeys(maxAbsCenter float32) GapKeys {
	over := func(t float32) bool { return !(2*t+maxAbsCenter <= math.MaxFloat32) }
	return GapKeys{maxAbs: maxAbsCenter, limit: firstBits(0, math.Float32bits(float32(math.Inf(1))), over)}
}

// Key returns what a traversal stores for gap t: t itself on [+0, limit),
// where ShaveGap is non-decreasing, and ShaveGap(t) — 0 or +Inf — for every
// other t. The bits of the floats in [+0, limit) are exactly the uint32
// values below limit's, so a gap a kernel reports costs one compare.
func (g GapKeys) Key(t float32) float32 {
	if math.Float32bits(t) < g.limit {
		return t
	}
	return ShaveGap(t, g.maxAbs)
}

// Reach returns the largest t with ShaveGap(t) ≤ h, found by bisection over
// the bit patterns of [+0, limit): ShaveGap(0) = 0 ≤ h, and ShaveGap is
// non-decreasing there. No key is above +Inf, and no shaved gap is at or
// below a negative h, which gets −Inf; a NaN h gets NaN, which no key
// compares with either way, as no shaved gap compares with h.
func (g GapKeys) Reach(h float32) float32 {
	switch {
	case h != h, math.IsInf(float64(h), 1):
		return h
	case h < 0:
		return float32(math.Inf(-1))
	}
	first := firstBits(0, g.limit, func(t float32) bool { return ShaveGap(t, g.maxAbs) > h })
	if first == 0 {
		return 0 // an infinite center: every key is 0
	}
	return math.Float32frombits(first - 1)
}

// firstBits returns the smallest b in [lo, hi) whose float32 p holds, or hi
// when none does; p must be monotone (false, then true) over the range.
func firstBits(lo, hi uint32, p func(float32) bool) uint32 {
	for lo < hi {
		mid := lo + (hi-lo)/2
		if p(math.Float32frombits(mid)) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// lowBits returns the mask with the low n bits set (n ≤ 64).
func lowBits(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(n) - 1
}

// windowMaskPortable tests one alive entry at a time, an axis at a time,
// starting at the axis that excluded the entry before it: in a leaf that
// straddles the window's boundary the next exclusion almost always happens on
// the same axis, so an excluded entry usually costs one comparison, on the
// axis along which the leaf sticks out farthest. The gap is the distance on
// the excluding axis alone.
//
// dblsh:kernelimpl
func windowMaskPortable(coords []float32, stride, n int, alive uint64, wlo, whi, center []float32) (uint64, float32) {
	in := alive & lowBits(n)
	k := len(center)
	wlo, whi = wlo[:k], whi[:k]
	gap := float32(math.Inf(1))
	hint := 0
	for m := in; m != 0; m &= m - 1 {
		j := bits.TrailingZeros64(m)
		d := hint
		for t := 0; t < k; t++ {
			if v := coords[d*stride+j]; v < wlo[d] || v > whi[d] {
				in &^= 1 << uint(j)
				hint = d
				if g := abs32(v - center[d]); g < gap {
					gap = g
				}
				break
			}
			if d++; d == k {
				d = 0
			}
		}
	}
	return in, gap
}

func abs32(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}

// boxMaskPortable is windowMaskPortable for child boxes. A child out of reach
// parks on its gap alone, with nothing to re-test it when it wakes, so it gets
// the full Chebyshev distance to the box, over all axes.
//
// dblsh:kernelimpl
func boxMaskPortable(cmin, cmax []float32, stride, n int, wlo, whi, center, gaps []float32) (uint64, uint64) {
	reach := lowBits(n)
	inside := reach
	k := len(center)
	wlo, whi = wlo[:k], whi[:k]
	hint := 0
	for j := 0; j < n; j++ {
		d := hint
		for t := 0; t < k; t++ {
			mn, mx := cmin[d*stride+j], cmax[d*stride+j]
			if mn > whi[d] || mx < wlo[d] {
				reach &^= 1 << uint(j)
				hint = d
				break
			}
			if mn < wlo[d] || mx > whi[d] {
				inside &^= 1 << uint(j)
			}
			if d++; d == k {
				d = 0
			}
		}
		if reach>>uint(j)&1 == 0 {
			var g float32
			for d, c := range center {
				if t := cmin[d*stride+j] - c; t > g {
					g = t
				}
				if t := c - cmax[d*stride+j]; t > g {
					g = t
				}
			}
			gaps[j] = g
		}
	}
	return reach, inside & reach
}
