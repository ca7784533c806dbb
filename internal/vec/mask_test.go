package vec

import (
	"math"
	"math/rand"
	"testing"
)

// pointInside and boxReached are the per-entry scalar oracle of the
// whole-node kernels: Rect.Contains / Rect.Intersects / Rect.ContainsRect,
// comparison for comparison, on lane j of an axis-major block.
func pointInside(coords []float32, stride, j int, wlo, whi []float32) bool {
	for d := range wlo {
		if v := coords[d*stride+j]; v < wlo[d] || v > whi[d] {
			return false
		}
	}
	return true
}

func boxReached(cmin, cmax []float32, stride, j int, wlo, whi []float32) (reach, inside bool) {
	reach, inside = true, true
	for d := range wlo {
		mn, mx := cmin[d*stride+j], cmax[d*stride+j]
		if mn > whi[d] || mx < wlo[d] {
			reach = false
		}
		if mn < wlo[d] || mx > whi[d] {
			inside = false
		}
	}
	return reach, reach && inside
}

// window builds the bounds exactly as rstar.WindowRect does in float32.
func window(center []float32, h float32) (wlo, whi []float32) {
	wlo, whi = make([]float32, len(center)), make([]float32, len(center))
	setWindow(wlo, whi, center, h)
	return wlo, whi
}

func setWindow(wlo, whi, center []float32, h float32) {
	for d, c := range center {
		wlo[d], whi[d] = c-h, c+h
	}
}

// smallestHalf bisects, over the float32 bit patterns, for the smallest
// half-width whose window around center passes ok. Windows grow
// monotonically with h, so the predicate is monotone.
func smallestHalf(center []float32, ok func(wlo, whi []float32) bool) float32 {
	wlo, whi := make([]float32, len(center)), make([]float32, len(center))
	lo, hi := uint32(0), math.Float32bits(math.MaxFloat32)
	for lo < hi {
		mid := lo + (hi-lo)/2
		setWindow(wlo, whi, center, math.Float32frombits(mid))
		if ok(wlo, whi) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return math.Float32frombits(lo)
}

// maskCase is one node and one window: [center−h, center+h] as the cursor
// presents it, or, when wlo and whi are set, a window of any shape, as
// R*-tree insertion presents an enlarged child box.
type maskCase struct {
	stride, n, k int
	alive        uint64
	center       []float32
	h            float32
	wlo, whi     []float32
	coords       []float32 // leaf block
	cmin, cmax   []float32 // internal-node blocks
}

func finite(v float32) bool { return !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0) }

// check runs both kernels of impl on the case and compares masks with the
// oracle bit for bit; on finite input it also probes every reported gap.
func (mc *maskCase) check(t *testing.T, impl kernelImpl) {
	t.Helper()
	wlo, whi := mc.wlo, mc.whi
	if wlo == nil {
		wlo, whi = window(mc.center, mc.h)
	}
	var maxAbs float32
	probe := finite(mc.h)
	for _, c := range mc.center {
		maxAbs = max(maxAbs, float32(math.Abs(float64(c))))
		probe = probe && finite(c)
	}

	in, gap := impl.windowMask(mc.coords, mc.stride, mc.n, mc.alive, wlo, whi, mc.center)
	var wantIn uint64
	for j := 0; j < mc.n; j++ {
		if mc.alive>>uint(j)&1 == 1 && pointInside(mc.coords, mc.stride, j, wlo, whi) {
			wantIn |= 1 << uint(j)
		}
	}
	if in != wantIn {
		t.Fatalf("%s windowMask S=%d n=%d k=%d h=%v: mask %#x, oracle %#x", impl.name, mc.stride, mc.n, mc.k, mc.h, in, wantIn)
	}
	shaved := ShaveGap(gap, maxAbs)
	for j := 0; probe && j < mc.n; j++ {
		if (mc.alive&^in)>>uint(j)&1 == 0 {
			continue
		}
		need := smallestHalf(mc.center, func(lo, hi []float32) bool { return pointInside(mc.coords, mc.stride, j, lo, hi) })
		if shaved > need {
			t.Fatalf("%s windowMask S=%d n=%d k=%d h=%v: shaved gap %v (raw %v) above %v, where entry %d enters",
				impl.name, mc.stride, mc.n, mc.k, mc.h, shaved, gap, need, j)
		}
	}

	gaps := make([]float32, mc.stride)
	reach, inside := impl.boxMask(mc.cmin, mc.cmax, mc.stride, mc.n, wlo, whi, mc.center, gaps)
	var wantReach, wantInside uint64
	for j := 0; j < mc.n; j++ {
		r, i := boxReached(mc.cmin, mc.cmax, mc.stride, j, wlo, whi)
		if r {
			wantReach |= 1 << uint(j)
		}
		if i {
			wantInside |= 1 << uint(j)
		}
	}
	if reach != wantReach || inside != wantInside {
		t.Fatalf("%s boxMask S=%d n=%d k=%d h=%v: reach %#x inside %#x, oracle %#x %#x",
			impl.name, mc.stride, mc.n, mc.k, mc.h, reach, inside, wantReach, wantInside)
	}
	if impl.name == "avx2" {
		mc.checkGapBits(t, wlo, whi, gap, reach, gaps)
	}
	for j := 0; probe && j < mc.n; j++ {
		if reach>>uint(j)&1 == 1 {
			continue
		}
		need := smallestHalf(mc.center, func(lo, hi []float32) bool {
			r, _ := boxReached(mc.cmin, mc.cmax, mc.stride, j, lo, hi)
			return r
		})
		if s := ShaveGap(gaps[j], maxAbs); s > need {
			t.Fatalf("%s boxMask S=%d n=%d k=%d h=%v: shaved gap %v (raw %v) above %v, where child %d is reached",
				impl.name, mc.stride, mc.n, mc.k, mc.h, s, gaps[j], need, j)
		}
	}
}

// checkGapBits pins the avx2 row's gaps bit for bit to a Go reference that
// makes the kernels' float32 operations in their order: per lane, the
// running max over the axes, in axis order, where a NaN distance keeps the
// running max (VMAXPS's operand order); for a leaf, then the min over the
// lanes left outside the window, alive or not (+Inf when there is none).
// The grouped body and the one-vector tail must both give these bits.
func (mc *maskCase) checkGapBits(t *testing.T, wlo, whi []float32, gap float32, reach uint64, gaps []float32) {
	t.Helper()
	wantGap := float32(math.Inf(1))
	for j := 0; j < mc.n; j++ {
		if pointInside(mc.coords, mc.stride, j, wlo, whi) {
			continue
		}
		var m float32
		for d, c := range mc.center {
			if dist := abs32(mc.coords[d*mc.stride+j] - c); dist > m {
				m = dist
			}
		}
		wantGap = min(wantGap, m)
	}
	if math.Float32bits(gap) != math.Float32bits(wantGap) {
		t.Fatalf("avx2 windowMask S=%d n=%d k=%d h=%v: gap %v (%#x), reference %v (%#x)",
			mc.stride, mc.n, mc.k, mc.h, gap, math.Float32bits(gap), wantGap, math.Float32bits(wantGap))
	}
	for j := 0; j < mc.n; j++ {
		if reach>>uint(j)&1 == 1 {
			continue
		}
		var g float32
		for d, c := range mc.center {
			if v := mc.cmin[d*mc.stride+j] - c; v > g {
				g = v
			}
			if v := c - mc.cmax[d*mc.stride+j]; v > g {
				g = v
			}
		}
		if math.Float32bits(gaps[j]) != math.Float32bits(g) {
			t.Fatalf("avx2 boxMask S=%d n=%d k=%d h=%v: child %d gap %v (%#x), reference %v (%#x)",
				mc.stride, mc.n, mc.k, mc.h, j, gaps[j], math.Float32bits(gaps[j]), g, math.Float32bits(g))
		}
	}
}

// maskShape draws a block stride, any multiple of 8 from 8 to 64, and an
// entry count for it: half the time anywhere in [0, stride], half the time
// within a vector of a 32-lane group edge, so the kernels' grouped body and
// their one-vector tail both run, alone and after each other.
func maskShape(rng *rand.Rand) (stride, n int) {
	stride = 8 * (1 + rng.Intn(8))
	if rng.Intn(2) == 0 {
		return stride, rng.Intn(stride + 1)
	}
	edge := 32 * (1 + rng.Intn(2))
	return stride, min(stride, edge-8+rng.Intn(17))
}

// newMaskCase lays a node out from a value source: value(d) draws a
// coordinate on axis d. Boxes get a second draw per axis for the other face.
func newMaskCase(stride, n, k int, alive uint64, center []float32, h float32, value func(d int) float32) *maskCase {
	inf := float32(math.Inf(1))
	mc := &maskCase{stride: stride, n: n, k: k, alive: alive, center: center, h: h,
		coords: make([]float32, k*stride), cmin: make([]float32, k*stride), cmax: make([]float32, k*stride)}
	for i := range mc.coords {
		mc.coords[i], mc.cmin[i], mc.cmax[i] = inf, inf, inf
	}
	for j := 0; j < n; j++ {
		for d := 0; d < k; d++ {
			a, b := value(d), value(d)
			mc.coords[d*stride+j] = a
			mc.cmin[d*stride+j], mc.cmax[d*stride+j] = min(a, b), max(a, b)
		}
	}
	return mc
}

// TestMaskKernelsMatchOracle is the contract test of windowMask / boxMask
// under every registered row: identical masks on random and adversarial
// nodes, and gaps that never overshoot. Half the windows are the cursor's,
// centred; the other half are not built from the centre at all, as R*-tree
// insertion passes an enlarged child box to BoxMask: faces drawn on their
// own, collapsed (wlo == whi) on some axes, at +0 against −0, or one ulp
// apart, around a centre that feeds only the gaps.
func TestMaskKernelsMatchOracle(t *testing.T) {
	denormal := math.Float32frombits(1)
	negZero := float32(math.Copysign(0, -1))
	zero := func(rng *rand.Rand) float32 { return []float32{0, negZero}[rng.Intn(2)] }
	for _, name := range KernelNames() {
		impl := kernelTable[name]
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			for trial := 0; trial < 4000; trial++ {
				stride, n := maskShape(rng)
				k := 1 + rng.Intn(16)
				alive := rng.Uint64()
				if rng.Intn(3) == 0 {
					alive = ^uint64(0)
				}
				scale := []float32{1e-3, 1, 10, 1e6}[rng.Intn(4)]
				center := make([]float32, k)
				for d := range center {
					center[d] = float32(rng.NormFloat64()) * scale
				}
				h := float32(rng.ExpFloat64()) * scale
				switch rng.Intn(8) {
				case 0:
					h = float32(math.Inf(1)) // the Sweep round: padding lanes pass every compare
				case 1:
					h = 0
				}
				wlo, whi := window(center, h)
				asymmetric := trial%2 == 1
				if asymmetric {
					for d := range wlo {
						a := float32(rng.NormFloat64()) * scale
						switch rng.Intn(5) {
						case 0:
							wlo[d], whi[d] = a, a
						case 1:
							wlo[d], whi[d] = zero(rng), zero(rng)
						case 2:
							wlo[d], whi[d] = a, math.Nextafter32(a, float32(math.Inf(1)))
						case 3:
							wlo[d], whi[d] = zero(rng), abs32(a)
						default:
							b := float32(rng.NormFloat64()) * scale
							wlo[d], whi[d] = min(a, b), max(a, b)
						}
					}
				}
				mc := newMaskCase(stride, n, k, alive, center, h, func(d int) float32 {
					switch rng.Intn(10) {
					case 0:
						return wlo[d] // exactly on a face
					case 1:
						return whi[d]
					case 2:
						return math.Nextafter32(whi[d], float32(math.Inf(1)))
					case 3:
						return math.Nextafter32(wlo[d], float32(math.Inf(-1)))
					case 4:
						return []float32{0, negZero, denormal, -denormal}[rng.Intn(4)]
					case 5:
						return center[d]
					case 6:
						return wlo[d]/2 + whi[d]/2 // between the faces
					default:
						return center[d] + float32(rng.NormFloat64())*2*h
					}
				})
				if asymmetric {
					mc.wlo, mc.whi = wlo, whi
				}
				mc.check(t, impl)
			}
		})
	}
}

// FuzzWindowMask drives both kernels of every registered row with arbitrary
// shapes and payloads against the same oracle.
func FuzzWindowMask(f *testing.F) {
	f.Add(uint8(1), uint8(5), uint8(3), uint8(9), uint64(0xffff), []byte{1, 2, 3, 250, 128, 127, 0, 64, 9})
	f.Add(uint8(7), uint8(64), uint8(10), uint8(255), ^uint64(0), make([]byte, 40))
	f.Add(uint8(4), uint8(38), uint8(7), uint8(12), ^uint64(0), []byte{3, 200, 17, 90, 250, 5, 61}) // a group, then a tail vector
	f.Add(uint8(0), uint8(0), uint8(1), uint8(0), uint64(1), []byte{7})
	f.Add(uint8(1), uint8(9), uint8(65), uint8(0), uint64(7), []byte("0117\xfd")) // a NaN row must not raise a gap
	f.Fuzz(func(t *testing.T, sRaw, nRaw, kRaw, hRaw uint8, alive uint64, raw []byte) {
		if len(raw) == 0 {
			return
		}
		stride := 8 * (1 + int(sRaw)%8)
		n := int(nRaw) % (stride + 1)
		k := int(kRaw)%16 + 1
		// Bytes map to a small grid, so faces, ties and ±0 are common; the
		// top codes are the specials.
		pos := 0
		next := func() float32 {
			b := raw[pos%len(raw)]
			pos++
			switch b {
			case 255:
				return float32(math.Inf(1))
			case 254:
				return float32(math.Inf(-1))
			case 253:
				return float32(math.NaN())
			case 252:
				return math.Float32frombits(1)
			case 251:
				return float32(math.Copysign(0, -1))
			}
			return float32(int8(b)) / 4
		}
		center := make([]float32, k)
		for d := range center {
			if center[d] = next(); !finite(center[d]) {
				center[d] = 0 // queries are validated; rows are what is hostile here
			}
		}
		h := float32(hRaw) / 8
		if hRaw == 255 {
			h = float32(math.Inf(1))
		}
		mc := newMaskCase(stride, n, k, alive, center, h, func(int) float32 { return next() })
		for _, name := range KernelNames() {
			mc.check(t, kernelTable[name])
		}
	})
}

// checkGapKeys holds GapKeys to its contract for one gap, half-width and
// center magnitude: the one compare a traversal makes against the round's
// reach key answers what ShaveGap would, both ways round.
func checkGapKeys(t *testing.T, tb, hb uint32, m float32) {
	t.Helper()
	g, h, k := math.Float32frombits(tb), math.Float32frombits(hb), NewGapKeys(m)
	key, reach, shaved := k.Key(g), k.Reach(h), ShaveGap(g, m)
	if (key <= reach) != (shaved <= h) || (key > reach) != (shaved > h) {
		t.Fatalf("t=%v (%#x) h=%v (%#x) m=%v: key %v, reach %v, ShaveGap %v",
			g, tb, h, hb, m, key, reach, shaved)
	}
}

// gapSpecials are the bit patterns the reach key must get right: both
// zeros, subnormals, the normal boundary, NaN payloads of either sign, both
// infinities, MaxFloat32 and the values above MaxFloat32/2, where 2t
// overflows.
var gapSpecials = []uint32{
	0, 0x80000000, 1, 2, 0x15, 0x16, 0x007FFFFF, 0x00800000, 0x00800001,
	0x3F800000, 0xBF800000, 0x34000000, 0x4B800000,
	0x7FC00000, 0x7F800001, 0x7FFFFFFF, 0xFFC00001, 0xFF800000, 0x7F800000,
	0x7F7FFFFF, 0x7EFFFFFF, 0x7F000000, 0x7F000001, 0x7F400000, 0x7E800000,
	0xFF7FFFFF,
}

// TestGapKeysMatchShaveGap checks Key(t) ≤ Reach(h) ⇔ ShaveGap(t, m) ≤ h on
// every pair of special values, on the ulps around each reach key and each
// overflow limit, and on random draws, for center magnitudes from 0 to
// +Inf.
func TestGapKeysMatchShaveGap(t *testing.T) {
	ms := []float32{0, math.Float32frombits(1), 1e-30, 0.5, 1, 3, 1e6, 1e30,
		math.MaxFloat32 / 4, math.MaxFloat32 / 2, math.MaxFloat32, float32(math.Inf(1))}
	for _, m := range ms {
		k := NewGapKeys(m)
		around := func(b uint32) []uint32 {
			var out []uint32
			for d := uint32(0); d < 4; d++ {
				out = append(out, b+d, b-d)
			}
			return out
		}
		for _, hb := range gapSpecials {
			ts := append(append([]uint32(nil), gapSpecials...), around(k.limit)...)
			if r := k.Reach(math.Float32frombits(hb)); r == r && !math.IsInf(float64(r), 0) {
				ts = append(ts, around(math.Float32bits(r))...)
			}
			for _, tb := range ts {
				checkGapKeys(t, tb, hb, m)
			}
		}
	}
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 20000; i++ {
		m := ms[rng.Intn(len(ms))]
		h := float32(rng.ExpFloat64()) * []float32{1e-40, 1e-3, 1, 1e4, 1e37}[rng.Intn(5)]
		t0 := h * (1 + float32(rng.NormFloat64())*1e-6)
		checkGapKeys(t, math.Float32bits(t0)+uint32(rng.Intn(9))-4, math.Float32bits(h), m)
		checkGapKeys(t, rng.Uint32(), rng.Uint32(), m)
	}
}

// FuzzGapKeys drives the reach-key contract with raw bits for the gap, the
// half-width and the center magnitude (any non-negative bit pattern: ≥ 0,
// +Inf or NaN).
func FuzzGapKeys(f *testing.F) {
	f.Add(uint32(0x3F800000), uint32(0x3F800000), uint32(0x3F800000))
	f.Add(uint32(0x7F7FFFFF), uint32(0), uint32(0))                   // overflow
	f.Add(uint32(0x7FC00001), uint32(0x7F800000), uint32(0x42))       // NaN payload, h = +Inf
	f.Add(uint32(0x80000000), uint32(1), uint32(0x7F7FFFFF))          // −0, a subnormal h, MaxFloat32
	f.Add(uint32(0x40000000), uint32(0x3F000000), uint32(0x7F800000)) // an infinite center
	f.Fuzz(func(t *testing.T, tb, hb, mb uint32) {
		checkGapKeys(t, tb, hb, math.Float32frombits(mb&^(1<<31)))
	})
}
