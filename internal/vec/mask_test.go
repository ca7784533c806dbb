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
				stride := []int{8, 32, 64}[rng.Intn(3)]
				n := rng.Intn(stride + 1)
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
	f.Add(uint8(2), uint8(64), uint8(10), uint8(255), ^uint64(0), make([]byte, 40))
	f.Add(uint8(0), uint8(0), uint8(1), uint8(0), uint64(1), []byte{7})
	f.Add(uint8(1), uint8(9), uint8(65), uint8(0), uint64(7), []byte("0117\xfd")) // a NaN row must not raise a gap
	f.Fuzz(func(t *testing.T, sRaw, nRaw, kRaw, hRaw uint8, alive uint64, raw []byte) {
		if len(raw) == 0 {
			return
		}
		stride := []int{8, 32, 64}[int(sRaw)%3]
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
