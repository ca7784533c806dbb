package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNormalPDF(t *testing.T) {
	if !approx(NormalPDF(0), 1/math.Sqrt(2*math.Pi), 1e-15) {
		t.Fatalf("pdf(0) = %v", NormalPDF(0))
	}
	if NormalPDF(1) >= NormalPDF(0) {
		t.Fatal("pdf should decrease away from 0")
	}
	if !approx(NormalPDF(2), 0.05399096651, 1e-9) {
		t.Fatalf("pdf(2) = %v", NormalPDF(2))
	}
}

func TestNormalCDF(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.8413447461},
		{-1, 0.1586552539},
		{2, 0.9772498681},
		{-5, 2.866515719e-07},
	}
	for _, c := range cases {
		if got := NormalCDF(c.x); !approx(got, c.want, 1e-9) {
			t.Errorf("Φ(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestNormalTailComplementsCDF(t *testing.T) {
	f := func(x float64) bool {
		x = math.Mod(x, 10)
		return approx(NormalTail(x)+NormalCDF(x), 1, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCollisionProbDynamicEdges(t *testing.T) {
	if got := CollisionProbDynamic(0, 1); got != 1 {
		t.Fatalf("p(0;1) = %v, want 1", got)
	}
	if got := CollisionProbDynamic(1, 0); got != 0 {
		t.Fatalf("p(1;0) = %v, want 0", got)
	}
	// p(τ;w) = 2Φ(w/2τ) − 1.
	want := 2*NormalCDF(1) - 1
	if got := CollisionProbDynamic(1, 2); !approx(got, want, 1e-12) {
		t.Fatalf("p(1;2) = %v, want %v", got, want)
	}
}

// Observation 1: the family is scale-invariant — p(r; w0·r) = p(1; w0).
func TestObservation1ScaleInvariance(t *testing.T) {
	f := func(rRaw, wRaw uint8) bool {
		r := 0.1 + float64(rRaw)/16  // r ∈ [0.1, 16)
		w0 := 0.5 + float64(wRaw)/16 // w0 ∈ [0.5, 16.5)
		return approx(CollisionProbDynamic(r, w0*r), CollisionProbDynamic(1, w0), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCollisionProbDynamicMonotoneInTau(t *testing.T) {
	prev := 1.0
	for tau := 0.1; tau < 20; tau += 0.1 {
		p := CollisionProbDynamic(tau, 4)
		if p > prev+1e-15 {
			t.Fatalf("p(τ;4) increased at τ=%v", tau)
		}
		prev = p
	}
}

// CollisionProbStaticNumeric evaluates Eq. 2 by adaptive Simpson quadrature:
// the oracle for CollisionProbStatic's closed form.
func CollisionProbStaticNumeric(tau, w float64) float64 {
	if tau <= 0 {
		return 1
	}
	if w <= 0 {
		return 0
	}
	f := func(t float64) float64 {
		return 2 / tau * NormalPDF(t/tau) * (1 - t/w)
	}
	return SimpsonAdaptive(f, 0, w, 1e-10, 24)
}

// SimpsonAdaptive integrates f over [a,b] with tolerance tol using adaptive
// Simpson's rule, recursing at most maxDepth levels.
func SimpsonAdaptive(f func(float64) float64, a, b, tol float64, maxDepth int) float64 {
	c := (a + b) / 2
	fa, fb, fc := f(a), f(b), f(c)
	whole := (b - a) / 6 * (fa + 4*fc + fb)
	return simpsonAux(f, a, b, fa, fb, fc, whole, tol, maxDepth)
}

func simpsonAux(f func(float64) float64, a, b, fa, fb, fc, whole, tol float64, depth int) float64 {
	c := (a + b) / 2
	l, r := (a+c)/2, (c+b)/2
	fl, fr := f(l), f(r)
	left := (c - a) / 6 * (fa + 4*fl + fc)
	right := (b - c) / 6 * (fc + 4*fr + fb)
	if depth <= 0 || math.Abs(left+right-whole) <= 15*tol {
		return left + right + (left+right-whole)/15
	}
	return simpsonAux(f, a, c, fa, fc, fl, left, tol/2, depth-1) +
		simpsonAux(f, c, b, fc, fb, fr, right, tol/2, depth-1)
}

func TestCollisionProbStaticClosedFormMatchesNumeric(t *testing.T) {
	for _, tau := range []float64{0.25, 0.5, 1, 1.5, 2, 4, 8} {
		for _, w := range []float64{0.5, 1, 4, 9, 16} {
			cf := CollisionProbStatic(tau, w)
			num := CollisionProbStaticNumeric(tau, w)
			if !approx(cf, num, 1e-7) {
				t.Errorf("τ=%v w=%v: closed=%v numeric=%v", tau, w, cf, num)
			}
		}
	}
}

func TestCollisionProbStaticRange(t *testing.T) {
	f := func(tauRaw, wRaw uint8) bool {
		tau := 0.1 + float64(tauRaw)/8
		w := 0.1 + float64(wRaw)/8
		p := CollisionProbStatic(tau, w)
		return p >= 0 && p <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The paper's headline constant: α = ξ(2) = 4.746 at γ=2 (w0 = 4c²).
func TestAlphaHeadlineConstant(t *testing.T) {
	a := Xi(2)
	if !approx(a, 4.746, 5e-4) {
		t.Fatalf("α(γ=2) = %v, want ≈4.746", a)
	}
}

// ξ(γ) > 1 iff γ > 0.7518 (Section V-B).
func TestXiCrossoverAtGamma0751(t *testing.T) {
	if Xi(0.7518) > 1.001 || Xi(0.7518) < 0.999 {
		t.Fatalf("ξ(0.7518) = %v, want ≈1", Xi(0.7518))
	}
	if Xi(0.70) >= 1 {
		t.Fatalf("ξ(0.70) = %v, want < 1", Xi(0.70))
	}
	if Xi(0.80) <= 1 {
		t.Fatalf("ξ(0.80) = %v, want > 1", Xi(0.80))
	}
}

func TestXiMonotone(t *testing.T) {
	prev := 0.0
	for v := 0.05; v < 6; v += 0.05 {
		x := Xi(v)
		if x <= prev {
			t.Fatalf("ξ not increasing at v=%v: %v ≤ %v", v, x, prev)
		}
		prev = x
	}
}

// Lemma 3: ρ* ≤ 1/c^α with α = ξ(γ) when w0 = 2γc².
func TestRhoBoundedByAlpha(t *testing.T) {
	for _, gamma := range []float64{0.8, 1, 1.5, 2, 3} {
		alpha := Xi(gamma)
		for c := 1.1; c <= 4.0; c += 0.1 {
			w0 := 2 * gamma * c * c
			rho := Rho(c, w0)
			bound := math.Pow(c, -alpha)
			if rho > bound+1e-9 {
				t.Errorf("γ=%v c=%v: ρ*=%v exceeds 1/c^α=%v", gamma, c, rho, bound)
			}
		}
	}
}

// ρ* is smaller than the classic static ρ at the paper's operating point
// w = 4c² (Fig. 4b).
func TestRhoStarBeatsStaticRho(t *testing.T) {
	for c := 1.2; c <= 4.0; c += 0.2 {
		w0 := 4 * c * c
		rhoStar := Rho(c, w0)
		rhoStatic := RhoStatic(c, w0)
		if rhoStar >= rhoStatic {
			t.Errorf("c=%v: ρ*=%v not smaller than static ρ=%v", c, rhoStar, rhoStatic)
		}
		if rhoStar >= 1/c {
			t.Errorf("c=%v: ρ*=%v not below 1/c=%v", c, rhoStar, 1/c)
		}
	}
}

func TestSimpsonAdaptive(t *testing.T) {
	// ∫_0^π sin = 2
	got := SimpsonAdaptive(math.Sin, 0, math.Pi, 1e-12, 30)
	if !approx(got, 2, 1e-9) {
		t.Fatalf("∫sin = %v, want 2", got)
	}
	// ∫_0^1 x² = 1/3
	got = SimpsonAdaptive(func(x float64) float64 { return x * x }, 0, 1, 1e-12, 30)
	if !approx(got, 1.0/3, 1e-12) {
		t.Fatalf("∫x² = %v", got)
	}
}

func BenchmarkCollisionProbDynamic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = CollisionProbDynamic(1.5, 9)
	}
}
