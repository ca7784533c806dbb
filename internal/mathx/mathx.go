// Package mathx implements the probabilistic machinery behind DB-LSH:
// the standard normal distribution, the collision probabilities of the
// static (Eq. 2) and dynamic (Eq. 4) p-stable LSH families, the exponent
// ρ* = ln(1/p1)/ln(1/p2), and the bound α = ξ(γ) from Lemma 3 of the paper.
package mathx

import "math"

// NormalPDF is the probability density function f(x) of N(0,1).
func NormalPDF(x float64) float64 {
	return math.Exp(-x*x/2) / math.Sqrt(2*math.Pi)
}

// NormalCDF is the cumulative distribution function Φ(x) of N(0,1).
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// NormalTail returns the upper tail ∫_x^∞ f(t) dt = 1 − Φ(x).
func NormalTail(x float64) float64 {
	return 0.5 * math.Erfc(x/math.Sqrt2)
}

// CollisionProbDynamic computes p(τ;w) for the dynamic LSH family
// h(o) = a·o (Eq. 3), where two points collide when |h(o1)−h(o2)| ≤ w/2:
//
//	p(τ;w) = ∫_{−w/2τ}^{w/2τ} f(t) dt   (Eq. 4)
//
// τ is the original-space distance and w the bucket width. For τ=0 the
// probability is 1.
func CollisionProbDynamic(tau, w float64) float64 {
	if tau <= 0 {
		return 1
	}
	if w <= 0 {
		return 0
	}
	s := w / (2 * tau)
	return math.Erf(s / math.Sqrt2)
}

// CollisionProbStatic computes p(τ;w) for the classic E2LSH family
// h(o) = ⌊(a·o+b)/w⌋ (Eq. 1):
//
//	p(τ;w) = 2 ∫_0^w (1/τ) f(t/τ) (1 − t/w) dt   (Eq. 2)
//
// The closed form (Datar et al. 2004), with s = w/τ, is
//
//	p = 1 − 2Φ(−s) − (2/(√(2π)·s))·(1 − e^{−s²/2}).
func CollisionProbStatic(tau, w float64) float64 {
	if tau <= 0 {
		return 1
	}
	if w <= 0 {
		return 0
	}
	s := w / tau
	return 1 - 2*NormalCDF(-s) - 2/(math.Sqrt(2*math.Pi)*s)*(1-math.Exp(-s*s/2))
}

// Rho computes ρ* = ln(1/p1) / ln(1/p2) for the dynamic family with initial
// bucket width w0 and approximation ratio c: p1 = p(1;w0), p2 = p(c;w0).
func Rho(c, w0 float64) float64 {
	p1 := CollisionProbDynamic(1, w0)
	p2 := CollisionProbDynamic(c, w0)
	return math.Log(1/p1) / math.Log(1/p2)
}

// RhoStatic computes the classic exponent ρ = ln(1/p1)/ln(1/p2) for the
// static E2LSH family at width w0: p1 = p(1;w0), p2 = p(c;w0).
func RhoStatic(c, w0 float64) float64 {
	p1 := CollisionProbStatic(1, w0)
	p2 := CollisionProbStatic(c, w0)
	return math.Log(1/p1) / math.Log(1/p2)
}

// Xi computes ξ(v) = v·f(v) / ∫_v^∞ f(x) dx, the function whose value at γ
// gives the exponent α in Lemma 3: ρ* ≤ 1/c^α when the initial bucket width
// is w0 = 2γc². At γ = 2 (w0 = 4c²) α is 4.746, the headline constant of the
// paper. ξ is monotonically increasing for v > 0.
func Xi(v float64) float64 {
	tail := NormalTail(v)
	if tail == 0 {
		return math.Inf(1)
	}
	return v * NormalPDF(v) / tail
}
