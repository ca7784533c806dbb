package vec

import "dblsh/internal/vec/cpu"

// Declarations for the hand-written AVX2/FMA kernels in
// dist_avx2_amd64.s and mask_avx2_amd64.s. Slice arguments must have
// len(b) >= len(a): like the pure-Go kernels the asm only reads len(a)
// components, but unlike them it does not bounds-check, so the caller
// contract enforced at the public entry points is load-bearing.

// dotAVX2 is the assembly dot kernel: float32 lanes are widened to
// float64 before multiplication and fused into four 256-bit accumulator
// chains (16 floats per iteration), reduced in a fixed tree.
// dblsh:kernelimpl
//
//go:noescape
func dotAVX2(a, b []float32) float64

// dot3AVX2 is dotAVX2 of x against three rows at once, x widened once for
// all three: each sum is dotAVX2(row, x) bit for bit. It reads len(x)
// entries of each row without bounds checks (DotRows passes whole rows).
// dblsh:kernelimpl
//
//go:noescape
func dot3AVX2(a0, a1, a2, x []float32) (s0, s1, s2 float64)

// squaredDistAVX2 is the assembly squared-Euclidean kernel. Differences
// are taken after widening to float64 (exact), then fused-squared into
// four accumulator chains.
// dblsh:kernelimpl
//
//go:noescape
func squaredDistAVX2(a, b []float32) float64

// squaredDistBoundedAVX2 is the early-abandon variant: the running total
// is reduced and tested against bound once per 16-component stripe. The
// accumulators never depend on the bound, so a surviving row's value is
// bit-identical under every bound (the PR 8 bound-independence property).
// dblsh:kernelimpl
//
//go:noescape
func squaredDistBoundedAVX2(a, b []float32, bound float64) float64

// windowMaskAVX2 is the assembly leaf test of mask.go: eight lanes per
// compare, every axis of every lane (no early exit), so the gap is the full
// Chebyshev distance. Reads whole vectors of each row without bounds checks;
// WindowMask enforces the block shape.
// dblsh:kernelimpl
//
//go:noescape
func windowMaskAVX2(coords []float32, stride, n int, alive uint64, wlo, whi, center []float32) (in uint64, gap float32)

// boxMaskAVX2 is the assembly internal-node test of mask.go, with the same
// structure and the same caller contract (BoxMask enforces it); it writes
// whole vectors of gaps.
// dblsh:kernelimpl
//
//go:noescape
func boxMaskAVX2(cmin, cmax []float32, stride, n int, wlo, whi, center, gaps []float32) (reach, inside uint64)

// registerArchKernels adds the hardware kernel rows this build can run.
// On amd64 the avx2 row requires AVX2 and FMA with OS-saved YMM state;
// without them the table keeps only the portable rows and auto-selection
// stays on the pure-Go default.
//
// dblsh:dispatch
func registerArchKernels() {
	f := cpu.Detect()
	if !f.AVX2 || !f.FMA {
		return
	}
	kernelTable["avx2"] = kernelImpl{
		name:               "avx2",
		dot:                dotAVX2,
		dot3:               dot3AVX2,
		squaredDist:        squaredDistAVX2,
		squaredDistBounded: squaredDistBoundedAVX2,
		windowMask:         windowMaskAVX2,
		boxMask:            boxMaskAVX2,
	}
	archKernel = "avx2"
}
