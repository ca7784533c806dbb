package vec

import "dblsh/internal/vec/cpu"

// Declarations for the NEON kernels in dist_neon_arm64.s. As with the
// avx2 kernels, slice arguments must satisfy len(b) >= len(a): the asm
// reads len(a) components without bounds checks, relying on the contract
// enforced at the public entry points.

// dotNEON is the Advanced SIMD dot kernel: float32 lanes widened with
// FCVTL and fused into four 2-lane float64 accumulator chains.
// dblsh:kernelimpl
//
//go:noescape
func dotNEON(a, b []float32) float64

// squaredDistNEON is the Advanced SIMD squared-Euclidean kernel.
// Differences are taken in float32 (FSUB.4S, matching the pure-Go
// kernels) before widening and fused squaring.
// dblsh:kernelimpl
//
//go:noescape
func squaredDistNEON(a, b []float32) float64

// squaredDistBoundedNEON is the early-abandon variant: the running total
// is reduced and tested against bound once per 16-component stripe, with
// the same accumulation structure as squaredDistNEON so surviving rows
// are bit-identical to the unbounded value.
// dblsh:kernelimpl
//
//go:noescape
func squaredDistBoundedNEON(a, b []float32, bound float64) float64

// registerArchKernels adds the hardware kernel rows this build can run.
// Advanced SIMD is part of the ARMv8-A baseline, so on arm64 the neon row
// always registers. The int8 quantized lower bound stays on the pure-Go
// wide path: sign-extending byte→float64 conversion has no assembler
// support worth hand-encoding, and the verification sweep is dominated by
// the float kernels anyway. The whole-node window tests stay on the
// portable implementation until CI can execute arm64.
//
// dblsh:dispatch
func registerArchKernels() {
	if !cpu.Detect().ASIMD {
		return
	}
	kernelTable["neon"] = kernelImpl{
		name:               "neon",
		dot:                dotNEON,
		dot3:               dot3Of(dotNEON),
		squaredDist:        squaredDistNEON,
		squaredDistBounded: squaredDistBoundedNEON,
		quantLB:            quantLBWide,
		windowMask:         windowMaskPortable,
		boxMask:            boxMaskPortable,
	}
	archKernel = "neon"
}
