package vec

import (
	"fmt"
	"math"
	"os"
	"sort"
)

// Runtime kernel dispatch.
//
// The exported hot entry points (Dot, SquaredDist, the bounded sweeps, the
// quantized pre-filter and the whole-node window tests of mask.go) route
// through a process-wide kernel table so the implementation can be selected
// at startup — automatically from the detected CPU features, overridden by
// the DBLSH_KERNEL environment variable — or explicitly by SetKernel in
// tests, benchmarks and the server's -kernel flag. The portable rows are
// always present:
//
//	scalar    straight loops; the oracle every other variant is
//	          property-tested and fuzzed against
//	unrolled  4×-unrolled with four independent float64 accumulator
//	          chains (the portable default; the PR 3 kernels)
//	wide      8×-unrolled with eight chains, plus the 8×-widening int8
//	          path — written so the eight independent lanes pipeline on
//	          machines with enough FP ports, at identical memory traffic
//
// registerArchKernels (one per GOARCH) adds hardware rows when the running
// CPU supports them:
//
//	avx2      amd64 assembly: VCVTPS2PD widening + VFMADD231PD into four
//	          256-bit float64 accumulator chains, and the window tests
//	          eight entries per compare; requires AVX2+FMA with OS-saved
//	          YMM state (internal/vec/cpu)
//	neon      arm64 assembly: Advanced SIMD, always available on arm64
//
// The window tests have one portable implementation, shared by every row
// but avx2 (a NEON version waits until CI can execute arm64).
//
// Selection priority is SetKernel (flag/forced) > DBLSH_KERNEL (env) >
// auto-detect; KernelSource reports which one decided. The variants differ
// in floating-point summation order, so their results may differ in the
// last ulps; each is internally deterministic, all quantized lower
// bounds remain certain lower bounds under every variant, and the window
// tests return identical masks under every variant. SetKernel must
// not race with running queries: select the kernel before serving
// traffic.

// kernelImpl bundles one implementation of every dispatched primitive.
type kernelImpl struct {
	name               string
	dot                func(a, b []float32) float64
	squaredDist        func(a, b []float32) float64
	squaredDistBounded func(a, b []float32, bound float64) float64
	quantLB            func(u []float64, codes []int8) float64
	windowMask         func(coords []float32, stride, n int, alive uint64, wlo, whi, center []float32) (uint64, float32)
	boxMask            func(cmin, cmax []float32, stride, n int, wlo, whi, center, gaps []float32) (uint64, uint64)
}

// kernelTable is the only place kernel implementations are named: every
// call routes through it so a runtime value can never pick a different
// summation order mid-query.
//
// dblsh:dispatch
var kernelTable = map[string]kernelImpl{
	"scalar": {
		name:               "scalar",
		dot:                dotScalar,
		squaredDist:        squaredDistScalar,
		squaredDistBounded: squaredDistBoundedScalar,
		quantLB:            quantLBScalar,
		windowMask:         windowMaskPortable,
		boxMask:            boxMaskPortable,
	},
	"unrolled": {
		name:               "unrolled",
		dot:                dotUnrolled,
		squaredDist:        squaredDistUnrolled,
		squaredDistBounded: squaredDistBounded,
		quantLB:            quantLBWide,
		windowMask:         windowMaskPortable,
		boxMask:            boxMaskPortable,
	},
	"wide": {
		name:               "wide",
		dot:                dotWide,
		squaredDist:        squaredDistWide,
		squaredDistBounded: squaredDistBoundedWide,
		quantLB:            quantLBWide,
		windowMask:         windowMaskPortable,
		boxMask:            boxMaskPortable,
	},
}

var activeKernel = kernelTable["unrolled"]

// archKernel names the best hardware kernel registerArchKernels added for
// this CPU, or "" when only the portable rows exist. Auto-selection prefers
// it over the portable default.
var archKernel string

// kernelSource records how the active kernel was chosen: "auto" (CPU
// feature detection, or the portable default), "env" (DBLSH_KERNEL) or
// "forced" (SetKernel — the server's -kernel flag, tests, benchmarks).
var kernelSource = "auto"

func init() {
	// Order matters: the arch rows must exist before auto-selection and
	// before a DBLSH_KERNEL value can name them. A per-file init in the
	// _amd64/_arm64 files would sort AFTER this one, so registration is an
	// explicit call instead.
	registerArchKernels()
	if archKernel != "" {
		activeKernel = kernelTable[archKernel]
	}
	if name := os.Getenv("DBLSH_KERNEL"); name != "" {
		if err := SetKernel(name); err != nil {
			fmt.Fprintf(os.Stderr, "dblsh: ignoring DBLSH_KERNEL, keeping %q: %v\n", KernelName(), err)
		} else {
			kernelSource = "env"
		}
	}
}

// SetKernel selects the active kernel implementation by name (see
// KernelNames for what this build/CPU registered). Not safe to call
// concurrently with queries.
func SetKernel(name string) error {
	impl, ok := kernelTable[name]
	if !ok {
		return fmt.Errorf("vec: unknown kernel %q (have %v)", name, KernelNames())
	}
	activeKernel = impl
	kernelSource = "forced"
	return nil
}

// KernelName returns the active kernel implementation's name.
func KernelName() string { return activeKernel.name }

// KernelSource reports how the active kernel was selected: "auto"
// (CPU-feature detection or the portable default), "env" (DBLSH_KERNEL
// environment override) or "forced" (an explicit SetKernel call, e.g. the
// server's -kernel flag). Lets operators distinguish "avx2 (auto)" from
// "scalar (forced)" in /stats and benchmark records.
func KernelSource() string { return kernelSource }

// KernelNames lists the available kernel implementations, sorted.
func KernelNames() []string {
	names := make([]string, 0, len(kernelTable))
	// dblsh:orderinvariant collected names are sorted below
	for name := range kernelTable {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ---- scalar oracle implementations ----

// dblsh:kernelimpl
func dotScalar(a, b []float32) float64 {
	var s float64
	for i := range a {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}

// dblsh:kernelimpl
func squaredDistScalar(a, b []float32) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += float64(d) * float64(d)
	}
	return s
}

// dblsh:kernelimpl
func squaredDistBoundedScalar(a, b []float32, bound float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += float64(d) * float64(d)
		if s > bound {
			return math.Inf(1)
		}
	}
	if s > bound {
		return math.Inf(1)
	}
	return s
}

// ---- wide (8×-unrolled) implementations ----

// dblsh:kernelimpl
func dotWide(a, b []float32) float64 {
	if len(a) == 0 {
		return 0
	}
	_ = b[len(a)-1]
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	i := 0
	for ; i+8 <= len(a); i += 8 {
		s0 += float64(a[i]) * float64(b[i])
		s1 += float64(a[i+1]) * float64(b[i+1])
		s2 += float64(a[i+2]) * float64(b[i+2])
		s3 += float64(a[i+3]) * float64(b[i+3])
		s4 += float64(a[i+4]) * float64(b[i+4])
		s5 += float64(a[i+5]) * float64(b[i+5])
		s6 += float64(a[i+6]) * float64(b[i+6])
		s7 += float64(a[i+7]) * float64(b[i+7])
	}
	s := ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))
	for ; i < len(a); i++ {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}

// dblsh:kernelimpl
func squaredDistWide(a, b []float32) float64 {
	if len(a) == 0 {
		return 0
	}
	_ = b[len(a)-1]
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	i := 0
	for ; i+8 <= len(a); i += 8 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		d4 := a[i+4] - b[i+4]
		d5 := a[i+5] - b[i+5]
		d6 := a[i+6] - b[i+6]
		d7 := a[i+7] - b[i+7]
		s0 += float64(d0) * float64(d0)
		s1 += float64(d1) * float64(d1)
		s2 += float64(d2) * float64(d2)
		s3 += float64(d3) * float64(d3)
		s4 += float64(d4) * float64(d4)
		s5 += float64(d5) * float64(d5)
		s6 += float64(d6) * float64(d6)
		s7 += float64(d7) * float64(d7)
	}
	s := ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s += float64(d) * float64(d)
	}
	return s
}

// dblsh:kernelimpl
func squaredDistBoundedWide(a, b []float32, bound float64) float64 {
	if len(a) == 0 {
		return 0
	}
	_ = b[len(a)-1]
	var s float64
	i := 0
	for i+abandonStride <= len(a) {
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for k := i; k < i+abandonStride; k += 8 {
			d0 := a[k] - b[k]
			d1 := a[k+1] - b[k+1]
			d2 := a[k+2] - b[k+2]
			d3 := a[k+3] - b[k+3]
			d4 := a[k+4] - b[k+4]
			d5 := a[k+5] - b[k+5]
			d6 := a[k+6] - b[k+6]
			d7 := a[k+7] - b[k+7]
			s0 += float64(d0) * float64(d0)
			s1 += float64(d1) * float64(d1)
			s2 += float64(d2) * float64(d2)
			s3 += float64(d3) * float64(d3)
			s4 += float64(d4) * float64(d4)
			s5 += float64(d5) * float64(d5)
			s6 += float64(d6) * float64(d6)
			s7 += float64(d7) * float64(d7)
		}
		s += ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))
		i += abandonStride
		if s > bound {
			return math.Inf(1)
		}
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s += float64(d) * float64(d)
	}
	if s > bound {
		return math.Inf(1)
	}
	return s
}
