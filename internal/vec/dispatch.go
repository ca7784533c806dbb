package vec

import (
	"fmt"
	"math"
	"os"
	"sort"
)

// Runtime kernel dispatch.
//
// The exported hot entry points (Dot, DotRows, SquaredDist, the bounded
// sweeps and the whole-node window tests of mask.go) route through a
// process-wide kernel table whose row is picked once, at startup.
// There are three rows at most:
//
//	scalar    straight loops; the oracle every other row is property-tested
//	          and fuzzed against
//	unrolled  four independent float64 accumulator chains, in portable Go:
//	          the row of every CPU without an assembly row
//	avx2      amd64 assembly: VCVTPS2PD widening + VFMADD231PD into four
//	          256-bit float64 accumulator chains, and the window tests
//	          eight entries per compare; requires AVX2+FMA with OS-saved
//	          YMM state (internal/vec/cpu)
//
// registerArchKernels adds avx2 when the running CPU supports it; on every
// other architecture it adds nothing, so unrolled is the default there. The
// window tests have one portable implementation, shared by every row but
// avx2.
//
// Every row keeps one contract: its bounded squared distance runs the same
// chains, reduction and tail as its unbounded one and only reads the running
// sum against the bound, so a row that survives verification carries
// exactly the distance Dist returns, bit for bit, under every bound. The
// rows differ from each other in summation order, so their distances may
// differ in the last ulps; each is deterministic, and the window tests
// return identical masks under every row. DotRows (x against each row of a
// matrix, the hashing of a point into all its projections) keeps the same
// kind of contract with Dot: each of its outputs is that row's Dot, bit
// for bit. The avx2 row gets there with one fused body that widens x once
// for three rows and runs each row through dotAVX2's own chains; the other
// rows call their dot once per matrix row.
//
// The row is chosen by CPU-feature detection, unless the DBLSH_KERNEL
// environment variable names another (the CI and debugging seam; an unknown
// name warns and is ignored). SetKernel is the test and benchmark seam; it
// must not race with running queries. KernelSource reports which of the
// three decided.

// kernelImpl bundles one implementation of every dispatched primitive.
type kernelImpl struct {
	name               string
	dot                func(a, b []float32) float64
	dot3               func(a0, a1, a2, x []float32) (float64, float64, float64)
	squaredDist        func(a, b []float32) float64
	squaredDistBounded func(a, b []float32, bound float64) float64
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
		dot3:               dot3Of(dotScalar),
		squaredDist:        squaredDistScalar,
		squaredDistBounded: squaredDistBoundedScalar,
		windowMask:         windowMaskPortable,
		boxMask:            boxMaskPortable,
	},
	"unrolled": {
		name:               "unrolled",
		dot:                dotUnrolled,
		dot3:               dot3Of(dotUnrolled),
		squaredDist:        squaredDistUnrolled,
		squaredDistBounded: squaredDistBounded,
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
// "forced" (SetKernel — tests, benchmarks).
var kernelSource = "auto"

func init() {
	// Order matters: the arch rows must exist before auto-selection and
	// before a DBLSH_KERNEL value can name them. A per-file init in the
	// _amd64 files would sort AFTER this one, so registration is an
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
// environment override) or "forced" (an explicit SetKernel call, e.g. a
// test or benchmark). Lets operators distinguish "avx2 (auto)" from
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
