package vec

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"dblsh/internal/vec/cpu"
)

// TestAllKernelsVsOracle property-tests every registered kernel row —
// including hardware rows the running CPU registered — against the float64
// scalar oracle, across dims 1..129 (odd dims, stripe boundaries 16/32/128,
// and one past them) on unaligned subslice views, so asm tail paths and
// unaligned loads are exercised. Tolerances are per kernel: dot terms are
// identical across kernels (only association differs), and the avx2 kernel
// subtracts after widening so it tracks the float64 oracle much closer
// than the float32-differencing Go kernels.
func TestAllKernelsVsOracle(t *testing.T) {
	dotTol := func(string) float64 { return 1e-9 }
	sqTol := func(name string) float64 {
		if name == "avx2" {
			return 1e-12
		}
		return 1e-6
	}
	defer SetKernel(KernelName())
	for _, name := range KernelNames() {
		if err := SetKernel(name); err != nil {
			t.Fatal(err)
		}
		impl := activeKernel
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(99))
			for dim := 1; dim <= 129; dim++ {
				for trial := 0; trial < 8; trial++ {
					// Unaligned views: the leading element pushes the slice
					// base off any 8/16-byte alignment the allocator gave it.
					rawA := make([]float32, dim+1)
					rawB := make([]float32, dim+1)
					for i := range rawA {
						rawA[i] = float32(rng.NormFloat64())
						rawB[i] = float32(rng.NormFloat64())
					}
					a, b := rawA[1:1+dim], rawB[1:1+dim]

					wantDot := scalarDot(a, b)
					if got := impl.dot(a, b); math.Abs(got-wantDot) > dotTol(name)*(1+math.Abs(wantDot)) {
						t.Fatalf("dim %d: dot = %v, oracle = %v", dim, got, wantDot)
					}
					wantSq := scalarSquaredDist(a, b)
					sq := impl.squaredDist(a, b)
					if math.Abs(sq-wantSq) > sqTol(name)*(1+wantSq) {
						t.Fatalf("dim %d: squaredDist = %v, oracle = %v", dim, sq, wantSq)
					}

					// Bound-independence: a surviving row's value must be
					// bit-identical under every bound, +Inf included.
					unb := impl.squaredDistBounded(a, b, math.Inf(1))
					if math.IsInf(unb, 1) {
						t.Fatalf("dim %d: +Inf bound abandoned a row", dim)
					}
					bound := wantSq * (0.25 + 1.5*rng.Float64())
					if got := impl.squaredDistBounded(a, b, bound); !math.IsInf(got, 1) && got != unb {
						t.Fatalf("dim %d: bounded(%v) = %v but bounded(+Inf) = %v — bound changed a surviving value",
							dim, bound, got, unb)
					}
					// Abandonment must be sound: only rows truly over the
					// bound may report +Inf.
					if got := impl.squaredDistBounded(a, b, bound); math.IsInf(got, 1) && unb <= bound {
						t.Fatalf("dim %d: bounded(%v) abandoned a row whose value %v is under the bound", dim, bound, unb)
					}

					// Lockstep: the surviving bounded value IS the unbounded
					// squared distance, bit for bit.
					if unb != sq {
						t.Fatalf("dim %d: bounded(+Inf) = %v != squaredDist = %v", dim, unb, sq)
					}
				}
			}
			// Zero-length inputs must return exact zeros through every row.
			if impl.dot(nil, nil) != 0 || impl.squaredDist(nil, nil) != 0 ||
				impl.squaredDistBounded(nil, nil, 1) != 0 {
				t.Fatal("zero-length input did not return 0")
			}
		})
	}
}

// TestAllKernelsQuantLB checks every registered row's int8 lower-bound
// kernel against the scalar oracle, dims 1..129 on unaligned views.
func TestAllKernelsQuantLB(t *testing.T) {
	defer SetKernel(KernelName())
	for _, name := range KernelNames() {
		if err := SetKernel(name); err != nil {
			t.Fatal(err)
		}
		impl := activeKernel
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			for dim := 1; dim <= 129; dim++ {
				rawU := make([]float64, dim+1)
				rawC := make([]int8, dim+1)
				for i := range rawU {
					rawU[i] = rng.NormFloat64() * 64
					rawC[i] = int8(rng.Intn(255) - 127)
				}
				u, codes := rawU[1:1+dim], rawC[1:1+dim]
				want := quantLBScalar(u, codes)
				got := impl.quantLB(u, codes)
				if math.Abs(got-want) > 1e-9*(1+want) {
					t.Fatalf("dim %d: quantLB = %v, oracle = %v", dim, got, want)
				}
			}
			if impl.quantLB(nil, nil) != 0 {
				t.Fatal("zero-length quantLB != 0")
			}
		})
	}
}

// TestKernelSource pins the selection-provenance accessor: SetKernel always
// reports "forced", and the startup value is one of the three documented
// sources (which one depends on the environment and the CPU, both out of
// the test's control).
func TestKernelSource(t *testing.T) {
	switch KernelSource() {
	case "auto", "env", "forced":
	default:
		t.Fatalf("KernelSource() = %q, want auto/env/forced", KernelSource())
	}
	orig := KernelName()
	defer SetKernel(orig)
	if err := SetKernel("scalar"); err != nil {
		t.Fatal(err)
	}
	if KernelName() != "scalar" || KernelSource() != "forced" {
		t.Fatalf("after SetKernel: name %q source %q, want scalar/forced", KernelName(), KernelSource())
	}
	if err := SetKernel("no-such-kernel"); err == nil {
		t.Fatal("SetKernel accepted an unknown name")
	} else if !strings.Contains(err.Error(), "no-such-kernel") {
		t.Fatalf("error %v does not name the rejected kernel", err)
	}
	// A failed SetKernel must not disturb the active selection.
	if KernelName() != "scalar" {
		t.Fatalf("failed SetKernel changed the active kernel to %q", KernelName())
	}
}

// TestArchKernelRegistration ties the registered hardware rows to the
// detected CPU features: the avx2 row exists exactly when the CPU reports
// AVX2+FMA, and other architectures get only the portable rows.
func TestArchKernelRegistration(t *testing.T) {
	has := func(name string) bool {
		_, ok := kernelTable[name]
		return ok
	}
	f := cpu.Detect()
	switch runtime.GOARCH {
	case "amd64":
		want := f.AVX2 && f.FMA
		if has("avx2") != want {
			t.Fatalf("avx2 row registered=%v, features %+v", has("avx2"), f)
		}
		if want && archKernel != "avx2" {
			t.Fatalf("archKernel = %q, want avx2", archKernel)
		}
	default:
		if archKernel != "" || has("avx2") {
			t.Fatalf("hardware rows on %s: archKernel=%q", runtime.GOARCH, archKernel)
		}
	}
}

// TestDotRowsIsDotPerRow holds every registered row's DotRows to its
// contract: out[j] carries the bits of that row's Dot of x with row j, for
// row counts on both sides of the avx2 body's triples (and the 50 rows of
// the default K×L) and dims across its stripes, cleanup and tail, on
// unaligned views.
func TestDotRowsIsDotPerRow(t *testing.T) {
	dims := []int{960, 961}
	for d := 1; d <= 130; d++ {
		dims = append(dims, d)
	}
	defer SetKernel(KernelName())
	for _, name := range KernelNames() {
		if err := SetKernel(name); err != nil {
			t.Fatal(err)
		}
		dot := activeKernel.dot
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(32))
			for _, m := range []int{1, 2, 3, 4, 10, 50, 51} {
				for _, d := range dims {
					rawA := make([]float32, m*d+1)
					rawX := make([]float32, d+1)
					for i := range rawA {
						rawA[i] = float32(rng.NormFloat64())
					}
					for i := range rawX {
						rawX[i] = float32(rng.NormFloat64())
					}
					a, x := rawA[1:], rawX[1:]
					out := make([]float64, m)
					for j := range out {
						out[j] = math.NaN()
					}
					DotRows(out, a, x)
					for j, got := range out {
						if want := dot(a[j*d:(j+1)*d], x); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("m %d d %d: out[%d] = %v, Dot of the row = %v", m, d, j, got, want)
						}
					}
				}
			}
		})
	}
}

func TestDotRowsRejectsShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("DotRows accepted 7 floats as 2 rows of 3")
		}
	}()
	DotRows(make([]float64, 2), make([]float32, 7), make([]float32, 3))
}
