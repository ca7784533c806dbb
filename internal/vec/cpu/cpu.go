// Package cpu detects the CPU features the vec kernel dispatch table cares
// about, so init-time auto-selection can pick the fastest distance kernel
// the hardware actually supports.
//
// Detection is deliberately tiny and dependency-free: on amd64 it executes
// CPUID and XGETBV directly (an AVX2 kernel is only usable when the CPU has
// the instructions AND the OS saves the YMM state, which is what the XCR0
// check proves); every other architecture reports no features.
//
// The result never changes over a process lifetime, so Detect computes once
// and returns the cached value thereafter.
package cpu

import (
	"sort"
	"sync"
)

// Features reports the instruction-set extensions relevant to the vec
// kernels. Fields are only ever true when the running CPU and OS both
// support the extension.
type Features struct {
	// AVX reports AVX with OS support for the YMM state (XCR0 SSE+AVX
	// bits set) — the prerequisite shared by every VEX-encoded kernel.
	AVX bool
	// AVX2 reports the integer/FP 256-bit extensions the avx2 kernel uses.
	AVX2 bool
	// FMA reports FMA3 (VFMADD...): required by the avx2 kernel's fused
	// accumulation.
	FMA bool
	// AVX512F reports the AVX-512 foundation set with OS ZMM state
	// support. Informational: no kernel uses it yet.
	AVX512F bool
}

var (
	once     sync.Once
	detected Features
)

// Detect returns the running CPU's feature set. The first call probes the
// hardware; later calls return the cached result.
func Detect() Features {
	once.Do(func() { detected = detect() })
	return detected
}

// List returns the detected feature names in sorted order, for logs,
// /stats responses and benchmark records. Empty when nothing relevant is
// supported.
func (f Features) List() []string {
	var out []string
	if f.AVX {
		out = append(out, "avx")
	}
	if f.AVX2 {
		out = append(out, "avx2")
	}
	if f.AVX512F {
		out = append(out, "avx512f")
	}
	if f.FMA {
		out = append(out, "fma")
	}
	sort.Strings(out)
	return out
}
