//go:build !amd64

package vec

// registerArchKernels is a no-op off amd64, the one architecture with
// hand-written kernels: the dispatch table keeps its portable rows and
// auto-selection stays on the pure-Go default.
//
// dblsh:dispatch
func registerArchKernels() {}

// prefetchLines does nothing off amd64: the sweep runs the same kernels on
// the same rows and waits for each one.
func prefetchLines(row []float32, lines int) {}

func prefetchIDLines(row []int32, lines int) {}
