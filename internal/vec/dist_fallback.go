//go:build !amd64 && !arm64

package vec

// registerArchKernels is a no-op on architectures without hand-written
// kernels: the dispatch table keeps its portable rows and auto-selection
// stays on the pure-Go default.
//
// dblsh:dispatch
func registerArchKernels() {}

// prefetchLines does nothing on architectures without a prefetch stub: the
// sweep runs the same kernels on the same rows and waits for each one.
func prefetchLines(row []float32, lines int) {}

func prefetchIDLines(row []int32, lines int) {}
