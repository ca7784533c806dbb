//go:build !amd64

package cpu

// No hardware kernels exist for this architecture: report no features so
// the dispatch table keeps its pure-Go default.
func detect() Features {
	return Features{}
}
