package vec

// Software prefetch for the blocked verification sweep.
//
// A block's candidate rows are scattered over the whole matrix, so each one
// starts with a cache miss — and, on a matrix of any size, a TLB miss —
// that the out-of-order window cannot hide behind the previous row's
// arithmetic. The ids are all known on entry to the sweep, so the row
// prefetchAhead positions further on is requested while the current one is
// being computed, and its first lines have arrived by the time the kernel
// reaches it. A prefetch is a hint: it loads no register, raises no fault
// and changes no value, so every distance and every abandon decision is
// what it would be without it.
//
// Both constants come from recorded grids of rows ahead × lines per row,
// end to end on the widest benchmark workload and on
// BenchmarkVerifyBlockCold (CHANGES.md, PR 20); they are not options.
const (
	// prefetchAhead is how many rows ahead of the one being computed the
	// sweep prefetches: far enough that a memory round trip fits in the
	// distance, near enough that the lines are still in L1 when used.
	prefetchAhead = 8
	// prefetchMaxLines caps the cache lines requested per row. Most rows
	// are abandoned within their first third, and past the first kilobyte
	// the hardware's sequential prefetcher has caught up with the stream.
	prefetchMaxLines = 16
	// cacheLine is the prefetch stride in bytes.
	cacheLine = 64
)

// prefetchLineCount returns how many cache-line strides of a d-component
// row prefetchLines may be handed: every address row+64·i for i below the
// count lies inside the row's own 4·d bytes, so the instruction is never
// given an address beyond the matrix — not even for its last row.
func prefetchLineCount(d int) int {
	return min((4*d+cacheLine-1)/cacheLine, prefetchMaxLines)
}

// PrefetchBlock requests the first lines of a window-test block (mask.go)
// that a traversal knows it will test a node or two from now — with
// index-linked nodes the block's address is known as soon as the index is —
// under the same cap as a row: the stream that follows is the hardware
// prefetcher's. Like any prefetch it changes no value.
func PrefetchBlock(block []float32) { prefetchLines(block, prefetchLineCount(len(block))) }

// PrefetchIDs requests the lines of a node's entry ids, the row that is read
// beside its block: a leaf's ids as its entries are emitted, an interior
// node's as its children are entered. The count is prefetchLineCount's, so
// every address lies inside ids.
func PrefetchIDs(ids []int32) { prefetchIDLines(ids, prefetchLineCount(len(ids))) }
