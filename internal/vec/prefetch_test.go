package vec

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestBoundedSweepEqualsPerRowKernel pins that the sweep's prefetching
// cannot be observed: under every registered kernel row,
// SquaredDistsToBounded writes, bit for bit, what the row's own bounded
// kernel returns for each id alone — for every block length around the
// prefetch distance and the verification block size, with duplicate ids,
// with the matrix's first and last row in the block, at dimensions on both
// sides of one cache line and of the line cap, and at bounds that abandon
// every row, some rows and none.
func TestBoundedSweepEqualsPerRowKernel(t *testing.T) {
	defer SetKernel(KernelName())
	for _, name := range KernelNames() {
		if err := SetKernel(name); err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(29))
			for _, dim := range []int{1, 15, 16, 17, 128, 960} {
				const rows = 97
				m := NewMatrix(rows, dim)
				for i := range m.Data() {
					m.Data()[i] = float32(rng.NormFloat64())
				}
				q := make([]float32, dim)
				for j := range q {
					q[j] = float32(rng.NormFloat64())
				}
				all := make([]float64, rows)
				for i := range all {
					all[i] = SquaredDist(q, m.Row(i))
				}
				sort.Float64s(all)
				out := make([]float64, 130)
				for n := 0; n <= 130; n++ {
					ids := make([]int, n)
					for j := range ids {
						ids[j] = rng.Intn(rows) // n > rows forces duplicates; smaller n has them by chance
					}
					if n >= 4 {
						ids[0], ids[n-1] = rows-1, 0 // last row first: it is prefetched before anything is computed
						ids[n/2], ids[n/2+1] = 0, rows-1
					}
					for _, bound := range []float64{0, all[rows/3], math.Inf(1)} {
						for j := range out {
							out[j] = -1
						}
						SquaredDistsToBounded(q, m, ids, bound, out[:n])
						for j, id := range ids {
							want := activeKernel.squaredDistBounded(q, m.Row(id), bound)
							if math.Float64bits(out[j]) != math.Float64bits(want) {
								t.Fatalf("dim %d, block of %d, bound %v: out[%d] (row %d) = %v, the row's kernel alone returns %v",
									dim, n, bound, j, id, out[j], want)
							}
						}
						for j := n; j < len(out); j++ {
							if out[j] != -1 {
								t.Fatalf("dim %d, block of %d: wrote out[%d] beyond the block", dim, n, j)
							}
						}
					}
				}
			}
		})
	}
}

// TestPrefetchStaysInsideTheRow checks the line-count helper: every address
// the sweep hands the prefetch instruction, row start + 64·i for i below
// the count, lies inside the row's own bytes — so inside the matrix even
// for its last row — and the count reaches the row's end or the cap. An
// R*-tree node's id row (33 int32 slots at the default capacity) takes the
// same count, through PrefetchIDs.
func TestPrefetchStaysInsideTheRow(t *testing.T) {
	for _, dim := range []int{1, 15, 16, 17, 33, 128, 255, 256, 257, 960} {
		lines := prefetchLineCount(dim)
		rowBytes := 4 * dim
		if lines < 1 || lines > prefetchMaxLines {
			t.Fatalf("dim %d: %d lines, want 1..%d", dim, lines, prefetchMaxLines)
		}
		if last := cacheLine * (lines - 1); last >= rowBytes {
			t.Fatalf("dim %d: line %d starts at byte %d of a %d-byte row", dim, lines-1, last, rowBytes)
		}
		if lines < prefetchMaxLines && cacheLine*lines < rowBytes {
			t.Fatalf("dim %d: %d lines stop at byte %d of a %d-byte row, below the cap of %d",
				dim, lines, cacheLine*lines, rowBytes, prefetchMaxLines)
		}
		// The same for the last row of a matrix, in bytes from the start of
		// its storage; then the call itself, on that row.
		const rows = 5
		m := NewMatrix(rows, dim)
		if end := 4*(rows-1)*dim + cacheLine*(lines-1); end >= 4*len(m.Data()) {
			t.Fatalf("dim %d: last row's last prefetch at byte %d of %d", dim, end, 4*len(m.Data()))
		}
		prefetchLines(m.Row(rows-1), lines)
	}
	if got := prefetchLineCount(0); got != 0 {
		t.Fatalf("a 0-dimensional row has no line to prefetch, got %d", got)
	}
	prefetchLines(nil, 0)
	ids := make([]int32, 4*33)
	PrefetchIDs(ids[3*33:])
	PrefetchIDs(nil)
}
