package rstar

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dblsh/internal/vec"
)

// TestSortAxisMatchesStableOracle holds STR's axis sort to its definition:
// the order slices.SortStableFunc gives items by their float64 coordinate,
// ties kept in input order. Items arrive shuffled, so a sort that broke
// ties by id instead would fail too.
func TestSortAxisMatchesStableOracle(t *testing.T) {
	specials := []float32{
		0, float32(math.Copysign(0, -1)),
		float32(math.Inf(1)), float32(math.Inf(-1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.Float32frombits(0x007fffff), -math.Float32frombits(0x007fffff), // largest subnormal
		math.Float32frombits(0x00800000), // smallest normal
		math.MaxFloat32, -math.MaxFloat32, 1, -1, 1e-30, -1e30,
	}
	special := func(n, d int, seed int64) *vec.Matrix {
		rng := rand.New(rand.NewSource(seed))
		m := vec.NewMatrix(n, d)
		for i := range m.Data() {
			m.Data()[i] = specials[rng.Intn(len(specials))]
		}
		return m
	}
	constant := func(n, d int, _ int64) *vec.Matrix {
		m := vec.NewMatrix(n, d)
		for i := range m.Data() {
			m.Data()[i] = -3.5
		}
		return m
	}
	// topByte keys differ only in the key's most significant byte, so the radix
	// sort skips its three lower passes.
	topByte := func(n, d int, seed int64) *vec.Matrix {
		rng := rand.New(rand.NewSource(seed))
		m := vec.NewMatrix(n, d)
		for i := range m.Data() {
			m.Data()[i] = math.Float32frombits(uint32(rng.Intn(0x7f)) << 24)
		}
		return m
	}
	const dim = 3
	sizes := []int{0, 1, 2, insertionCutoff - 1, insertionCutoff, insertionCutoff + 1, 5000, 100_000}
	for _, gen := range []struct {
		name string
		data func(n, d int, seed int64) *vec.Matrix
	}{{"gaussian", randomMatrix}, {"grid", gridMatrix}, {"special", special}, {"constant", constant}, {"top byte", topByte}} {
		for _, n := range sizes {
			m := gen.data(n, dim, int64(n)+7)
			rows := m.Data()
			items := make([]int32, n)
			for i := range items {
				items[i] = int32(i)
			}
			rng := rand.New(rand.NewSource(int64(n)))
			rng.Shuffle(n, func(i, j int) { items[i], items[j] = items[j], items[i] })
			keys := make([]uint64, 2*n)
			for axis := 0; axis < dim; axis++ {
				want := slices.Clone(items)
				slices.SortStableFunc(want, func(a, b int32) int {
					return cmp.Compare(float64(rows[int(a)*dim+axis]), float64(rows[int(b)*dim+axis]))
				})
				got := slices.Clone(items)
				sortAxis(got, rows, dim, axis, keys)
				if !slices.Equal(got, want) {
					t.Fatalf("%s n=%d axis %d: order differs from the stable oracle", gen.name, n, axis)
				}
				// The next axis sorts what this one left, as strTile does.
				items = got
			}
		}
	}
}
