package dblsh

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"dblsh/internal/vec"
)

// TestKernelRowsAnswerIdentically builds the same index and asks it the same
// questions under every registered kernel row, before and after 300 adds, and
// requires one digest of every (id, distance bits) answered. The rows'
// distance kernels differ in summation order, so the rows are small integers:
// every product and partial sum is then exact, projections, radii and
// distances come out bit-identical whatever the order, and what is left to
// differ is the candidate stream — the whole-node window kernels, which must
// admit the same entries in the same order under every row. A tight budget
// (2tL+k = 50 of 4 000 rows) and the ties an integer grid is full of make the
// answer depend on that order.
func TestKernelRowsAnswerIdentically(t *testing.T) {
	const n, dim, adds, queries, k = 4000, 16, 300, 200, 10
	rng := rand.New(rand.NewSource(31))
	draw := func(rows int) [][]float32 {
		out := make([][]float32, rows)
		for i := range out {
			out[i] = make([]float32, dim)
			for j := range out[i] {
				out[i][j] = float32(rng.Intn(24))
			}
		}
		return out
	}
	data, extra, qs := draw(n), draw(adds), draw(queries)

	defer vec.SetKernel(vec.KernelName())
	for _, shards := range []int{1, 3} {
		var first string
		var want [2]uint64
		for _, name := range vec.KernelNames() {
			if err := vec.SetKernel(name); err != nil {
				t.Fatal(err)
			}
			idx, err := New(data, Options{K: 6, L: 4, T: 5, Seed: 31, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			digest := func() uint64 {
				h := fnv.New64a()
				var buf [16]byte
				s := idx.NewSearcher()
				for _, q := range qs {
					res, err := s.SearchOpts(q, k)
					if err != nil || len(res) != k {
						t.Fatalf("%s: %d results, err %v", name, len(res), err)
					}
					for _, r := range res {
						binary.LittleEndian.PutUint64(buf[:8], uint64(r.ID))
						binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(r.Dist))
						h.Write(buf[:])
					}
				}
				return h.Sum64()
			}
			var got [2]uint64
			got[0] = digest()
			for _, v := range extra {
				if _, err := idx.Add(v); err != nil {
					t.Fatal(err)
				}
			}
			got[1] = digest()
			if got[0] == got[1] {
				t.Fatalf("%s: 300 adds changed no answer", name)
			}
			if first == "" {
				first, want = name, got
			} else if got != want {
				t.Fatalf("shards=%d: kernel %s answers %x, kernel %s %x", shards, name, got, first, want)
			}
		}
	}
}
