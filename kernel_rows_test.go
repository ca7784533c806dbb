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

// TestKernelContract pins the one contract every kernel row keeps: the
// distance a query returns is the distance vec.Dist computes for that row,
// bit for bit. A hit's distance comes out of the bounded verification sweep,
// so the sweep must land on exactly the unbounded kernel's value, whatever
// the bound and the dimension. The data are Gaussian, so two summation
// orders round apart from a few dozen components on; the sweep itself is
// checked at every dimension up to 1024 (zero-length inputs are pinned in
// internal/vec).
func TestKernelContract(t *testing.T) {
	const n, queries, k = 2000, 50, 10
	rng := rand.New(rand.NewSource(29))
	gauss := func(rows, dim int) [][]float32 {
		out := make([][]float32, rows)
		for i := range out {
			out[i] = make([]float32, dim)
			for j := range out[i] {
				out[i][j] = float32(rng.NormFloat64())
			}
		}
		return out
	}
	dims := []int{16, 32, 128, 960}
	data, qs := make([][][]float32, len(dims)), make([][][]float32, len(dims))
	for i, dim := range dims {
		data[i], qs[i] = gauss(n, dim), gauss(queries, dim)
	}
	sweep := gauss(4, 1024)

	defer vec.SetKernel(vec.KernelName())
	for _, name := range vec.KernelNames() {
		if err := vec.SetKernel(name); err != nil {
			t.Fatal(err)
		}
		for i, dim := range dims {
			idx, err := New(data[i], Options{Seed: 29})
			if err != nil {
				t.Fatal(err)
			}
			off := 0
			for _, q := range qs[i] {
				for _, r := range search(t, idx, q, k) {
					if r.Dist != vec.Dist(q, data[i][r.ID]) {
						off++
					}
				}
			}
			if off > 0 {
				t.Errorf("%s, dim %d: %d of %d hits carry a distance other than vec.Dist's", name, dim, off, queries*k)
			}
		}
		ids, out := []int{0, 1, 2}, make([]float64, 3)
		for dim := 1; dim <= 1024; dim++ {
			m := vec.NewMatrix(0, dim)
			for _, row := range sweep[1:] {
				m.Append(row[:dim])
			}
			q := sweep[0][:dim]
			vec.SquaredDistsToBounded(q, m, ids, math.Inf(1), out)
			for j, id := range ids {
				if want := vec.SquaredDist(q, m.Row(id)); out[j] != want {
					t.Fatalf("%s, dim %d: bounded sweep %v, SquaredDist %v", name, dim, out[j], want)
				}
			}
		}
	}
}
