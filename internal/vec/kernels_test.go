package vec

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// scalarSquaredDist is the straight-line reference implementation the
// unrolled and blocked kernels are checked against (and benchmarked
// against): one component per iteration, one accumulator.
func scalarSquaredDist(a, b []float32) float64 {
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return s
}

func scalarDot(a, b []float32) float64 {
	var s float64
	for i := range a {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}

func TestZeroLengthKernels(t *testing.T) {
	// Regression: the bounds-check hint `_ = b[len(a)-1]` used to index -1
	// on zero-length input.
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil, nil) = %v, want 0", got)
	}
	if got := Dot([]float32{}, []float32{}); got != 0 {
		t.Fatalf("Dot of empty slices = %v, want 0", got)
	}
	if got := SquaredDist(nil, nil); got != 0 {
		t.Fatalf("SquaredDist(nil, nil) = %v, want 0", got)
	}
	if got := Dist(nil, nil); got != 0 {
		t.Fatalf("Dist(nil, nil) = %v, want 0", got)
	}
	if got := squaredDistBounded(nil, nil, 1); got != 0 {
		t.Fatalf("squaredDistBounded(nil) = %v, want 0", got)
	}
}

// TestKernelsMatchScalar is the property test for the dispatched and
// blocked kernels: across every registered kernel row (hardware rows
// included) and dims 1..64 — odd dims, non-multiple-of-4 dims, and dims
// around the early-abandon stride — every path must agree with the scalar
// reference within 1e-6.
func TestKernelsMatchScalar(t *testing.T) {
	defer SetKernel(KernelName())
	for _, name := range KernelNames() {
		if err := SetKernel(name); err != nil {
			t.Fatal(err)
		}
		t.Run(name, testKernelsMatchScalar)
	}
}

func testKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// Differences are taken in float32 (the data's own precision), so the
	// comparison tolerance is relative.
	close := func(got, want float64) bool {
		return math.Abs(got-want) <= 1e-6*(1+math.Abs(want))
	}
	for dim := 1; dim <= 64; dim++ {
		const rows = 17 // not a multiple of any block size
		m := NewMatrix(rows, dim)
		for i := 0; i < rows; i++ {
			row := m.Row(i)
			for j := range row {
				row[j] = float32(rng.NormFloat64())
			}
		}
		q := make([]float32, dim)
		for j := range q {
			q[j] = float32(rng.NormFloat64())
		}
		ids := make([]int, rows)
		want := make([]float64, rows)
		for i := 0; i < rows; i++ {
			ids[i] = (i * 5) % rows // shuffled gather order
			want[i] = scalarSquaredDist(q, m.Row(ids[i]))
		}

		for i, id := range ids {
			if got := SquaredDist(q, m.Row(id)); !close(got, want[i]) {
				t.Fatalf("dim %d: SquaredDist = %v, scalar = %v", dim, got, want[i])
			}
			wd := scalarDot(q, m.Row(id))
			if got := Dot(q, m.Row(id)); !close(got, wd) {
				t.Fatalf("dim %d: Dot = %v, scalar = %v", dim, got, wd)
			}
		}

		out := make([]float64, rows)
		SquaredDistsTo(q, m, ids, out)
		for i := range out {
			if !close(out[i], want[i]) {
				t.Fatalf("dim %d: SquaredDistsTo[%d] = %v, scalar = %v", dim, i, out[i], want[i])
			}
		}

		// Bounded kernel: under a median bound, rows at or below it are
		// exact and rows above it report +Inf.
		bound := medianOf(want)
		SquaredDistsToBounded(q, m, ids, bound, out)
		for i := range out {
			switch {
			case math.Abs(want[i]-bound) <= 1e-6*(1+bound):
				// At the bound itself, accumulation-order rounding may tip
				// the row either way; both the exact value and +Inf are
				// correct (top-k callers reject distances ≥ bound anyway).
			case want[i] <= bound:
				if !close(out[i], want[i]) {
					t.Fatalf("dim %d: bounded[%d] = %v, scalar = %v (bound %v)", dim, i, out[i], want[i], bound)
				}
			default:
				if !math.IsInf(out[i], 1) && !close(out[i], want[i]) {
					t.Fatalf("dim %d: abandoned row reported %v, want +Inf or %v", dim, out[i], want[i])
				}
				if out[i] < bound*(1-1e-6) {
					t.Fatalf("dim %d: bounded[%d] = %v claims to beat bound %v but scalar is %v", dim, i, out[i], bound, want[i])
				}
			}
		}

		// An infinite bound must degenerate to the exact kernel.
		SquaredDistsToBounded(q, m, ids, math.Inf(1), out)
		for i := range out {
			if !close(out[i], want[i]) {
				t.Fatalf("dim %d: unbounded bounded-kernel[%d] = %v, scalar = %v", dim, i, out[i], want[i])
			}
		}

		// The inert SquaredDistsToBoundedQuant is the bounded sweep, bit for
		// bit, and rejects nothing.
		for _, b := range []float64{bound, math.Inf(1)} {
			SquaredDistsToBounded(q, m, ids, b, out)
			viaQuant := make([]float64, rows)
			if n := SquaredDistsToBoundedQuant(q, nil, m, NewQuantMatrix(m), ids, b, viaQuant); n != 0 {
				t.Fatalf("dim %d: SquaredDistsToBoundedQuant returned %d, want 0", dim, n)
			}
			for i := range out {
				if math.Float64bits(viaQuant[i]) != math.Float64bits(out[i]) {
					t.Fatalf("dim %d bound %v: SquaredDistsToBoundedQuant[%d] = %v, SquaredDistsToBounded = %v", dim, b, i, viaQuant[i], out[i])
				}
			}
		}
	}
}

func medianOf(xs []float64) float64 {
	best, n := 0.0, 0
	for _, x := range xs {
		var below int
		for _, y := range xs {
			if y < x {
				below++
			}
		}
		if below == len(xs)/2 {
			return x
		}
		if below > n {
			best, n = x, below
		}
	}
	return best
}

// FuzzDistsTo drives the batch kernel with arbitrary shapes and payloads
// and cross-checks every lane against the scalar reference, under every
// registered kernel row (hardware rows included).
func FuzzDistsTo(f *testing.F) {
	f.Add(uint8(4), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(uint8(1), []byte{0})
	f.Add(uint8(17), make([]byte, 17*3))
	f.Fuzz(func(t *testing.T, dimRaw uint8, raw []byte) {
		dim := int(dimRaw%64) + 1
		vals := make([]float32, len(raw))
		for i, b := range raw {
			vals[i] = float32(int8(b)) / 8
		}
		if len(vals) < dim {
			return
		}
		q := vals[:dim]
		rows := (len(vals) - dim) / dim
		if rows == 0 {
			return
		}
		m := WrapMatrix(vals[dim:dim+rows*dim], rows, dim)
		ids := make([]int, rows)
		for i := range ids {
			ids[i] = rows - 1 - i
		}
		out := make([]float64, rows)
		bounded := make([]float64, rows)
		defer SetKernel(KernelName())
		for _, name := range KernelNames() {
			if err := SetKernel(name); err != nil {
				t.Fatal(err)
			}
			SquaredDistsTo(q, m, ids, out)
			SquaredDistsToBounded(q, m, ids, 1.5, bounded)
			for i, id := range ids {
				sq := scalarSquaredDist(q, m.Row(id))
				if math.Abs(out[i]-sq) > 1e-5*(1+sq) {
					t.Fatalf("kernel %s: SquaredDistsTo[%d] = %v, scalar = %v", name, i, out[i], sq)
				}
				if sq <= 1.5-1e-5 && math.Abs(bounded[i]-sq) > 1e-5*(1+sq) {
					t.Fatalf("kernel %s: bounded[%d] = %v, scalar = %v", name, i, bounded[i], sq)
				}
				if sq > 1.5+1e-5 && bounded[i] <= 1.5-1e-5 {
					t.Fatalf("kernel %s: bounded[%d] = %v under bound, scalar %v above it", name, i, bounded[i], sq)
				}
			}
		}
	})
}

// BenchmarkDistKernels compares the per-row scalar path (what verification
// used before the blocked kernels) against the unrolled, blocked, and
// early-abandon kernels on a realistic verification block: 64 candidates of
// dim 128 gathered from a 4096-row matrix.
func BenchmarkDistKernels(b *testing.B) {
	const (
		dim   = 128
		rows  = 4096
		block = 64
	)
	rng := rand.New(rand.NewSource(5))
	m := NewMatrix(rows, dim)
	for i := 0; i < rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = float32(rng.NormFloat64())
		}
	}
	q := make([]float32, dim)
	for j := range q {
		q[j] = float32(rng.NormFloat64())
	}
	ids := make([]int, block)
	for i := range ids {
		ids[i] = rng.Intn(rows)
	}
	out := make([]float64, block)

	b.Run("scalar-per-row", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, id := range ids {
				out[j] = scalarSquaredDist(q, m.Row(id))
			}
		}
	})
	// Per-kernel rows: dot and squared-dist on one cache-hot pair (pure
	// kernel throughput), plus the gathered blocked and bounded sweeps
	// (what verification actually runs, memory effects included).
	exact := make([]float64, block)
	SquaredDistsTo(q, m, ids, exact)
	// A tight bound ~ the 10th percentile: most rows abandon early, the
	// shape of a warmed-up top-k verification.
	bound := medianOf(exact) / 2
	hot := m.Row(ids[0])
	defer SetKernel(KernelName())
	for _, name := range KernelNames() {
		if err := SetKernel(name); err != nil {
			b.Fatal(err)
		}
		// No trailing -<number> in sub-benchmark names: tools that strip the
		// GOMAXPROCS tag Go appends when GOMAXPROCS > 1 would strip a "-128"
		// here on some machines and not on others. Both pairs are dim 128.
		b.Run(name+"/dot", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out[0] = Dot(q, hot)
			}
		})
		b.Run(name+"/squared-dist", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out[0] = SquaredDist(q, hot)
			}
		})
		b.Run(name+"/blocked", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				SquaredDistsTo(q, m, ids, out)
			}
		})
		b.Run(name+"/blocked-bounded", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				SquaredDistsToBounded(q, m, ids, bound, out)
			}
		})
	}
}

// coldBlock is the verification block of BenchmarkVerifyBlockCold, the size
// core gathers before it calls the sweep.
const coldBlock = 64

// coldCorpus builds one matrix of BenchmarkVerifyBlockCold. Every row is the
// query plus noise of its own amplitude, between 0.6 and 2, so a block's
// distances spread as a candidate stream's do and a bound at its 10th
// percentile abandons the other rows, on average, a good third of the way
// in — where TestKernelsMatchScalar's Gaussian rows, all equally far, would
// be read to the end. The ids of nblocks blocks come from a fixed LCG;
// bounds[b] is block b's 7th-smallest exact squared distance of 64.
func coldCorpus(rows, dim, nblocks int) (m *Matrix, q []float32, ids []int, bounds []float64) {
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x >> 33
	}
	unit := func() float32 { return float32(next()&0xFFFF) / 65536 } // [0, 1)
	q = make([]float32, dim)
	for j := range q {
		q[j] = 2*unit() - 1
	}
	m = NewMatrix(rows, dim)
	for i := 0; i < rows; i++ {
		amp := 0.6 + 1.4*unit()
		for j, row := 0, m.Row(i); j < dim; j++ {
			row[j] = q[j] + amp*(2*unit()-1)
		}
	}
	ids = make([]int, nblocks*coldBlock)
	for i := range ids {
		ids[i] = int(next() % uint64(rows))
	}
	bounds = make([]float64, nblocks)
	exact := make([]float64, coldBlock)
	for b := range bounds {
		SquaredDistsTo(q, m, ids[b*coldBlock:(b+1)*coldBlock], exact)
		sort.Float64s(exact)
		bounds[b] = exact[coldBlock/10]
	}
	return m, q, ids, bounds
}

// BenchmarkVerifyBlockCold is the instrument prefetchAhead and
// prefetchMaxLines are checked on: the bounded sweep as a query runs it, 64
// scattered rows at a time with nine in ten abandoning, over matrices no
// cache private to a core holds (40 000 × 960 is 154 MB, 100 000 × 128 is
// 51 MB, and a pass over the 2 048 blocks goes round either several
// times), so every row is the cache- and TLB-cold read it is in a query.
// BenchmarkDistKernels' blocked-bounded row gathers from a 2 MB matrix and
// measures the arithmetic instead. One sub-benchmark per registered kernel
// row; ns/row is the number to read.
func BenchmarkVerifyBlockCold(b *testing.B) {
	const nblocks = 2048
	for _, shape := range []struct{ rows, dim int }{{40000, 960}, {100000, 128}} {
		b.Run(fmt.Sprintf("%dx%d", shape.rows, shape.dim), func(b *testing.B) {
			m, q, ids, bounds := coldCorpus(shape.rows, shape.dim, nblocks)
			out := make([]float64, coldBlock)
			defer SetKernel(KernelName())
			for _, name := range KernelNames() {
				if err := SetKernel(name); err != nil {
					b.Fatal(err)
				}
				b.Run(name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						blk := i % nblocks
						SquaredDistsToBounded(q, m, ids[blk*coldBlock:(blk+1)*coldBlock], bounds[blk], out)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*coldBlock), "ns/row")
				})
			}
		})
	}
}
