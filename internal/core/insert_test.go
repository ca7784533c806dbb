package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"dblsh/internal/rstar"
	"dblsh/internal/vec"
)

// TestEachSpacePanicReachesCaller pins where a failing space fails: on the
// caller's goroutine, after every other space has run, with the panic value
// of the lowest-index space that panicked.
func TestEachSpacePanicReachesCaller(t *testing.T) {
	for _, procs := range []int{1, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			idx := &Index{cfg: Config{L: 6}}
			ran := make([]bool, idx.cfg.L)
			defer func() {
				if got := recover(); got != "space 3" {
					t.Errorf("GOMAXPROCS %d: recovered %v, want space 3's panic", procs, got)
				}
				if !slices.Equal(ran, []bool{true, true, true, false, false, true}) {
					t.Errorf("GOMAXPROCS %d: spaces that returned %v; every space must run", procs, ran)
				}
			}()
			idx.eachSpace(func(i int) error {
				switch i {
				case 3:
					panic("space 3")
				case 4:
					panic("space 4")
				}
				ran[i] = true
				return nil
			})
			t.Errorf("GOMAXPROCS %d: eachSpace returned past a panicking space", procs)
		}()
	}
}

// TestRowBlockPanicReachesCaller is TestEachSpacePanicReachesCaller for
// Build's projection pass: many more items than workers, two of them
// panicking, and the lowest one's panic must reach the caller after every
// other block has run.
func TestRowBlockPanicReachesCaller(t *testing.T) {
	const blocks = 40
	for _, procs := range []int{1, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			ran := make([]bool, blocks)
			defer func() {
				if got := recover(); got != "block 17" {
					t.Errorf("GOMAXPROCS %d: recovered %v, want block 17's panic", procs, got)
				}
				for b, r := range ran {
					if r == (b == 17 || b == 30) {
						t.Errorf("GOMAXPROCS %d: block %d returned=%v", procs, b, r)
					}
				}
			}()
			Each(blocks, func(b int) error {
				if b == 17 || b == 30 {
					panic(fmt.Sprintf("block %d", b))
				}
				ran[b] = true
				return nil
			})
			t.Errorf("GOMAXPROCS %d: Each returned past a panicking block", procs)
		}()
	}
}

// leafPoints decodes the points a tree's arena holds in its leaves' blocks
// into an n×k matrix, row id holding id's point. A row no leaf holds stays
// NaN.
func leafPoints(a rstar.Arena, n, k int) *vec.Matrix {
	m := vec.NewMatrix(n, k)
	for i := range m.Data() {
		m.Data()[i] = float32(math.NaN())
	}
	slots := len(a.Heads) / 2
	ecap, blockLen := len(a.Ents)/slots, len(a.Blocks)/slots
	stride := blockLen / k
	for s := range slots {
		if a.Heads[2*s+1]>>16 != 0 {
			continue // interior: its blocks hold rects
		}
		block := a.Blocks[s*blockLen : (s+1)*blockLen]
		for j, id := range a.Ents[s*ecap : s*ecap+int(a.Heads[2*s])] {
			for d := range k {
				m.Row(int(id))[d] = block[d*stride+j]
			}
		}
	}
	return m
}

// checkLeafPoints fails t unless every tree of idx holds, in its leaves,
// Compound(i).Project of data bit for bit.
func checkLeafPoints(t *testing.T, label string, idx *Index, data *vec.Matrix) {
	t.Helper()
	for i, a := range idx.Trees() {
		got := leafPoints(a, data.Rows(), idx.cfg.K).Data()
		want := idx.family.Compound(i).Project(data).Data()
		for j, v := range got {
			if math.Float32bits(v) != math.Float32bits(want[j]) {
				t.Fatalf("%s: space %d entry %d is %v, Project gives %v", label, i, j, v, want[j])
			}
		}
	}
}

// TestBuildRowBlocksMatchProject holds Build's row-block projection pass to
// the per-space projection it replaced: every tree's leaves hold
// Compound(i).Project of the data, bit for bit, whatever the worker count
// and wherever the last block ends.
func TestBuildRowBlocksMatchProject(t *testing.T) {
	const d = 45 // two 16-float stripes, three 4-float chunks, a tail
	rows := testDataset(3*projectBlock+77, d, 32).Data
	for _, procs := range []int{1, 2, 4} {
		for _, n := range []int{1, projectBlock - 1, projectBlock + 1, rows.Rows()} {
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				data := rows.Slice(0, n)
				checkLeafPoints(t, fmt.Sprintf("GOMAXPROCS %d, n %d", procs, n), Build(data, Config{Seed: 32}), data)
			}()
		}
	}
}

// grownCfg has the smallest node capacity a tree takes, so adds split and
// force-reinsert at every level.
var grownCfg = Config{C: 1.5, K: 6, L: 5, T: 10, Seed: 7, Tree: rstar.Options{MaxEntries: 4}}

// grownIndex bulk-loads an index over the first base rows of rows and adds
// the rest with Insert, at GOMAXPROCS procs.
func grownIndex(rows *vec.Matrix, base, procs int) *Index {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	idx := Build(rows.Slice(0, base).Clone(), grownCfg)
	for i := base; i < rows.Rows(); i++ {
		if id := idx.Insert(rows.Row(i)); id != i {
			panic("insert returned the wrong id")
		}
	}
	return idx
}

// sameBits reports whether a and b hold the same float32 bit patterns.
func sameBits(a, b []float32) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}

// TestInsertParallelMatchesSequential pins the fan-out's contract: adds
// whose L spaces run side by side build the very trees, leaf lanes included,
// that adds running the spaces one after another build, and each space's
// leaves hold its projection of every row.
func TestInsertParallelMatchesSequential(t *testing.T) {
	const base, added = 500, 400
	rows := testDataset(base+added, 12, 21).Data
	seq, par := grownIndex(rows, base, 1), grownIndex(rows, base, 4)
	packed := Build(rows.Slice(0, base).Clone(), grownCfg)
	for i := range seq.trees {
		if h0, h := packed.trees[i].Height(), seq.trees[i].Height(); h <= h0 {
			t.Fatalf("tree %d: %d levels after the adds, %d after bulk load; the adds must split the root", i, h, h0)
		}
	}
	sa, pa := seq.Trees(), par.Trees()
	for i := range sa {
		s, p := sa[i], pa[i]
		if s.Root != p.Root || !slices.Equal(s.Heads, p.Heads) || !slices.Equal(s.Ents, p.Ents) ||
			!sameBits(s.Rects, p.Rects) || !sameBits(s.Blocks, p.Blocks) {
			t.Fatalf("tree %d: the parallel adds built a different arena", i)
		}
	}
	checkLeafPoints(t, "after the adds", seq, rows)
	ss, ps := seq.NewSearcher(), par.NewSearcher()
	for i := 0; i < rows.Rows(); i += 37 {
		q := rows.Row(i)
		if a, b := ss.KANN(q, 10), ps.KANN(q, 10); !slices.Equal(a, b) {
			t.Fatalf("query %d: sequential adds answer %v, parallel adds %v", i, a, b)
		}
	}
}

// TestInsertAllocCeiling pins what a steady-state add allocates: eachSpace's
// five pieces of bookkeeping (two per-space slices, the job holding the
// claim counter, wait group and fn, and two closures), at GOMAXPROCS 4 so
// that its helpers start too. The trees' arenas and the data matrix grow
// now and then, well under once per add. Insert narrows its hash into the
// index's own scratch, so no per-space point slice shows up.
func TestInsertAllocCeiling(t *testing.T) {
	const base, warm, runs = 4000, 200, 400
	rows := testDataset(base+warm+runs+1, 32, 22).Data
	idx := Build(rows.Slice(0, base).Clone(), Config{Seed: 22})
	next := base
	for ; next < base+warm; next++ {
		idx.Insert(rows.Row(next))
	}
	avg := testing.AllocsPerRun(runs, func() {
		// AllocsPerRun runs f at GOMAXPROCS 1, where eachSpace starts no
		// goroutine; raise it so the helpers' allocations count. The
		// deferred restore in AllocsPerRun puts the caller's value back.
		runtime.GOMAXPROCS(4)
		idx.Insert(rows.Row(next))
		next++
	})
	if avg > 5 {
		t.Fatalf("a steady-state add allocates %.0f times, ceiling 5", avg)
	}
}

// BenchmarkIndexInsert times Insert into a bulk-loaded 100k × 128 index at
// the default K and L. Every 2 000 inserts the index is re-packed off the
// clock, as rstar.BenchmarkInsert re-packs its tree, so ns/op is the cost
// of the first adds after a build; a -benchtime in multiples of 2000x makes
// rows comparable whatever their speed. The data matrix has room for the
// adds, so no op pays for moving 100k rows. -cpu 1,2 sets sequential
// spaces against parallel ones.
func BenchmarkIndexInsert(b *testing.B) {
	const base, extra, d = 100_000, 2_000, 128
	rows := testDataset(base+extra, d, 1).Data
	b.ReportAllocs()
	var idx *Index
	for i := 0; i < b.N; i++ {
		if i%extra == 0 {
			b.StopTimer()
			data := vec.WrapMatrix(make([]float32, base*d, (base+extra)*d), base, d)
			copy(data.Data(), rows.Data())
			idx = Build(data, Config{Seed: 1})
			b.StartTimer()
		}
		idx.Insert(rows.Row(base + i%extra))
	}
}
