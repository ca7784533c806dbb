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

// grownCfg has the smallest node capacity a tree takes, so a tail holds 16
// rows and adds repack inline every 16.
var grownCfg = Config{C: 1.5, K: 6, L: 5, T: 10, Seed: 7, Tree: rstar.Options{MaxEntries: 4}}

// cloneMatrix returns a copy of m that owns its storage, so an index built
// over it can grow without writing into m.
func cloneMatrix(m *vec.Matrix) *vec.Matrix {
	data := make([]float32, len(m.Data()))
	copy(data, m.Data())
	return vec.WrapMatrix(data, m.Rows(), m.Dim())
}

// grownIndex bulk-loads an index over the first base rows of rows and adds
// the rest with Insert, at GOMAXPROCS procs.
func grownIndex(rows *vec.Matrix, base, procs int) *Index {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	idx := Build(cloneMatrix(rows.Slice(0, base)), grownCfg)
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

// sameArenas fails t unless a and b hold the same trees, slot for slot and
// bit for bit.
func sameArenas(t *testing.T, label string, a, b []rstar.Arena) {
	t.Helper()
	for i := range a {
		x, y := a[i], b[i]
		if x.Root != y.Root || !slices.Equal(x.Heads, y.Heads) || !slices.Equal(x.Ents, y.Ents) ||
			!sameBits(x.Rects, y.Rects) || !sameBits(x.Blocks, y.Blocks) {
			t.Fatalf("%s: tree %d differs", label, i)
		}
	}
}

// TestRepackMatchesBuild pins the one rebuild path to Build: an index grown
// by adds — through tails that fill and repack inline, the L spaces side by
// side or one after another — holds every row's projection in its leaves;
// its trees repacked in place, and Repack over the rows and their gathered
// projections, are Build's trees over the same rows, node for node; and
// Repack over a subset of the rows is Build over that subset, its initial
// radius included.
func TestRepackMatchesBuild(t *testing.T) {
	const base, added = 500, 400
	rows := testDataset(base+added, 12, 21).Data
	built := Build(cloneMatrix(rows), grownCfg)
	for _, procs := range []int{1, 4} {
		idx := grownIndex(rows, base, procs)
		label := fmt.Sprintf("GOMAXPROCS %d", procs)
		if idx.Unpacked() == 0 || idx.Unpacked() == added {
			t.Fatalf("%s: a tail of %d rows; the adds must repack inline and leave a tail", label, idx.Unpacked())
		}
		checkLeafPoints(t, label+", after the adds", idx, rows)
		all := make([]int, rows.Rows())
		for i := range all {
			all[i] = i
		}
		data, _ := idx.LiveRows()
		sameArenas(t, label+", Repack", Repack(data, idx.Projections(all), idx.cfg).Trees(), built.Trees())
		for _, tr := range idx.trees {
			tr.Repack()
		}
		if idx.Unpacked() != 0 {
			t.Fatalf("%s: %d rows unpacked after the repack", label, idx.Unpacked())
		}
		sameArenas(t, label+", repacked in place", idx.Trees(), built.Trees())
	}
	idx := grownIndex(rows, base, 2)
	for id := 0; id < rows.Rows(); id += 3 {
		idx.Delete(id)
	}
	live, ids := idx.LiveRows()
	cfg := idx.cfg
	cfg.InitialRadius = 0
	got, want := Repack(live, idx.Projections(ids), cfg), Build(cloneMatrix(live), cfg)
	sameArenas(t, "the live rows", got.Trees(), want.Trees())
	if got.r0 != want.r0 {
		t.Fatalf("the live rows: initial radius %v, Build estimates %v", got.r0, want.r0)
	}
}

// TestInsertAllocCeiling pins what a steady-state add allocates: nothing but
// the growth of the data matrix and of the trees' arenas (a block chunk
// every 64 slots, the per-slot slices as append regrows them), well under
// once per add. Insert narrows its hash into the index's own scratch and
// appends with no goroutine, so no per-add bookkeeping shows up. The runs
// stay inside one tail, so no repack falls among them.
func TestInsertAllocCeiling(t *testing.T) {
	const base, warm, runs = 4000, 200, 400
	rows := testDataset(base+warm+runs+1, 32, 22).Data
	idx := Build(cloneMatrix(rows.Slice(0, base)), Config{Seed: 22})
	next := base
	for ; next < base+warm; next++ {
		idx.Insert(rows.Row(next))
	}
	avg := testing.AllocsPerRun(runs, func() {
		idx.Insert(rows.Row(next))
		next++
	})
	if avg > 1 {
		t.Fatalf("a steady-state add allocates %.2f times, ceiling 1", avg)
	}
}

// BenchmarkIndexInsert times Insert into a bulk-loaded 100k × 128 index at
// the default K and L: a hash and L appends to the trees' tails. Every
// 1 000 inserts, fewer than a tail holds, the index is rebuilt off the
// clock, so no op pays for an inline repack and ns/op is the append alone;
// a -benchtime in multiples of 1000x makes rows comparable whatever their
// speed. The data matrix has room for the adds, so no op pays for moving
// 100k rows.
func BenchmarkIndexInsert(b *testing.B) {
	const base, extra, d = 100_000, 1_000, 128
	rows := testDataset(base+extra, d, 1).Data
	b.ReportAllocs()
	b.ResetTimer()
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

// BenchmarkRepack times the rebuild a compaction or a full tail runs, at
// 100k × 128 with the default K and L: the live rows copied (LiveRows), their
// projections gathered out of the leaves (Projections) and the L trees
// packed from them side by side with the initial radius re-estimated
// (Repack). Nothing is hashed.
func BenchmarkRepack(b *testing.B) {
	const n, d = 100_000, 128
	idx := Build(testDataset(n, d, 1).Data, Config{Seed: 1})
	cfg := idx.cfg
	cfg.InitialRadius = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		live, ids := idx.LiveRows()
		Repack(live, idx.Projections(ids), cfg)
	}
}

// TestGrownIndexQueriesLikePacked pins what growing by adds costs a query,
// in node counts at a fixed seed: an index packed over 2 % of a 128-d
// overlapping mixture and grown by Insert to 20 000 rows — 19 inline
// repacks, then a tail of 144 rows — visits within 10 % of the nodes the
// index Build packs over the same rows visits, over the same 100 queries at
// k = 50 (1.066× on the avx2 row, 1.092× on the portable ones).
func TestGrownIndexQueriesLikePacked(t *testing.T) {
	const n, base, d, k = 20_000, 400, 128, 50
	data, queries := overlapMixture(n, 100, d, 5)
	cfg := Config{Seed: 5}
	grown := Build(cloneMatrix(data.Slice(0, base)), cfg)
	for i := base; i < n; i++ {
		grown.Insert(data.Row(i))
	}
	packed := Build(data, cfg)
	nodes := func(idx *Index) (total int) {
		s := idx.NewSearcher()
		for i := 0; i < queries.Rows(); i++ {
			s.KANN(queries.Row(i), k)
			total += s.LastStats().NodesVisited
		}
		return total
	}
	g, p := nodes(grown), nodes(packed)
	t.Logf("nodes per query: grown %.1f, packed %.1f, ratio %.3f", float64(g)/100, float64(p)/100, float64(g)/float64(p))
	if 10*g > 11*p {
		t.Fatalf("the grown index visits %d nodes, more than 1.1× the packed index's %d", g, p)
	}
}
