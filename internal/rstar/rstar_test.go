package rstar

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"dblsh/internal/vec"
)

func randomMatrix(n, d int, seed int64) *vec.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := vec.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			m.Row(i)[j] = float32(rng.NormFloat64() * 10)
		}
	}
	return m
}

// The rectangle helpers below serve the tests only; the tree computes what
// it needs from its blocks.

// NewRect returns a rectangle with the given corners. It panics if the
// corners disagree in length or are inverted.
func NewRect(min, max []float32) Rect {
	if len(min) != len(max) {
		panic(fmt.Sprintf("rstar: corner dims differ: %d vs %d", len(min), len(max)))
	}
	for i := range min {
		if min[i] > max[i] {
			panic(fmt.Sprintf("rstar: inverted rect on dim %d: %v > %v", i, min[i], max[i]))
		}
	}
	return Rect{Min: min, Max: max}
}

// ContainsRect reports whether s is fully inside r.
func (r Rect) ContainsRect(s Rect) bool {
	for i := range r.Min {
		if s.Min[i] < r.Min[i] || s.Max[i] > r.Max[i] {
			return false
		}
	}
	return true
}

func (r Rect) clone() Rect {
	c := newRect(len(r.Min))
	copy(c.Min, r.Min)
	copy(c.Max, r.Max)
	return c
}

// Enlarged returns a copy of r grown to include s.
func (r Rect) Enlarged(s Rect) Rect {
	e := r.clone()
	e.ExpandInPlace(s)
	return e
}

// contains reports whether p lies inside r (inclusive on both faces).
func (r Rect) contains(p []float32) bool { return r.ContainsRect(Rect{Min: p, Max: p}) }

func bruteWindow(data *vec.Matrix, w Rect) []int {
	var out []int
	for i := 0; i < data.Rows(); i++ {
		if w.contains(data.Row(i)) {
			out = append(out, i)
		}
	}
	return out
}

func sortedEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	sort.Ints(a)
	sort.Ints(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRectBasics(t *testing.T) {
	r := NewRect([]float32{0, 0}, []float32{2, 3})
	if !r.contains([]float32{2, 3}) || !r.contains([]float32{0, 0}) {
		t.Fatal("faces must be inclusive")
	}
	if r.contains([]float32{2.001, 1}) {
		t.Fatal("outside point contained")
	}
}

func TestRectOverlap(t *testing.T) {
	a := NewRect([]float32{0, 0}, []float32{2, 2})
	if b := NewRect([]float32{1, 1}, []float32{3, 3}); !a.Intersects(b) {
		t.Fatal("overlapping rects must intersect")
	}
	if c := NewRect([]float32{5, 5}, []float32{6, 6}); a.Intersects(c) {
		t.Fatal("disjoint rects must not intersect")
	}
	// Touching faces intersect.
	if d := NewRect([]float32{2, 0}, []float32{3, 2}); !a.Intersects(d) {
		t.Fatal("touching rects must intersect")
	}
}

func TestRectEnlarged(t *testing.T) {
	a := NewRect([]float32{0, 0}, []float32{1, 1})
	b := NewRect([]float32{2, -1}, []float32{3, 0.5})
	e := a.Enlarged(b)
	if e.Min[0] != 0 || e.Min[1] != -1 || e.Max[0] != 3 || e.Max[1] != 1 {
		t.Fatalf("Enlarged = %+v", e)
	}
	// Original unchanged.
	if a.Max[0] != 1 {
		t.Fatal("Enlarged mutated receiver")
	}
}

func TestWindowRect(t *testing.T) {
	w := WindowRect([]float32{1, 2}, 4)
	if w.Min[0] != -1 || w.Max[0] != 3 || w.Min[1] != 0 || w.Max[1] != 4 {
		t.Fatalf("WindowRect = %+v", w)
	}
}

func TestNewRectPanicsOnInverted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRect([]float32{1}, []float32{0})
}

func TestEmptyTree(t *testing.T) {
	data := vec.NewMatrix(0, 3)
	tr := New(data.Dim(), Options{})
	if tr.Size() != 0 || tr.Height() != 1 {
		t.Fatalf("empty tree size=%d height=%d", tr.Size(), tr.Height())
	}
	got := tr.WindowAll(NewRect([]float32{-1, -1, -1}, []float32{1, 1, 1}))
	if len(got) != 0 {
		t.Fatalf("window on empty tree returned %v", got)
	}
}

func TestInsertSmall(t *testing.T) {
	data := randomMatrix(10, 2, 1)
	tr := New(data.Dim(), Options{MaxEntries: 4})
	for i := 0; i < 10; i++ {
		tr.InsertPoint(i, data.Row(i))
	}
	if tr.Size() != 10 {
		t.Fatalf("size = %d", tr.Size())
	}
	if msg := tr.CheckInvariants(data); msg != "" {
		t.Fatalf("invariant violated: %s", msg)
	}
	all := tr.WindowAll(WindowRect(make([]float32, 2), 1e6))
	want := make([]int, 10)
	for i := range want {
		want[i] = i
	}
	if !sortedEqual(all, want) {
		t.Fatalf("full-bounds window returned %v", all)
	}
}

func TestInsertManyInvariants(t *testing.T) {
	for _, n := range []int{50, 500, 3000} {
		data := randomMatrix(n, 4, int64(n))
		tr := New(data.Dim(), Options{MaxEntries: 16})
		for i := 0; i < n; i++ {
			tr.InsertPoint(i, data.Row(i))
		}
		if msg := tr.CheckInvariants(data); msg != "" {
			t.Fatalf("n=%d: invariant violated: %s", n, msg)
		}
		if tr.Size() != n {
			t.Fatalf("n=%d: size=%d", n, tr.Size())
		}
	}
}

func TestBulkLoadInvariants(t *testing.T) {
	for _, n := range []int{1, 7, 32, 33, 1000, 20000} {
		data := randomMatrix(n, 6, int64(n)+7)
		tr := Pack(data, Options{})
		if tr.Size() != n {
			t.Fatalf("n=%d: size=%d", n, tr.Size())
		}
		if msg := tr.CheckInvariants(data); msg != "" {
			t.Fatalf("n=%d: invariant violated: %s", n, msg)
		}
	}
}

func TestBulkLoadIDsSubset(t *testing.T) {
	data := randomMatrix(100, 3, 5)
	ids := []int{3, 14, 15, 92, 65, 35}
	tr := BulkLoadIDs(data, ids, Options{})
	if tr.Size() != len(ids) {
		t.Fatalf("size = %d", tr.Size())
	}
	got := tr.WindowAll(tr.rect(tr.root))
	if !sortedEqual(got, append([]int(nil), ids...)) {
		t.Fatalf("window = %v, want %v", got, ids)
	}
}

func TestWindowMatchesBruteForce(t *testing.T) {
	data := randomMatrix(5000, 5, 99)
	tr := Pack(data, Options{})
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 50; trial++ {
		c := make([]float32, 5)
		for i := range c {
			c[i] = float32(rng.NormFloat64() * 10)
		}
		w := WindowRect(c, 5+rng.Float64()*20)
		got := tr.WindowAll(w)
		want := bruteWindow(data, w)
		if !sortedEqual(got, want) {
			t.Fatalf("trial %d: window mismatch: got %d ids, want %d", trial, len(got), len(want))
		}
	}
}

func TestWindowMatchesBruteForceAfterInserts(t *testing.T) {
	data := randomMatrix(3000, 4, 17)
	tr := New(data.Dim(), Options{MaxEntries: 8})
	for i := 0; i < 3000; i++ {
		tr.InsertPoint(i, data.Row(i))
	}
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		c := make([]float32, 4)
		for i := range c {
			c[i] = float32(rng.NormFloat64() * 10)
		}
		w := WindowRect(c, 8+rng.Float64()*15)
		if !sortedEqual(tr.WindowAll(w), bruteWindow(data, w)) {
			t.Fatalf("trial %d: mismatch", trial)
		}
	}
}

func TestWindowEarlyTermination(t *testing.T) {
	data := randomMatrix(1000, 3, 3)
	tr := Pack(data, Options{})
	count := 0
	tr.Window(tr.rect(tr.root), func(id int) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Fatalf("visited %d, want early stop at 10", count)
	}
}

func TestMixedBulkThenInsert(t *testing.T) {
	data := randomMatrix(1000, 4, 42)
	tr := Pack(data.Slice(0, 800), Options{MaxEntries: 16})
	for i := 800; i < 1000; i++ {
		tr.InsertPoint(i, data.Row(i))
	}
	if tr.Size() != 1000 {
		t.Fatalf("size = %d", tr.Size())
	}
	if msg := tr.CheckInvariants(data); msg != "" {
		t.Fatalf("invariant violated: %s", msg)
	}
	if !sortedEqual(tr.WindowAll(tr.rect(tr.root)), bruteWindow(data, tr.rect(tr.root))) {
		t.Fatal("window after mixed build mismatch")
	}
}

// Property test: for random point sets and windows, tree results always match
// brute force.
func TestWindowProperty(t *testing.T) {
	f := func(seed int64, widthRaw uint8) bool {
		n := 200
		data := randomMatrix(n, 3, seed)
		tr := Pack(data, Options{MaxEntries: 8})
		w := WindowRect([]float32{0, 0, 0}, 1+float64(widthRaw)/4)
		return sortedEqual(tr.WindowAll(w), bruteWindow(data, w))
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicatePoints(t *testing.T) {
	// All points identical: tree must still hold them all and return them.
	data := vec.NewMatrix(100, 2)
	for i := 0; i < 100; i++ {
		data.SetRow(i, []float32{1, 1})
	}
	tr := New(data.Dim(), Options{MaxEntries: 8})
	for i := 0; i < 100; i++ {
		tr.InsertPoint(i, data.Row(i))
	}
	got := tr.WindowAll(WindowRect([]float32{1, 1}, 0.1))
	if len(got) != 100 {
		t.Fatalf("duplicate window returned %d ids", len(got))
	}
	if msg := tr.CheckInvariants(data); msg != "" {
		t.Fatalf("invariant violated: %s", msg)
	}
}

func TestComputeStats(t *testing.T) {
	data := randomMatrix(5000, 4, 8)
	tr := Pack(data, Options{})
	s := tr.ComputeStats()
	if s.Entries != 5000 {
		t.Fatalf("stats entries = %d", s.Entries)
	}
	if s.Leaves == 0 || s.Nodes < s.Leaves || s.Height < 2 {
		t.Fatalf("implausible stats %+v", s)
	}
	if s.AvgFill < 0.5 {
		t.Fatalf("bulk-loaded fill too low: %v", s.AvgFill)
	}
}

func TestInsertOutOfRangePanics(t *testing.T) {
	data := randomMatrix(5, 2, 1)
	for name, insert := range map[string]func(){
		"negative id":                  func() { New(2, Options{}).InsertPoint(-1, data.Row(0)) },
		"an id other than Size()":      func() { Pack(data, Options{}).InsertPoint(6, data.Row(0)) },
		"an id already held":           func() { Pack(data, Options{}).InsertPoint(4, data.Row(0)) },
		"point of the wrong dimension": func() { New(3, Options{}).InsertPoint(0, data.Row(0)) },
		"row id past the matrix":       func() { BulkLoad(data, Options{}).Insert(5) },
		"row id into a packed tree":    func() { Pack(data, Options{}).Insert(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			insert()
		}()
	}
}

// TestPackReleasesItsMatrix: a packed tree holds its points in its leaves
// alone, so the matrix it was packed from is garbage as soon as the caller
// drops it, while the tree lives on.
func TestPackReleasesItsMatrix(t *testing.T) {
	released := make(chan struct{})
	tr := func() *Tree {
		data := randomMatrix(2000, 4, 9)
		runtime.SetFinalizer(data, func(*vec.Matrix) { close(released) })
		return Pack(data, Options{})
	}()
	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-released:
			if tr.Size() != 2000 {
				t.Fatalf("the tree holds %d points", tr.Size())
			}
			return
		case <-deadline:
			t.Fatal("the matrix was not collected while the tree packed from it lived")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestBulkLoadInsertRetainsRows pins BulkLoad and Insert(id) to Pack and
// InsertPoint: the same tree, over rows appended to the matrix after the
// load.
func TestBulkLoadInsertRetainsRows(t *testing.T) {
	data := randomMatrix(3000, 5, 4)
	m := data.Slice(0, 2000)
	shim, tr := BulkLoad(m, Options{MaxEntries: 8}), Pack(m, Options{MaxEntries: 8})
	for i := 2000; i < data.Rows(); i++ {
		shim.Insert(m.Append(data.Row(i)))
		tr.InsertPoint(i, data.Row(i))
	}
	if msg := shim.CheckInvariants(data); msg != "" {
		t.Fatal(msg)
	}
	if shim.digest() != tr.digest() {
		t.Fatal("BulkLoad and Insert built another tree than Pack and InsertPoint")
	}
}

func BenchmarkBulkLoad100k(b *testing.B) {
	data := randomMatrix(100_000, 10, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Pack(data, Options{})
	}
}

// bulkThenInsert returns a tree STR-packed over the first base rows of
// data, the rest left for InsertPoint — the production shape: a shard's
// trees are packed at build and repack time and take adds in between.
func bulkThenInsert(data *vec.Matrix, base int, opts Options) *Tree {
	return Pack(data.Slice(0, base), opts)
}

// TestInsertAllocCeiling pins what an append allocates: only when the arena
// grows — a block chunk every 64 slots, the per-slot slices as append
// regrows them once a new tail leaf needs a slot — which is well under one
// allocation per insert. The ceiling also holds under -race, where append
// growth is not extended in place. The runs stay inside one tail, so no
// repack (which allocates a whole new arena) falls among them.
func TestInsertAllocCeiling(t *testing.T) {
	const base, warm, runs = 20_000, 100, 400
	data := randomMatrix(base+warm+runs+1, 10, 2)
	tr := bulkThenInsert(data, base, Options{})
	next := base
	for ; next < base+warm; next++ {
		tr.InsertPoint(next, data.Row(next))
	}
	avg := testing.AllocsPerRun(runs, func() {
		tr.InsertPoint(next, data.Row(next))
		next++
	})
	if avg > 0.5 {
		t.Fatalf("Insert after bulk load: %.2f allocs/op, ceiling 0.5", avg)
	}
	if msg := tr.CheckInvariants(data); msg != "" {
		t.Fatalf("invariant violated: %s", msg)
	}
}

// TestBulkLoadFill pins what STR packing leaves: ⌈n/fill⌉ leaves holding
// fill = M − ⌈M/16⌉ entries each (≥ MinEntries) but the last, which holds
// the rest; interior nodes full but the last of each level; and an arena
// that holds exactly its slots — per-slot slices without append's slack, a
// last block chunk cut where the last block ends — and grows past them on
// its first add, which opens the tail, as any arena does.
func TestBulkLoadFill(t *testing.T) {
	for _, m := range []int{4, 8, 32, 64} {
		for _, n := range []int{1, 999, 20_000} {
			data := randomMatrix(n+5000, 5, int64(m*n+1))
			tr := bulkThenInsert(data, n, Options{MaxEntries: m})
			name := fmt.Sprintf("M=%d n=%d", m, n)
			fill := m - (m+15)/16
			if fill < tr.opts.MinEntries {
				t.Fatalf("%s: leaf fill %d below MinEntries %d", name, fill, tr.opts.MinEntries)
			}
			var short [maxLevels]int // nodes below their level's fill
			leaves := 0
			for s := 0; s < len(tr.heads); s++ {
				h := tr.heads[s]
				want := m
				if h.level == 0 {
					want = fill
					leaves++
				} else {
					s++ // its upper-face slot
				}
				if int(h.count) > want {
					t.Fatalf("%s: a level-%d node holds %d entries, more than %d", name, h.level, h.count, want)
				}
				if int(h.count) < want {
					short[h.level]++
				}
			}
			if leaves != (n+fill-1)/fill {
				t.Fatalf("%s: %d leaves, want ⌈%d/%d⌉", name, leaves, n, fill)
			}
			for level, k := range short {
				if k > 1 {
					t.Fatalf("%s: %d short nodes at level %d, want at most the last", name, k, level)
				}
			}
			if len(tr.heads) != cap(tr.heads) || len(tr.rects) != cap(tr.rects) || len(tr.ents) != cap(tr.ents) ||
				len(tr.heads) != packedSlots(n, fill, m) {
				t.Fatalf("%s: %d slots in per-slot slices of capacity %d", name, len(tr.heads), cap(tr.heads))
			}
			c := len(tr.blocks) - 1
			if last := tr.blocks[c]; len(last) != cap(last) || len(last) != (len(tr.heads)-c*chunkSlots)*tr.blockLen {
				t.Fatalf("%s: the last block chunk holds %d floats for %d slots", name, cap(last), len(tr.heads)-c*chunkSlots)
			}
			slots := len(tr.heads)
			for i := n; len(tr.heads) == slots; i++ {
				tr.InsertPoint(i, data.Row(i))
			}
			if msg := tr.CheckInvariants(data); msg != "" {
				t.Fatalf("%s: after the first add: %s", name, msg)
			}
		}
	}
}

// TestAppendsLeaveThePackUntouched: an add into a packed tree goes to the
// tail and touches nothing of the pack. After 50 adds to a 100k × 10 pack,
// every slot the pack took — heads, entries, rects and blocks — holds what
// it held, and the arena has grown by exactly the tail node and the two
// leaves the adds filled.
func TestAppendsLeaveThePackUntouched(t *testing.T) {
	const base, more = 100_000, 50
	data := randomMatrix(base+more, 10, 3)
	tr := bulkThenInsert(data, base, Options{})
	before := tr.Snapshot()
	for i := base; i < base+more; i++ {
		tr.InsertPoint(i, data.Row(i))
	}
	after := tr.Snapshot()
	slots := len(before.Heads) / 2
	if got := len(after.Heads)/2 - slots; got != 2+2 {
		t.Fatalf("the adds took %d slots, want the tail node's two and two leaves", got)
	}
	if !slices.Equal(after.Heads[:2*slots], before.Heads) || !slices.Equal(after.Ents[:len(before.Ents)], before.Ents) ||
		!slices.Equal(after.Rects[:len(before.Rects)], before.Rects) || !slices.Equal(after.Blocks[:len(before.Blocks)], before.Blocks) {
		t.Fatal("an add rewrote a slot of the pack")
	}
	if tr.TailLen() != more || tr.Height() != bulkThenInsert(data, base, Options{}).Height() {
		t.Fatalf("tail of %d points, height %d", tr.TailLen(), tr.Height())
	}
	if msg := tr.CheckInvariants(data); msg != "" {
		t.Fatalf("invariant violated: %s", msg)
	}
}

func BenchmarkWindow(b *testing.B) {
	data := randomMatrix(100_000, 10, 1)
	tr := Pack(data, Options{})
	w := WindowRect(make([]float32, 10), 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Count(w)
	}
}
