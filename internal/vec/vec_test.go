package vec

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{4, 5, 6}
	if got := Dot(a, b); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestDotZeroVector(t *testing.T) {
	a := []float32{0, 0, 0, 0}
	b := []float32{1, -2, 3, -4}
	if got := Dot(a, b); got != 0 {
		t.Fatalf("Dot with zero vector = %v, want 0", got)
	}
}

func TestDist(t *testing.T) {
	a := []float32{0, 0}
	b := []float32{3, 4}
	if got := Dist(a, b); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Dist = %v, want 5", got)
	}
}

func TestSquaredDistSymmetry(t *testing.T) {
	f := func(raw []byte) bool {
		if len(raw) < 8 {
			return true
		}
		n := len(raw) / 2
		a := make([]float32, n)
		b := make([]float32, n)
		for i := 0; i < n; i++ {
			a[i] = float32(int8(raw[i])) / 16
			b[i] = float32(int8(raw[n+i])) / 16
		}
		return SquaredDist(a, b) == SquaredDist(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		d := 1 + rng.Intn(32)
		a, b, c := make([]float32, d), make([]float32, d), make([]float32, d)
		for i := 0; i < d; i++ {
			a[i] = float32(rng.NormFloat64())
			b[i] = float32(rng.NormFloat64())
			c[i] = float32(rng.NormFloat64())
		}
		ab, bc, ac := Dist(a, b), Dist(b, c), Dist(a, c)
		// Component differences round in float32 (relative ~2⁻²⁴), so a
		// nearly-collinear triple can overshoot by that relative error.
		if ac > (ab+bc)*(1+1e-6) {
			t.Fatalf("triangle inequality violated: %v > %v + %v", ac, ab, bc)
		}
	}
}

func TestNorm(t *testing.T) {
	if got := Norm([]float32{3, 4}); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Norm = %v, want 5", got)
	}
	if got := Norm(nil); got != 0 {
		t.Fatalf("Norm(nil) = %v, want 0", got)
	}
}

func TestScaleAdd(t *testing.T) {
	a := []float32{1, 2}
	Scale(a, 3)
	if a[0] != 3 || a[1] != 6 {
		t.Fatalf("Scale result %v", a)
	}
	Add(a, []float32{1, 1})
	if a[0] != 4 || a[1] != 7 {
		t.Fatalf("Add result %v", a)
	}
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(3, 2)
	m.SetRow(0, []float32{1, 2})
	m.SetRow(2, []float32{5, 6})
	if m.Rows() != 3 || m.Dim() != 2 {
		t.Fatalf("shape = %d×%d", m.Rows(), m.Dim())
	}
	if r := m.Row(2); r[0] != 5 || r[1] != 6 {
		t.Fatalf("Row(2) = %v", r)
	}
	if r := m.Row(1); r[0] != 0 || r[1] != 0 {
		t.Fatalf("Row(1) should be zero, got %v", r)
	}
}

func TestMatrixAppendClone(t *testing.T) {
	m := NewMatrix(0, 3)
	id := m.Append([]float32{1, 2, 3})
	if id != 0 || m.Rows() != 1 {
		t.Fatalf("Append id=%d rows=%d", id, m.Rows())
	}
	c := m.Clone()
	c.Row(0)[0] = 99
	if m.Row(0)[0] == 99 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestMatrixSlice(t *testing.T) {
	m := NewMatrix(4, 1)
	for i := 0; i < 4; i++ {
		m.SetRow(i, []float32{float32(i)})
	}
	s := m.Slice(1, 3)
	if s.Rows() != 2 || s.Row(0)[0] != 1 || s.Row(1)[0] != 2 {
		t.Fatalf("Slice rows=%d first=%v", s.Rows(), s.Row(0))
	}
	// Views share storage.
	s.Row(0)[0] = 42
	if m.Row(1)[0] != 42 {
		t.Fatal("Slice should alias parent storage")
	}
}

// TestMatrixCloneIndependence pins the aliasing contract: a Clone owns its
// storage, so growth and writes on the parent — including Appends that
// reuse spare capacity in the parent's backing array — never reach it.
func TestMatrixCloneIndependence(t *testing.T) {
	m := NewMatrix(0, 2)
	for i := 0; i < 8; i++ {
		m.Append([]float32{float32(i), float32(i)})
	}
	c := m.Clone()
	for i := 0; i < 64; i++ {
		m.Append([]float32{99, 99})
		m.Row(0)[0] = 77
		if c.Rows() != 8 {
			t.Fatalf("clone grew to %d rows", c.Rows())
		}
		if c.Row(0)[0] != 0 || c.Row(7)[0] != 7 {
			t.Fatalf("Append/write after Clone mutated the clone: %v %v", c.Row(0), c.Row(7))
		}
		m.Row(0)[0] = 0
	}
}

// TestMatrixSliceAppendDoesNotClobberParent pins the capacity clip on Slice
// views: appending to a view must reallocate, not overwrite the parent's
// rows beyond the view.
func TestMatrixSliceAppendDoesNotClobberParent(t *testing.T) {
	m := NewMatrix(4, 1)
	for i := 0; i < 4; i++ {
		m.SetRow(i, []float32{float32(i)})
	}
	v := m.Slice(0, 2)
	v.Append([]float32{42})
	if m.Row(2)[0] != 2 {
		t.Fatalf("Append on a Slice view overwrote the parent: row 2 = %v", m.Row(2))
	}
	if v.Rows() != 3 || v.Row(2)[0] != 42 {
		t.Fatalf("view after Append: rows=%d last=%v", v.Rows(), v.Row(v.Rows()-1))
	}
}

func TestMatrixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dim mismatch")
		}
	}()
	m := NewMatrix(1, 2)
	m.SetRow(0, []float32{1})
}

func TestWrapMatrix(t *testing.T) {
	data := []float32{1, 2, 3, 4, 5, 6}
	m := WrapMatrix(data, 2, 3)
	if m.Row(1)[2] != 6 {
		t.Fatalf("WrapMatrix Row(1) = %v", m.Row(1))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on size mismatch")
		}
	}()
	WrapMatrix(data, 2, 2)
}

func TestTopKBasic(t *testing.T) {
	tk := NewTopK(3)
	for i, d := range []float64{5, 1, 4, 2, 3} {
		tk.Push(i, d)
	}
	res := tk.Results()
	if len(res) != 3 {
		t.Fatalf("len = %d, want 3", len(res))
	}
	want := []float64{1, 2, 3}
	for i, n := range res {
		if n.Dist != want[i] {
			t.Fatalf("res[%d].Dist = %v, want %v", i, n.Dist, want[i])
		}
	}
}

func TestTopKFewerThanK(t *testing.T) {
	tk := NewTopK(10)
	tk.Push(1, 2.0)
	tk.Push(2, 1.0)
	if _, ok := tk.Worst(); ok {
		t.Fatal("Worst should report not-ok when under capacity")
	}
	res := tk.Results()
	if len(res) != 2 || res[0].ID != 2 {
		t.Fatalf("results = %v", res)
	}
}

func TestTopKRejectsWorse(t *testing.T) {
	tk := NewTopK(2)
	tk.Push(0, 1)
	tk.Push(1, 2)
	if tk.Push(2, 3) {
		t.Fatal("should reject distance worse than current worst")
	}
	if !tk.Push(3, 0.5) {
		t.Fatal("should accept distance better than current worst")
	}
	if w, ok := tk.Worst(); !ok || w != 1 {
		t.Fatalf("Worst = %v, %v", w, ok)
	}
}

// TestTopKMatchesSort cross-checks the heap against a full sort on random
// input — the core invariant of the candidate verification path.
func TestTopKMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(200)
		k := 1 + rng.Intn(20)
		dists := make([]float64, n)
		tk := NewTopK(k)
		for i := range dists {
			dists[i] = rng.Float64()
			tk.Push(i, dists[i])
		}
		sorted := append([]float64(nil), dists...)
		sort.Float64s(sorted)
		res := tk.Results()
		wantLen := k
		if n < k {
			wantLen = n
		}
		if len(res) != wantLen {
			t.Fatalf("len = %d, want %d", len(res), wantLen)
		}
		for i, nb := range res {
			if nb.Dist != sorted[i] {
				t.Fatalf("trial %d: res[%d] = %v, want %v", trial, i, nb.Dist, sorted[i])
			}
		}
	}
}

func TestTopKPanicsOnZeroK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k=0")
		}
	}()
	NewTopK(0)
}

func BenchmarkSquaredDist128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float32, 128)
	y := make([]float32, 128)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
		y[i] = float32(rng.NormFloat64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = SquaredDist(x, y)
	}
}
