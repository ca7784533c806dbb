package lsh

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"dblsh/internal/mathx"
	"dblsh/internal/vec"
)

func TestProjectionLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := NewProjection(8, rng)
	a := make([]float32, 8)
	b := make([]float32, 8)
	for i := range a {
		a[i] = float32(rng.NormFloat64())
		b[i] = float32(rng.NormFloat64())
	}
	sum := make([]float32, 8)
	for i := range sum {
		sum[i] = a[i] + b[i]
	}
	if got, want := p.Hash(sum), p.Hash(a)+p.Hash(b); math.Abs(got-want) > 1e-4 {
		t.Fatalf("projection not linear: %v vs %v", got, want)
	}
}

func TestProjectionDeterministicBySeed(t *testing.T) {
	p1 := NewProjection(16, rand.New(rand.NewSource(99)))
	p2 := NewProjection(16, rand.New(rand.NewSource(99)))
	x := []float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	if p1.Hash(x) != p2.Hash(x) {
		t.Fatal("same seed must give same projection")
	}
}

func TestBucketedFloor(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := NewBucketed(4, 4, rng)
	// The bucket of o and of o shifted by exactly w along the projection
	// direction differ by 1 — check via two points whose projections differ.
	o := []float32{1, 0, 0, 0}
	b1 := h.Hash(o)
	// A point far away should usually land in a different bucket; at minimum
	// the function must be deterministic.
	if h.Hash(o) != b1 {
		t.Fatal("Bucketed.Hash must be deterministic")
	}
}

func TestBucketedNegativeFloor(t *testing.T) {
	// Construct a Bucketed by hand to verify floor semantics for negatives.
	h := Bucketed{proj: Projection{a: []float32{1}}, b: 0, w: 1}
	if got := h.Hash([]float32{-0.5}); got != -1 {
		t.Fatalf("floor(-0.5) bucket = %d, want -1", got)
	}
	if got := h.Hash([]float32{0.5}); got != 0 {
		t.Fatalf("floor(0.5) bucket = %d, want 0", got)
	}
	if got := h.Hash([]float32{-1}); got != -1 {
		t.Fatalf("floor(-1.0) bucket = %d, want -1", got)
	}
}

func TestCompoundHashShape(t *testing.T) {
	g := NewCompound(6, 10, rand.New(rand.NewSource(5)))
	o := make([]float32, 10)
	for i := range o {
		o[i] = float32(i)
	}
	hv := g.Hash(nil, o)
	if len(hv) != 6 {
		t.Fatalf("hash length = %d, want 6", len(hv))
	}
}

func TestCompoundProjectMatchesHash(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := NewCompound(4, 8, rng)
	data := vec.NewMatrix(20, 8)
	for i := 0; i < 20; i++ {
		for j := 0; j < 8; j++ {
			data.Row(i)[j] = float32(rng.NormFloat64())
		}
	}
	proj := g.Project(data)
	if proj.Rows() != 20 || proj.Dim() != 4 {
		t.Fatalf("projected shape %d×%d", proj.Rows(), proj.Dim())
	}
	for i := 0; i < 20; i++ {
		want := g.Hash(nil, data.Row(i))
		got := proj.Row(i)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("row %d mismatch: %v vs %v", i, got, want)
			}
		}
	}
}

func TestFamilyIndependence(t *testing.T) {
	f := NewFamily(3, 2, 4, 11)
	o := []float32{1, 2, 3, 4}
	h0 := f.Compound(0).Hash(nil, o)
	h1 := f.Compound(1).Hash(nil, o)
	same := true
	for i := range h0 {
		if h0[i] != h1[i] {
			same = false
		}
	}
	if same {
		t.Fatal("independent compounds produced identical hashes")
	}
	if f.L() != 3 || f.K() != 2 || f.Dim() != 4 {
		t.Fatalf("family shape L=%d K=%d d=%d", f.L(), f.K(), f.Dim())
	}
}

func TestFamilyReproducible(t *testing.T) {
	f1 := NewFamily(2, 3, 5, 1234)
	f2 := NewFamily(2, 3, 5, 1234)
	o := []float32{0.1, -0.2, 0.3, -0.4, 0.5}
	for i := 0; i < 2; i++ {
		a := f1.Compound(i).Hash(nil, o)
		b := f2.Compound(i).Hash(nil, o)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("compound %d differs between identically seeded families", i)
			}
		}
	}
}

// TestFamilyHashIsEachCompound pins the one-matrix family to what L
// separately drawn compounds were: the same projection vectors (L calls of
// NewCompound on one rng), and under every kernel row a Hash whose K·L
// outputs narrow to each Compound(i).Hash and to the per-row Dot of the
// K-loop it replaced, bit for bit.
func TestFamilyHashIsEachCompound(t *testing.T) {
	const l, k, d, seed = 5, 10, 37, 99
	f := NewFamily(l, k, d, seed)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < l; i++ {
		if want := NewCompound(k, d, rng); !slices.Equal(f.Compound(i).a, want.a) {
			t.Fatalf("compound %d: family drew other projection vectors", i)
		}
	}
	o := make([]float32, d)
	for i := range o {
		o[i] = float32(rng.NormFloat64())
	}
	defer vec.SetKernel(vec.KernelName())
	for _, name := range vec.KernelNames() {
		if err := vec.SetKernel(name); err != nil {
			t.Fatal(err)
		}
		out := make([]float64, l*k)
		f.Hash(out, o)
		for i := 0; i < l; i++ {
			g := f.Compound(i)
			h := g.Hash(nil, o)
			for j := 0; j < k; j++ {
				fam, old := math.Float32bits(float32(out[i*k+j])), math.Float32bits(float32(vec.Dot(g.a[j*d:(j+1)*d], o)))
				if fam != math.Float32bits(h[j]) || fam != old {
					t.Fatalf("%s: compound %d coordinate %d: family %v, compound %v, per-row Dot %v",
						name, i, j, out[i*k+j], h[j], math.Float32frombits(old))
				}
			}
		}
	}
}

func TestFamilyHashRejectsShape(t *testing.T) {
	f := NewFamily(2, 3, 4, 1)
	for _, c := range []struct{ out, dim int }{{6, 3}, {5, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Hash of a dim-%d point into %d outputs did not panic", c.dim, c.out)
				}
			}()
			f.Hash(make([]float64, c.out), make([]float32, c.dim))
		}()
	}
}

// TestDistancePreservation is the statistical heart of LSH: for a 2-stable
// projection, (h(o1)-h(o2)) ~ N(0, ‖o1,o2‖²), so the empirical collision
// rate over many projections must track CollisionProbDynamic.
func TestDistancePreservation(t *testing.T) {
	const (
		d      = 32
		trials = 4000
		w      = 4.0
	)
	rng := rand.New(rand.NewSource(21))
	for _, tau := range []float64{0.5, 1, 2, 4} {
		o1 := make([]float32, d)
		o2 := make([]float32, d)
		for i := range o1 {
			o1[i] = float32(rng.NormFloat64())
		}
		copy(o2, o1)
		// Displace o2 by tau along a random unit direction.
		dir := make([]float32, d)
		var norm float64
		for i := range dir {
			dir[i] = float32(rng.NormFloat64())
			norm += float64(dir[i]) * float64(dir[i])
		}
		norm = math.Sqrt(norm)
		for i := range dir {
			o2[i] += float32(tau * float64(dir[i]) / norm)
		}

		collisions := 0
		for trial := 0; trial < trials; trial++ {
			p := NewProjection(d, rng)
			if math.Abs(p.Hash(o1)-p.Hash(o2)) <= w/2 {
				collisions++
			}
		}
		got := float64(collisions) / trials
		want := mathx.CollisionProbDynamic(tau, w)
		if math.Abs(got-want) > 0.03 {
			t.Errorf("τ=%v: empirical collision rate %.3f, theory %.3f", tau, got, want)
		}
	}
}

func TestCompoundPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for K=0")
		}
	}()
	NewCompound(0, 4, rand.New(rand.NewSource(1)))
}

func TestCompoundHashDimPanic(t *testing.T) {
	g := NewCompound(2, 4, rand.New(rand.NewSource(1)))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong dim")
		}
	}()
	g.Hash(nil, []float32{1, 2})
}

func BenchmarkCompoundHashK12D128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := NewCompound(12, 128, rng)
	o := make([]float32, 128)
	for i := range o {
		o[i] = float32(rng.NormFloat64())
	}
	buf := make([]float32, 0, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = g.Hash(buf[:0], o)
	}
}

// BenchmarkFamilyHashK10L5D960 is one point hashed into the default K×L =
// 10×5 spaces at the overlap-960 workload's dimension: what Build pays per
// row and a query per search.
func BenchmarkFamilyHashK10L5D960(b *testing.B) {
	const l, k, d = 5, 10, 960
	f := NewFamily(l, k, d, 1)
	rng := rand.New(rand.NewSource(1))
	o := make([]float32, d)
	for i := range o {
		o[i] = float32(rng.NormFloat64())
	}
	out := make([]float64, l*k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Hash(out, o)
	}
}
