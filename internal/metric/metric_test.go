package metric

import (
	"math"
	"math/rand"
	"testing"

	"dblsh/internal/vec"
)

func TestParseKind(t *testing.T) {
	cases := []struct {
		in   string
		want Kind
		err  bool
	}{
		{"euclidean", Euclidean, false},
		{"l2", Euclidean, false},
		{"", Euclidean, false},
		{"cosine", Cosine, false},
		{"angular", Cosine, false},
		{"ip", InnerProduct, false},
		{"dot", InnerProduct, false},
		{"inner_product", InnerProduct, false},
		{"manhattan", Euclidean, true},
	}
	for _, c := range cases {
		got, err := ParseKind(c.in)
		if (err != nil) != c.err {
			t.Fatalf("ParseKind(%q) err = %v, want err=%v", c.in, err, c.err)
		}
		if err == nil && got != c.want {
			t.Fatalf("ParseKind(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestKindStringRoundTrip(t *testing.T) {
	for k := Kind(0); k.Valid(); k++ {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
}

func TestEuclideanIdentity(t *testing.T) {
	m, err := New(Euclidean, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := []float32{1, -2, 3}
	if got := m.TransformPoint(nil, p); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("TransformPoint = %v", got)
	}
	if d := m.DistMapper(p)(7.5); d != 7.5 {
		t.Fatalf("DistMapper = %v, want 7.5", d)
	}
	if m.InternalDim(5) != 5 || m.UserDim(5) != 5 {
		t.Fatal("Euclidean must not change dimensionality")
	}
}

// TestCosineAgreesWithExplicit checks the whole reduction: the internal L2
// distance between transformed vectors maps back to 1−cos θ.
func TestCosineAgreesWithExplicit(t *testing.T) {
	m, err := New(Cosine, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		d := 1 + rng.Intn(48)
		p, q := make([]float32, d), make([]float32, d)
		for i := range p {
			p[i] = float32(rng.NormFloat64() * 3)
			q[i] = float32(rng.NormFloat64() * 3)
		}
		if vec.Norm(p) == 0 || vec.Norm(q) == 0 {
			continue
		}
		tp := m.TransformPoint(nil, p)
		tq := m.TransformQuery(nil, q)
		got := m.DistMapper(q)(vec.Dist(tq, tp))
		want := 1 - vec.Dot(p, q)/(vec.Norm(p)*vec.Norm(q))
		if math.Abs(got-want) > 1e-5 {
			t.Fatalf("trial %d: cosine distance = %v, want %v", trial, got, want)
		}
	}
}

func TestCosineRejectsZero(t *testing.T) {
	m, _ := New(Cosine, 0)
	if err := m.CheckPoint([]float32{0, 0, 0}); err == nil {
		t.Fatal("CheckPoint should reject the zero vector under cosine")
	}
	if err := m.CheckPoint([]float32{0, 1}); err != nil {
		t.Fatalf("CheckPoint rejected a unit direction: %v", err)
	}
}

func TestCosineInternalRadius(t *testing.T) {
	m, _ := New(Cosine, 0)
	r, err := m.InternalRadius(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-1) > 1e-12 { // √(2·0.5) = 1
		t.Fatalf("InternalRadius(0.5) = %v, want 1", r)
	}
	if _, err := m.InternalRadius(3); err == nil {
		t.Fatal("cosine radius above 2 should be rejected")
	}
}

// TestInnerProductRecoversDot checks the MIPS reduction end to end: the
// internal L2 distance between the augmented vectors maps back to −⟨q,p⟩.
func TestInnerProductRecoversDot(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		d := 1 + rng.Intn(48)
		n := 1 + rng.Intn(20)
		flat := make([]float32, n*d)
		for i := range flat {
			flat[i] = float32(rng.NormFloat64() * 2)
		}
		bound := FitNormBound(flat, n, d)
		m, err := New(InnerProduct, bound)
		if err != nil {
			t.Fatal(err)
		}
		q := make([]float32, d)
		for i := range q {
			q[i] = float32(rng.NormFloat64() * 2)
		}
		tq := m.TransformQuery(nil, q)
		if len(tq) != d+1 {
			t.Fatalf("query dim %d, want %d", len(tq), d+1)
		}
		for i := 0; i < n; i++ {
			p := flat[i*d : (i+1)*d]
			if err := m.CheckPoint(p); err != nil {
				t.Fatalf("CheckPoint rejected an in-bound point: %v", err)
			}
			tp := m.TransformPoint(nil, p)
			if math.Abs(vec.Norm(tp)-1) > 1e-5 {
				t.Fatalf("augmented point norm = %v, want 1", vec.Norm(tp))
			}
			got := m.DistMapper(q)(vec.Dist(tq, tp))
			want := -vec.Dot(q, p)
			if math.Abs(got-want) > 1e-3*(1+math.Abs(want)) {
				t.Fatalf("trial %d point %d: UserDist = %v, want %v", trial, i, got, want)
			}
		}
	}
}

func TestInnerProductCheckPoint(t *testing.T) {
	m, err := New(InnerProduct, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CheckPoint([]float32{3, 4}); err != nil { // norm 5 == bound
		t.Fatalf("boundary-norm point rejected: %v", err)
	}
	if err := m.CheckPoint([]float32{6, 0}); err == nil {
		t.Fatal("point above the norm bound should be rejected")
	}
	if _, err := m.InternalRadius(1); err == nil {
		t.Fatal("inner product must reject radius queries")
	}
}

func TestInnerProductZeroQuery(t *testing.T) {
	m, _ := New(InnerProduct, 2)
	q := []float32{0, 0}
	tq := m.TransformQuery(nil, q)
	tp := m.TransformPoint(nil, []float32{1, 1})
	if got := m.DistMapper(q)(vec.Dist(tq, tp)); got != 0 {
		t.Fatalf("zero query UserDist = %v, want 0", got)
	}
}

func TestFitNormBound(t *testing.T) {
	flat := []float32{3, 4, 0, 1, 0, 0}
	if b := FitNormBound(flat, 3, 2); b != 5 {
		t.Fatalf("FitNormBound = %v, want 5", b)
	}
	if b := FitNormBound(nil, 0, 2); b != 1 {
		t.Fatalf("empty FitNormBound = %v, want 1", b)
	}
	if b := FitNormBound(make([]float32, 4), 2, 2); b != 1 {
		t.Fatalf("all-zero FitNormBound = %v, want 1", b)
	}
}

func TestNewRejectsBadBound(t *testing.T) {
	if _, err := New(InnerProduct, 0); err == nil {
		t.Fatal("New should reject a zero norm bound for inner product")
	}
	if _, err := New(Kind(99), 0); err == nil {
		t.Fatal("New should reject an unknown kind")
	}
}
