package mtree

import (
	"math/rand"
	"sort"
	"testing"

	"dblsh/internal/vec"
)

func randomMatrix(n, d int, seed int64) *vec.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := vec.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			m.Row(i)[j] = float32(rng.NormFloat64() * 5)
		}
	}
	return m
}

// nearestK returns the ids of the k nearest points to q, nearest first.
func nearestK(t *Tree, q []float32, k int) []int {
	out := make([]int, 0, k)
	t.NearestVisit(q, func(id int, _ float64) bool {
		out = append(out, id)
		return len(out) < k
	})
	return out
}

// CheckInvariants validates that every leaf point is inside its ancestors'
// balls and returns a description of the first violation, or "".
func (t *Tree) CheckInvariants() string {
	if t.root == nil {
		if t.size != 0 {
			return "nil root with nonzero size"
		}
		return ""
	}
	count := 0
	var walk func(b *ball, ancestors []*ball) string
	walk = func(b *ball, ancestors []*ball) string {
		anc := append(ancestors, b)
		if b.ids != nil {
			count += len(b.ids)
			for _, id := range b.ids {
				p := t.data.Row(int(id))
				for _, a := range anc {
					if vec.Dist(p, a.center) > a.radius+1e-4 {
						return "point escapes ancestor ball"
					}
				}
			}
			return ""
		}
		if b.left == nil || b.right == nil {
			return "internal ball missing a child"
		}
		if msg := walk(b.left, anc); msg != "" {
			return msg
		}
		return walk(b.right, anc)
	}
	if msg := walk(t.root, nil); msg != "" {
		return msg
	}
	if count != t.size {
		return "size mismatch"
	}
	return ""
}

func TestEmpty(t *testing.T) {
	tr := Build(vec.NewMatrix(0, 3))
	if tr.Size() != 0 {
		t.Fatalf("Size = %d", tr.Size())
	}
	if ids := nearestK(tr, []float32{0, 0, 0}, 3); len(ids) != 0 {
		t.Fatalf("nearestK = %v", ids)
	}
	if msg := tr.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

func TestSinglePoint(t *testing.T) {
	data := vec.NewMatrix(1, 2)
	data.SetRow(0, []float32{1, 2})
	tr := Build(data)
	if ids := nearestK(tr, []float32{0, 0}, 5); len(ids) != 1 || ids[0] != 0 {
		t.Fatalf("nearestK = %v", ids)
	}
}

func TestInvariants(t *testing.T) {
	for _, n := range []int{1, 10, 100, 5000} {
		tr := Build(randomMatrix(n, 4, int64(n)))
		if msg := tr.CheckInvariants(); msg != "" {
			t.Fatalf("n=%d: %s", n, msg)
		}
	}
}

func TestNearestKMatchesBruteForce(t *testing.T) {
	data := randomMatrix(3000, 5, 11)
	tr := Build(data)
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 25; trial++ {
		q := make([]float32, 5)
		for i := range q {
			q[i] = float32(rng.NormFloat64() * 5)
		}
		k := 1 + rng.Intn(25)
		got := nearestK(tr, q, k)
		type pair struct {
			id int
			d  float64
		}
		all := make([]pair, data.Rows())
		for i := range all {
			all[i] = pair{i, vec.Dist(q, data.Row(i))}
		}
		sort.Slice(all, func(a, b int) bool { return all[a].d < all[b].d })
		if len(got) != k {
			t.Fatalf("got %d ids, want %d", len(got), k)
		}
		for i := 0; i < k; i++ {
			if gd := vec.Dist(q, data.Row(got[i])); gd != all[i].d {
				t.Fatalf("trial %d rank %d: dist %v, want %v", trial, i, gd, all[i].d)
			}
		}
	}
}

func TestNearestVisitOrdered(t *testing.T) {
	data := randomMatrix(1000, 3, 7)
	tr := Build(data)
	prev := -1.0
	visited := 0
	tr.NearestVisit([]float32{0, 0, 0}, func(id int, dist float64) bool {
		if dist < prev {
			t.Fatalf("out of order: %v after %v", dist, prev)
		}
		prev = dist
		visited++
		return true
	})
	if visited != 1000 {
		t.Fatalf("visited %d", visited)
	}
}

func TestNearestVisitEarlyStop(t *testing.T) {
	data := randomMatrix(1000, 3, 7)
	tr := Build(data)
	visited := 0
	tr.NearestVisit([]float32{0, 0, 0}, func(int, float64) bool {
		visited++
		return visited < 7
	})
	if visited != 7 {
		t.Fatalf("visited %d", visited)
	}
}

func TestRangeSearchMatchesBruteForce(t *testing.T) {
	data := randomMatrix(2000, 4, 13)
	tr := Build(data)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		q := make([]float32, 4)
		for i := range q {
			q[i] = float32(rng.NormFloat64() * 5)
		}
		r := 2 + rng.Float64()*6
		var got []int
		tr.NearestVisit(q, func(id int, dist float64) bool {
			if dist > r {
				return false
			}
			got = append(got, id)
			return true
		})
		var want []int
		for i := 0; i < data.Rows(); i++ {
			if vec.Dist(q, data.Row(i)) <= r {
				want = append(want, i)
			}
		}
		sort.Ints(got)
		sort.Ints(want)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: mismatch at %d", trial, i)
			}
		}
	}
}

func TestDuplicatePoints(t *testing.T) {
	data := vec.NewMatrix(200, 2)
	for i := 0; i < 200; i++ {
		data.SetRow(i, []float32{3, 4})
	}
	tr := Build(data)
	if msg := tr.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
	if got := nearestK(tr, []float32{0, 0}, 200); len(got) != 200 {
		t.Fatalf("got %d ids", len(got))
	}
}

func BenchmarkBuild100k(b *testing.B) {
	data := randomMatrix(100_000, 15, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Build(data)
	}
}

func BenchmarkNearest100(b *testing.B) {
	data := randomMatrix(100_000, 15, 1)
	tr := Build(data)
	q := make([]float32, 15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = nearestK(tr, q, 100)
	}
}
