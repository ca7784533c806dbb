package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dblsh/internal/vec"
)

// quickCfg pins quick.Check's input generator — the default is time-seeded,
// which makes failures unreproducible across runs.
func quickCfg(maxCount int) *quick.Config {
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(1))}
}

// buildRandom builds a small index over uniformly random points derived from
// a property-test seed.
func buildRandom(seed int64, n, d int) (*Index, *vec.Matrix, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	data := vec.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			data.Row(i)[j] = float32(rng.NormFloat64() * 5)
		}
	}
	idx := Build(data, Config{C: 1.5, K: 4, L: 2, T: 20, Seed: seed})
	return idx, data, rng
}

// Property: KANN results are sorted, deduplicated, carry true distances, and
// never exceed min(k, n) entries — for any seed, any k, any query.
func TestKANNContractProperty(t *testing.T) {
	f := func(seed int64, kRaw, qRaw uint8) bool {
		n := 120
		d := 6
		idx, data, rng := buildRandom(seed, n, d)
		_ = qRaw
		k := 1 + int(kRaw)%30
		q := make([]float32, d)
		for j := range q {
			q[j] = float32(rng.NormFloat64() * 5)
		}
		res := idx.KANN(q, k)
		if len(res) > k || len(res) > n || len(res) == 0 {
			return false
		}
		seen := make(map[int]bool, len(res))
		prev := -1.0
		for _, nb := range res {
			if nb.ID < 0 || nb.ID >= n || seen[nb.ID] {
				return false
			}
			seen[nb.ID] = true
			if nb.Dist < prev {
				return false
			}
			prev = nb.Dist
			if vec.Dist(q, data.Row(nb.ID)) != nb.Dist {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(30)); err != nil {
		t.Fatal(err)
	}
}

// Property: with the budget covering the whole dataset, KANN returns k
// results that are per-rank c²-approximate against exact k-NN for any random
// instance. Exact equality does NOT hold universally — the ladder may
// terminate on the c·r test with an unverified closer point — so asserting
// it would make the suite flaky on inputs no code change touched; the c²
// bound is the contract Theorem 1 actually gives.
func TestKANNApproxWhenBudgetCoversAll(t *testing.T) {
	f := func(seed int64) bool {
		n := 80
		d := 5
		idx, data, rng := buildRandom(seed, n, d)
		q := make([]float32, d)
		for j := range q {
			q[j] = float32(rng.NormFloat64() * 5)
		}
		k := 10
		res := idx.KANN(q, k)

		tk := vec.NewTopK(k)
		for i := 0; i < n; i++ {
			tk.Push(i, vec.Dist(q, data.Row(i)))
		}
		want := tk.Results()
		if len(res) != len(want) {
			return false
		}
		c2 := idx.cfg.C * idx.cfg.C
		for i := range res {
			if res[i].Dist > c2*want[i].Dist+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(30)); err != nil {
		t.Fatal(err)
	}
}

// Property: RNear honors Definition 2's structure — whenever it returns a
// point without exhausting its budget, that point is within c·r.
func TestRNearContractProperty(t *testing.T) {
	f := func(seed int64, rRaw uint8) bool {
		n := 100
		d := 5
		idx, _, rng := buildRandom(seed, n, d)
		q := make([]float32, d)
		for j := range q {
			q[j] = float32(rng.NormFloat64() * 5)
		}
		r := 0.5 + float64(rRaw)/16
		s := idx.NewSearcher()
		nb, ok := rnear(s, q, r)
		if !ok {
			return true
		}
		budget := 2*idx.cfg.T*idx.cfg.L + 1
		if s.LastStats().Candidates >= budget {
			return true // budget-exhaustion return may exceed c·r by contract
		}
		return nb.Dist <= idx.cfg.C*r+1e-9
	}
	if err := quick.Check(f, quickCfg(40)); err != nil {
		t.Fatal(err)
	}
}

// Property: inserting points never makes previous points unreachable.
func TestInsertPreservesReachabilityProperty(t *testing.T) {
	f := func(seed int64) bool {
		idx, data, rng := buildRandom(seed, 60, 4)
		for i := 0; i < 40; i++ {
			p := make([]float32, 4)
			for j := range p {
				p[j] = float32(rng.NormFloat64() * 5)
			}
			idx.Insert(p)
		}
		// Every original point remains its own nearest neighbor.
		for i := 0; i < 5; i++ {
			res := idx.KANN(data.Row(i), 1)
			if len(res) != 1 || res[0].Dist != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(20)); err != nil {
		t.Fatal(err)
	}
}

// Property: deleting a random subset removes exactly that subset from
// results, regardless of order.
func TestDeleteProperty(t *testing.T) {
	f := func(seed int64, mask uint16) bool {
		idx, data, _ := buildRandom(seed, 40, 4)
		deleted := make(map[int]bool)
		for b := 0; b < 16; b++ {
			if mask&(1<<uint(b)) != 0 {
				idx.Delete(b)
				deleted[b] = true
			}
		}
		res := idx.KANN(data.Row(0), 40)
		for _, nb := range res {
			if deleted[nb.ID] {
				return false
			}
		}
		return len(res) == 40-len(deleted)
	}
	if err := quick.Check(f, quickCfg(30)); err != nil {
		t.Fatal(err)
	}
}
