package core

import (
	"math/rand"
	"testing"

	"dblsh/internal/dataset"
	"dblsh/internal/eval"
	"dblsh/internal/vec"
)

func testDataset(n, d int, seed int64) *dataset.Dataset {
	return dataset.Generate(dataset.Profile{
		Name: "t", N: n, Dim: d, Queries: 20, Clusters: 8, Std: 1, Spread: 10, Seed: seed,
	})
}

func TestBuildShapes(t *testing.T) {
	ds := testDataset(2000, 32, 1)
	idx := Build(ds.Data, Config{C: 1.5, K: 8, L: 4, T: 20, Seed: 1})
	if idx.Size() != 2000 || idx.Dim() != 32 {
		t.Fatalf("size=%d dim=%d", idx.Size(), idx.Dim())
	}
	p := idx.Params()
	if p.K != 8 || p.L != 4 {
		t.Fatalf("params %+v", p)
	}
	if p.W0 != 4*1.5*1.5 {
		t.Fatalf("default W0 = %v", p.W0)
	}
	if idx.InitialRadius() <= 0 {
		t.Fatalf("r0 = %v", idx.InitialRadius())
	}
	if idx.IndexSizeBytes() <= 0 {
		t.Fatal("IndexSizeBytes must be positive")
	}
}

func TestDerivedParams(t *testing.T) {
	ds := testDataset(5000, 16, 2)
	idx := Build(ds.Data, Config{Seed: 2})
	p := idx.Params()
	if p.K < 1 || p.L < 1 {
		t.Fatalf("derived params %+v", p)
	}
}

func TestEmptyIndex(t *testing.T) {
	idx := Build(vec.NewMatrix(0, 8), Config{K: 4, L: 2, Seed: 1})
	if res := idx.KANN(make([]float32, 8), 5); len(res) != 0 {
		t.Fatalf("KANN on empty index = %v", res)
	}
}

func TestKANNRecallOnClusteredData(t *testing.T) {
	ds := testDataset(10_000, 64, 3)
	idx := Build(ds.Data, Config{C: 1.5, K: 10, L: 5, T: 100, Seed: 3})
	truth := dataset.GroundTruth(ds.Data, ds.Queries, 10)

	s := idx.NewSearcher()
	var recall, ratio float64
	for qi := 0; qi < ds.Queries.Rows(); qi++ {
		res := s.KANN(ds.Queries.Row(qi), 10)
		if len(res) == 0 {
			t.Fatalf("query %d: empty result", qi)
		}
		recall += eval.Recall(res, truth[qi])
		ratio += eval.OverallRatio(res, truth[qi])
	}
	recall /= float64(ds.Queries.Rows())
	ratio /= float64(ds.Queries.Rows())
	if recall < 0.8 {
		t.Fatalf("recall = %v, want ≥ 0.8", recall)
	}
	if ratio > 1.05 {
		t.Fatalf("overall ratio = %v, want ≤ 1.05", ratio)
	}
}

func TestANNApproximationGuarantee(t *testing.T) {
	// Theorem 1: the returned point is a c²-ANN with constant probability.
	// Over many queries the failure rate must be far below the 1/2+1/e bound
	// (in practice almost all queries succeed).
	ds := testDataset(5000, 32, 4)
	c := 1.5
	idx := Build(ds.Data, Config{C: c, K: 10, L: 5, T: 50, Seed: 4})
	truth := dataset.GroundTruth(ds.Data, ds.Queries, 1)
	s := idx.NewSearcher()
	fails := 0
	for qi := 0; qi < ds.Queries.Rows(); qi++ {
		res := s.KANN(ds.Queries.Row(qi), 1)
		if len(res) == 0 {
			fails++
			continue
		}
		if res[0].Dist > c*c*truth[qi][0].Dist+1e-9 {
			fails++
		}
	}
	if fails > ds.Queries.Rows()/4 {
		t.Fatalf("%d/%d queries broke the c² guarantee", fails, ds.Queries.Rows())
	}
}

func TestKANNResultsSortedUnique(t *testing.T) {
	ds := testDataset(3000, 16, 5)
	idx := Build(ds.Data, Config{C: 1.5, K: 8, L: 4, T: 30, Seed: 5})
	s := idx.NewSearcher()
	for qi := 0; qi < 5; qi++ {
		res := s.KANN(ds.Queries.Row(qi), 20)
		seen := map[int]bool{}
		prev := -1.0
		for _, nb := range res {
			if seen[nb.ID] {
				t.Fatalf("duplicate id %d in results", nb.ID)
			}
			seen[nb.ID] = true
			if nb.Dist < prev {
				t.Fatal("results not sorted")
			}
			prev = nb.Dist
			// Distances must be genuine.
			if got := vec.Dist(ds.Queries.Row(qi), ds.Data.Row(nb.ID)); got != nb.Dist {
				t.Fatalf("stored dist %v, recomputed %v", nb.Dist, got)
			}
		}
	}
}

func TestKANNRespectsBudget(t *testing.T) {
	ds := testDataset(5000, 32, 6)
	cfgT := 10
	idx := Build(ds.Data, Config{C: 1.5, K: 10, L: 5, T: cfgT, Seed: 6})
	s := idx.NewSearcher()
	k := 5
	budget := 2*cfgT*5 + k
	for qi := 0; qi < 10; qi++ {
		s.KANN(ds.Queries.Row(qi), k)
		if got := s.LastStats().Candidates; got > budget {
			t.Fatalf("candidates %d exceed budget %d", got, budget)
		}
	}
}

func TestKANNSmallDatasetExact(t *testing.T) {
	// With n below the budget, KANN degenerates to exact search.
	ds := testDataset(150, 8, 7)
	idx := Build(ds.Data, Config{C: 2, K: 4, L: 3, T: 100, Seed: 7})
	truth := dataset.GroundTruth(ds.Data, ds.Queries, 5)
	s := idx.NewSearcher()
	for qi := 0; qi < ds.Queries.Rows(); qi++ {
		res := s.KANN(ds.Queries.Row(qi), 5)
		if r := eval.Recall(res, truth[qi]); r != 1 {
			t.Fatalf("query %d: recall %v on sub-budget dataset", qi, r)
		}
	}
}

// rnear answers a single (r,c)-NN query on s's index: SearchRadius with the
// identity id map. Its statistics become s.LastStats().
func rnear(s *Searcher, q []float32, r float64) (vec.Neighbor, bool) {
	nb, ok, st, _ := SearchRadius(s, nil, q, r, QueryParams{})
	s.last = st
	return nb, ok
}

func TestRNearContract(t *testing.T) {
	ds := testDataset(2000, 16, 8)
	c := 1.5
	idx := Build(ds.Data, Config{C: c, K: 8, L: 4, T: 50, Seed: 8})
	truth := dataset.GroundTruth(ds.Data, ds.Queries, 1)
	s := idx.NewSearcher()
	for qi := 0; qi < ds.Queries.Rows(); qi++ {
		rStar := truth[qi][0].Dist
		// Definition 2 case 1: points exist within r → must return one ≤ c·r
		// (with constant probability; we tolerate a small failure count).
		nb, ok := rnear(s, ds.Queries.Row(qi), rStar*1.01)
		if ok && nb.Dist > c*rStar*1.01+1e-9 {
			// Budget-exhaustion return may exceed cr; verify it was budget.
			if s.LastStats().Candidates < 2*50*4+1 {
				t.Fatalf("query %d: RNear returned dist %v > c·r without exhausting budget", qi, nb.Dist)
			}
		}
	}
}

func TestRNearTinyRadiusReturnsNothing(t *testing.T) {
	ds := testDataset(2000, 16, 9)
	idx := Build(ds.Data, Config{C: 1.5, K: 8, L: 4, T: 50, Seed: 9})
	s := idx.NewSearcher()
	found := 0
	for qi := 0; qi < ds.Queries.Rows(); qi++ {
		if _, ok := rnear(s, ds.Queries.Row(qi), 1e-9); ok {
			found++
		}
	}
	// At a vanishing radius the window is almost empty; (r,c)-NN should
	// nearly always return nothing (Definition 2 case 2).
	if found > 2 {
		t.Fatalf("%d queries returned points at radius 1e-9", found)
	}
}

func TestSearcherReuseAcrossQueries(t *testing.T) {
	ds := testDataset(1000, 16, 10)
	idx := Build(ds.Data, Config{C: 1.5, K: 6, L: 3, T: 30, Seed: 10})
	s := idx.NewSearcher()
	q := ds.Queries.Row(0)
	first := s.KANN(q, 5)
	for i := 0; i < 50; i++ {
		s.KANN(ds.Queries.Row(i%ds.Queries.Rows()), 5)
	}
	again := s.KANN(q, 5)
	if len(first) != len(again) {
		t.Fatalf("result size changed on reuse: %d vs %d", len(first), len(again))
	}
	for i := range first {
		if first[i] != again[i] {
			t.Fatalf("result changed on searcher reuse: %+v vs %+v", first[i], again[i])
		}
	}
}

func TestConcurrentQueries(t *testing.T) {
	ds := testDataset(3000, 32, 11)
	idx := Build(ds.Data, Config{C: 1.5, K: 8, L: 4, T: 30, Seed: 11})
	done := make(chan []vec.Neighbor, 8)
	for g := 0; g < 8; g++ {
		go func() {
			done <- idx.KANN(ds.Queries.Row(0), 5)
		}()
	}
	first := <-done
	for g := 1; g < 8; g++ {
		res := <-done
		if len(res) != len(first) {
			t.Fatalf("concurrent result size mismatch")
		}
		for i := range res {
			if res[i] != first[i] {
				t.Fatal("concurrent queries returned different results")
			}
		}
	}
}

func TestDeterministicAcrossBuilds(t *testing.T) {
	ds := testDataset(2000, 16, 12)
	a := Build(ds.Data, Config{C: 1.5, K: 8, L: 4, T: 30, Seed: 99})
	b := Build(ds.Data, Config{C: 1.5, K: 8, L: 4, T: 30, Seed: 99})
	ra := a.KANN(ds.Queries.Row(0), 10)
	rb := b.KANN(ds.Queries.Row(0), 10)
	if len(ra) != len(rb) {
		t.Fatal("sizes differ")
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatal("identically-seeded builds answered differently")
		}
	}
}

func TestQueryDimPanics(t *testing.T) {
	ds := testDataset(100, 8, 13)
	idx := Build(ds.Data, Config{K: 4, L: 2, Seed: 13})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	idx.KANN(make([]float32, 4), 1)
}

func TestKZeroPanics(t *testing.T) {
	ds := testDataset(100, 8, 14)
	idx := Build(ds.Data, Config{K: 4, L: 2, Seed: 14})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	idx.KANN(make([]float32, 8), 0)
}

func TestStatsPopulated(t *testing.T) {
	ds := testDataset(2000, 16, 15)
	idx := Build(ds.Data, Config{C: 1.5, K: 8, L: 4, T: 30, Seed: 15})
	s := idx.NewSearcher()
	s.KANN(ds.Queries.Row(0), 5)
	st := s.LastStats()
	if st.Candidates <= 0 || st.Rounds <= 0 || st.FinalR <= 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
}

func TestDuplicateHeavyData(t *testing.T) {
	// Many duplicated points must not break dedup or termination.
	data := vec.NewMatrix(1000, 8)
	rng := rand.New(rand.NewSource(16))
	proto := make([]float32, 8)
	for j := range proto {
		proto[j] = float32(rng.NormFloat64())
	}
	for i := 0; i < 1000; i++ {
		row := data.Row(i)
		copy(row, proto)
		if i%10 == 0 { // 10% unique points
			for j := range row {
				row[j] += float32(rng.NormFloat64() * 5)
			}
		}
	}
	idx := Build(data, Config{C: 1.5, K: 6, L: 3, T: 20, Seed: 16})
	res := idx.KANN(proto, 10)
	if len(res) != 10 {
		t.Fatalf("got %d results", len(res))
	}
	if res[0].Dist != 0 {
		t.Fatalf("nearest duplicate dist = %v", res[0].Dist)
	}
}

func BenchmarkBuild50k(b *testing.B) {
	ds := testDataset(50_000, 128, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Build(ds.Data, Config{C: 1.5, K: 10, L: 5, T: 100, Seed: 1})
	}
}

// BenchmarkBuild40kD960 is a build at the overlap-960 workload's shape,
// where hashing the rows into the L spaces is most of the work.
func BenchmarkBuild40kD960(b *testing.B) {
	ds := testDataset(40_000, 960, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Build(ds.Data, Config{C: 1.5, K: 10, L: 5, T: 100, Seed: 1})
	}
}

// overlapMixture draws n+nq rows of dimension d from one seeded RNG: the
// dataset.NUS shape of the benchmark's overlap workloads (8 top-level
// centres with spread 3, 40 sub-centres each at Std 2.5, points at 1.8
// around their sub-centre), where a query's neighbours are barely closer
// than the bulk and the 2tL+k budget binds. dataset.Generate is not used:
// its output depends on GOMAXPROCS. The first n rows are indexed, the rest
// are the queries.
func overlapMixture(n, nq, d int, seed int64) (data, queries *vec.Matrix) {
	rng := rand.New(rand.NewSource(seed))
	centres := vec.NewMatrix(8*40, d)
	top := make([]float64, d)
	for c := 0; c < 8; c++ {
		for j := range top {
			top[j] = rng.NormFloat64() * 3
		}
		for s := 0; s < 40; s++ {
			for j, v := range top {
				centres.Row(c*40 + s)[j] = float32(v + rng.NormFloat64()*2.5)
			}
		}
	}
	all := vec.NewMatrix(n+nq, d)
	for i := 0; i < n+nq; i++ {
		c := centres.Row(rng.Intn(centres.Rows()))
		for j := range c {
			all.Row(i)[j] = c[j] + float32(rng.NormFloat64()*1.8)
		}
	}
	return all.Slice(0, n), all.Slice(n, n+nq)
}

// BenchmarkKANNOverlap is a query at the overlap-128 workload's shape:
// 100 000 × 128 rows of the overlapping mixture, the paper's defaults
// (c = 1.5, K×L = 10×5, t = 100) and k = 50, so every query spends the
// whole candidate budget and traversal is most of it. Beside ns/op it
// reports the nodes visited and candidates verified per query and the time
// per node visited, the figure the traversal work moves.
func BenchmarkKANNOverlap(b *testing.B) {
	data, qs := overlapMixture(100_000, 200, 128, 1)
	idx := Build(data, Config{C: 1.5, K: 10, L: 5, T: 100, Seed: 1})
	s := idx.NewSearcher()
	nodes, cands := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.KANN(qs.Row(i%qs.Rows()), 50)
		st := s.LastStats()
		nodes += st.NodesVisited
		cands += st.Candidates
	}
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(nodes, 1)), "ns/node")
	b.ReportMetric(float64(cands)/float64(b.N), "candidates/op")
}

func BenchmarkKANN(b *testing.B) {
	ds := testDataset(50_000, 128, 1)
	idx := Build(ds.Data, Config{C: 1.5, K: 10, L: 5, T: 100, Seed: 1})
	s := idx.NewSearcher()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.KANN(ds.Queries.Row(i%ds.Queries.Rows()), 50)
	}
}
