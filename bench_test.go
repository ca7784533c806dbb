// Benchmarks regenerating the paper's tables and figures (one bench per
// artifact; the experiment index is in the README, "Reproducing the paper:
// experiments and substitutions") plus ablations of the paper's design
// choices, listed in the same section. Run with:
//
//	go test -bench=. -benchmem
//
// The workload is a scaled-down profile so the suite completes in minutes;
// use cmd/dblsh-bench for the full-size tables.
package dblsh_test

import (
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"dblsh"
	"dblsh/internal/baseline/e2lsh"
	"dblsh/internal/baseline/fblsh"
	"dblsh/internal/baseline/lsb"
	"dblsh/internal/baseline/pmlsh"
	"dblsh/internal/baseline/qalsh"
	"dblsh/internal/baseline/scan"
	"dblsh/internal/core"
	"dblsh/internal/dataset"
	"dblsh/internal/harness"
	"dblsh/internal/lsh"
	"dblsh/internal/mathx"
	"dblsh/internal/rstar"
	"dblsh/internal/vec"
)

// benchProfile is the corpus every query benchmark shares. The cardinality
// is the "SIFT10M-small" scale from dataset.Small.
var benchProfile = dataset.Profile{
	Name: "bench", N: 20_000, Dim: 128, Queries: 50,
	Clusters: 50, Std: 1, Spread: 11, SubClusters: 20, Seed: 13,
}

var (
	benchOnce sync.Once
	benchData *dataset.Dataset
)

func benchDS() *dataset.Dataset {
	benchOnce.Do(func() { benchData = dataset.Generate(benchProfile) })
	return benchData
}

func benchParams() harness.Params {
	p := harness.DefaultParams()
	p.K = 10
	p.L = 5
	p.T = 100
	return p
}

// --- Figure 4: ρ* vs ρ curves -----------------------------------------------

func BenchmarkFig4Rho(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for c := 1.05; c <= 4.0; c += 0.05 {
			_ = mathx.Rho(c, 4*c*c)
			_ = mathx.RhoStatic(c, 4*c*c)
			_ = mathx.Xi(2)
		}
	}
}

// --- Table IV: per-algorithm query cost --------------------------------------

// benchQueries measures steady-state (c,k)-ANN query latency for one
// algorithm, k = 50 as in Table IV.
func benchQueries(b *testing.B, search harness.SearchFunc) {
	ds := benchDS()
	const k = 50
	// Warm lazily-built structures before timing.
	for qi := 0; qi < ds.Queries.Rows(); qi++ {
		search(ds.Queries.Row(qi), k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		search(ds.Queries.Row(i%ds.Queries.Rows()), k)
	}
}

func BenchmarkTable4QueryDBLSH(b *testing.B) {
	p := benchParams()
	idx := core.Build(benchDS().Data, core.Config{C: p.C, W0: p.W0, K: p.K, L: p.L, T: p.T, Seed: p.Seed})
	s := idx.NewSearcher()
	benchQueries(b, func(q []float32, k int) []vec.Neighbor { return s.KANN(q, k) })
}

func BenchmarkTable4QueryFBLSH(b *testing.B) {
	p := benchParams()
	idx := fblsh.Build(benchDS().Data, fblsh.Config{C: p.C, W0: p.W0, K: p.K, L: p.L, T: p.T, Seed: p.Seed})
	benchQueries(b, idx.KANN)
}

func BenchmarkTable4QueryE2LSH(b *testing.B) {
	p := benchParams()
	idx := e2lsh.Build(benchDS().Data, e2lsh.Config{C: p.C, W0: p.W0, K: p.K, L: p.L, T: p.T, Seed: p.Seed})
	benchQueries(b, idx.KANN)
}

func BenchmarkTable4QueryQALSH(b *testing.B) {
	p := benchParams()
	beta := float64(2*p.T*p.L) / float64(benchProfile.N)
	idx := qalsh.Build(benchDS().Data, qalsh.Config{C: p.C, Beta: beta, Seed: p.Seed})
	benchQueries(b, idx.KANN)
}

func BenchmarkTable4QueryPMLSH(b *testing.B) {
	p := benchParams()
	beta := float64(2*p.T*p.L) / float64(benchProfile.N)
	idx := pmlsh.Build(benchDS().Data, pmlsh.Config{M: 15, Beta: beta, C: p.C, Seed: p.Seed})
	benchQueries(b, idx.KANN)
}

func BenchmarkTable4QueryLSBForest(b *testing.B) {
	p := benchParams()
	idx := lsb.Build(benchDS().Data, lsb.Config{K: p.K, L: p.L, T: p.T, Seed: p.Seed})
	benchQueries(b, idx.KANN)
}

func BenchmarkTable4QueryScan(b *testing.B) {
	idx := scan.Build(benchDS().Data)
	benchQueries(b, idx.KANN)
}

// --- Table IV: indexing time --------------------------------------------------

func BenchmarkTable4IndexingDBLSH(b *testing.B) {
	p := benchParams()
	ds := benchDS()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.Build(ds.Data, core.Config{C: p.C, W0: p.W0, K: p.K, L: p.L, T: p.T, Seed: p.Seed})
	}
}

func BenchmarkTable4IndexingQALSH(b *testing.B) {
	ds := benchDS()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = qalsh.Build(ds.Data, qalsh.Config{C: 1.5, Seed: 1})
	}
}

func BenchmarkTable4IndexingPMLSH(b *testing.B) {
	ds := benchDS()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pmlsh.Build(ds.Data, pmlsh.Config{M: 15, Seed: 1})
	}
}

func BenchmarkTable4IndexingLSBForest(b *testing.B) {
	ds := benchDS()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = lsb.Build(ds.Data, lsb.Config{K: 10, L: 5, Seed: 1})
	}
}

// --- Figures 5–7: query cost vs n --------------------------------------------

func BenchmarkFig5QueryTimeVsN(b *testing.B) {
	p := benchParams()
	for _, frac := range []float64{0.2, 0.6, 1.0} {
		frac := frac
		b.Run(benchProfile.Scaled(frac).Name, func(b *testing.B) {
			ds := dataset.Generate(benchProfile.Scaled(frac))
			idx := core.Build(ds.Data, core.Config{C: p.C, W0: p.W0, K: p.K, L: p.L, T: p.T, Seed: p.Seed})
			s := idx.NewSearcher()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.KANN(ds.Queries.Row(i%ds.Queries.Rows()), 50)
			}
		})
	}
}

// --- Figure 8: query cost vs k ------------------------------------------------

func BenchmarkFig8VaryK(b *testing.B) {
	p := benchParams()
	ds := benchDS()
	idx := core.Build(ds.Data, core.Config{C: p.C, W0: p.W0, K: p.K, L: p.L, T: p.T, Seed: p.Seed})
	for _, k := range []int{1, 20, 50, 100} {
		k := k
		b.Run(benchName("k", k), func(b *testing.B) {
			s := idx.NewSearcher()
			for i := 0; i < b.N; i++ {
				s.KANN(ds.Queries.Row(i%ds.Queries.Rows()), k)
			}
		})
	}
}

// --- Figures 9–10: accuracy/time trade-off via c -------------------------------

func BenchmarkFig9TradeoffC(b *testing.B) {
	ds := benchDS()
	for _, c := range []float64{1.2, 1.5, 2.0, 3.0} {
		c := c
		b.Run(benchName("c10x", int(c*10)), func(b *testing.B) {
			idx := core.Build(ds.Data, core.Config{C: c, W0: 4 * c * c, K: 10, L: 5, T: 100, Seed: 13})
			s := idx.NewSearcher()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.KANN(ds.Queries.Row(i%ds.Queries.Rows()), 50)
			}
		})
	}
}

// --- Table I: empirical growth exponents ---------------------------------------

func BenchmarkTable1Exponents(b *testing.B) {
	if testing.Short() {
		b.Skip("runs the full vary-n matrix")
	}
	p := benchParams()
	small := benchProfile
	small.N = 8000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		harness.Table1(io.Discard, small, []float64{0.25, 0.5, 1.0}, p, 10)
	}
}

// --- Ablations (README, "Reproducing the paper") --------------------------------

// Dynamic query-centric buckets (DB-LSH) vs fixed grid buckets (FB-LSH) at
// identical K, L, t — the paper's Section VI-B1 comparison.
func BenchmarkAblationBucketing(b *testing.B) {
	p := benchParams()
	ds := benchDS()
	b.Run("dynamic", func(b *testing.B) {
		idx := core.Build(ds.Data, core.Config{C: p.C, W0: p.W0, K: p.K, L: p.L, T: p.T, Seed: p.Seed})
		s := idx.NewSearcher()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.KANN(ds.Queries.Row(i%ds.Queries.Rows()), 50)
		}
	})
	b.Run("fixed", func(b *testing.B) {
		idx := fblsh.Build(ds.Data, fblsh.Config{C: p.C, W0: p.W0, K: p.K, L: p.L, T: p.T, Seed: p.Seed})
		for qi := 0; qi < ds.Queries.Rows(); qi++ {
			idx.KANN(ds.Queries.Row(qi), 50) // materialize grids untimed
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			idx.KANN(ds.Queries.Row(i%ds.Queries.Rows()), 50)
		}
	})
}

// STR bulk loading vs one-by-one adds — the indexing-time edge the paper
// attributes to bulk loading (Section VI-B2). An add appends to the tree's
// tail and a full tail is repacked, so "insert" packs the rows it has every
// 1 024 of them.
func BenchmarkAblationBulkLoad(b *testing.B) {
	ds := benchDS()
	proj := projectedSpace(ds)
	b.Run("str", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = rstar.Pack(proj, rstar.Options{})
		}
	})
	b.Run("insert", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := rstar.New(proj.Dim(), rstar.Options{})
			for id := 0; id < proj.Rows(); id++ {
				tr.InsertPoint(id, proj.Row(id))
			}
		}
	})
}

// projectedSpace builds one 10-dimensional LSH projection of the corpus —
// the input both tree-construction strategies index.
func projectedSpace(ds *dataset.Dataset) *vec.Matrix {
	g := lsh.NewCompound(10, ds.Data.Dim(), rand.New(rand.NewSource(3)))
	return g.Project(ds.Data)
}

// Candidate constant t: more candidates per index, better accuracy (Remark 2).
func BenchmarkAblationT(b *testing.B) {
	ds := benchDS()
	for _, t := range []int{10, 100, 400} {
		t := t
		b.Run(benchName("t", t), func(b *testing.B) {
			idx := core.Build(ds.Data, core.Config{C: 1.5, K: 10, L: 5, T: t, Seed: 13})
			s := idx.NewSearcher()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.KANN(ds.Queries.Row(i%ds.Queries.Rows()), 50)
			}
		})
	}
}

// Initial width w0 = 2γc²: γ drives the bound α = ξ(γ) (Lemma 3).
func BenchmarkAblationW0(b *testing.B) {
	ds := benchDS()
	c := 1.5
	for _, gamma := range []float64{0.5, 1, 2, 3} {
		gamma := gamma
		b.Run(benchName("gamma10x", int(gamma*10)), func(b *testing.B) {
			idx := core.Build(ds.Data, core.Config{C: c, W0: 2 * gamma * c * c, K: 10, L: 5, T: 100, Seed: 13})
			s := idx.NewSearcher()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.KANN(ds.Queries.Row(i%ds.Queries.Rows()), 50)
			}
		})
	}
}

// Number of projected spaces L.
func BenchmarkAblationL(b *testing.B) {
	ds := benchDS()
	for _, l := range []int{1, 5, 10} {
		l := l
		b.Run(benchName("L", l), func(b *testing.B) {
			idx := core.Build(ds.Data, core.Config{C: 1.5, K: 10, L: l, T: 100, Seed: 13})
			s := idx.NewSearcher()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.KANN(ds.Queries.Row(i%ds.Queries.Rows()), 50)
			}
		})
	}
}

// --- Per-query options API (public surface) ------------------------------------

// benchIndex builds a public dblsh.Index over the shared bench corpus.
func benchIndex(b *testing.B) *dblsh.Index {
	b.Helper()
	p := benchParams()
	ds := benchDS()
	idx, err := dblsh.NewFromFlat(ds.Data.Data(), ds.Data.Rows(), ds.Data.Dim(),
		dblsh.Options{C: p.C, W0: p.W0, K: p.K, L: p.L, T: p.T, Seed: p.Seed})
	if err != nil {
		b.Fatal(err)
	}
	return idx
}

// Filter pushdown: a tenant predicate admitting half the corpus, evaluated
// inside the verification loop before any exact distance computation.
func BenchmarkSearchFiltered(b *testing.B) {
	idx := benchIndex(b)
	ds := benchDS()
	s := idx.NewSearcher()
	tenant := dblsh.WithFilter(func(id int) bool { return id%2 == 0 })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SearchOpts(ds.Queries.Row(i%ds.Queries.Rows()), 50, tenant); err != nil {
			b.Fatal(err)
		}
	}
}

// Batch fan-out through the options path, with per-query stats collected —
// the shape of a POST /search_batch request.
func BenchmarkSearchBatchOpts(b *testing.B) {
	idx := benchIndex(b)
	ds := benchDS()
	queries := make([][]float32, ds.Queries.Rows())
	for i := range queries {
		queries[i] = ds.Queries.Row(i)
	}
	var per []dblsh.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := idx.SearchBatchOpts(queries, 50, dblsh.WithBatchStats(&per)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchIndexSharded builds a public index over the bench corpus with the
// given shard count.
func benchIndexSharded(b *testing.B, shards int) *dblsh.Index {
	b.Helper()
	p := benchParams()
	ds := benchDS()
	idx, err := dblsh.NewFromFlat(ds.Data.Data(), ds.Data.Rows(), ds.Data.Dim(),
		dblsh.Options{C: p.C, W0: p.W0, K: p.K, L: p.L, T: p.T, Seed: p.Seed, Shards: shards})
	if err != nil {
		b.Fatal(err)
	}
	return idx
}

// Search latency as shard count grows: what the coordinated round costs over
// the one-index ladder on the same rows.
func BenchmarkSearchSharded(b *testing.B) {
	ds := benchDS()
	for _, shards := range []int{1, 4, 8} {
		idx := benchIndexSharded(b, shards)
		b.Run(benchName("shards", shards), func(b *testing.B) {
			s := idx.NewSearcher()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.SearchOpts(ds.Queries.Row(i%ds.Queries.Rows()), 10)
			}
		})
	}
}

// Search throughput while a writer mutates the index at a steady rate —
// the scenario that motivated sharding. With one shard every Add
// write-locks the whole index and stalls every in-flight search; with S
// shards an Add stalls only the sub-queries of one shard while the other
// S−1 keep streaming. The writer's insert rate is fixed so both layouts
// face identical write pressure and only the locking differs.
func BenchmarkAddWhileSearching(b *testing.B) {
	ds := benchDS()
	dim := ds.Data.Dim()
	for _, shards := range []int{1, 8} {
		shards := shards
		b.Run(benchName("shards", shards), func(b *testing.B) {
			idx := benchIndexSharded(b, shards)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() { // steady writer: ~250 inserts/second
				defer wg.Done()
				v := make([]float32, dim)
				tick := time.NewTicker(4 * time.Millisecond)
				defer tick.Stop()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					case <-tick.C:
					}
					v[0] = float32(i)
					if _, err := idx.Add(v); err != nil {
						return
					}
				}
			}()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				s := idx.NewSearcher()
				i := 0
				for pb.Next() {
					if _, err := s.SearchOpts(ds.Queries.Row(i%ds.Queries.Rows()), 10); err != nil {
						b.Error(err)
						return
					}
					i++
				}
			})
			b.StopTimer()
			close(stop)
			wg.Wait()
		})
	}
}

func benchName(prefix string, v int) string {
	// Stable sub-benchmark names without fmt in the hot path.
	digits := [20]byte{}
	i := len(digits)
	if v == 0 {
		i--
		digits[i] = '0'
	}
	for v > 0 {
		i--
		digits[i] = byte('0' + v%10)
		v /= 10
	}
	return prefix + "=" + string(digits[i:])
}
