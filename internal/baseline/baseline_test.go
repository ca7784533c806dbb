// Package baseline_test exercises every competitor algorithm through the
// same contract: build on a clustered corpus, answer (c,k)-ANN queries, and
// meet a method-appropriate quality bar against exact ground truth.
package baseline_test

import (
	"testing"

	"dblsh/internal/baseline/e2lsh"
	"dblsh/internal/baseline/fblsh"
	"dblsh/internal/baseline/lsb"
	"dblsh/internal/baseline/pmlsh"
	"dblsh/internal/baseline/qalsh"
	"dblsh/internal/baseline/r2lsh"
	"dblsh/internal/baseline/scan"
	"dblsh/internal/baseline/vhp"
	"dblsh/internal/dataset"
	"dblsh/internal/eval"
	"dblsh/internal/vec"
)

type algo struct {
	name  string
	build func(data *vec.Matrix) interface {
		KANN(q []float32, k int) []vec.Neighbor
	}
	minRecall float64
	maxRatio  float64
}

func algos() []algo {
	return []algo{
		{
			name: "scan",
			build: func(d *vec.Matrix) interface {
				KANN(q []float32, k int) []vec.Neighbor
			} {
				return scan.Build(d)
			},
			minRecall: 1.0, maxRatio: 1.0,
		},
		{
			name: "fblsh",
			build: func(d *vec.Matrix) interface {
				KANN(q []float32, k int) []vec.Neighbor
			} {
				return fblsh.Build(d, fblsh.Config{C: 1.5, K: 8, L: 5, T: 100, Seed: 7})
			},
			minRecall: 0.5, maxRatio: 1.25,
		},
		{
			name: "e2lsh",
			build: func(d *vec.Matrix) interface {
				KANN(q []float32, k int) []vec.Neighbor
			} {
				return e2lsh.Build(d, e2lsh.Config{C: 1.5, K: 8, L: 5, T: 100, Seed: 7})
			},
			minRecall: 0.5, maxRatio: 1.25,
		},
		{
			name: "qalsh",
			build: func(d *vec.Matrix) interface {
				KANN(q []float32, k int) []vec.Neighbor
			} {
				// Beta chosen so the verification budget βn+k matches the
				// 2tL+k ≈ 1000 budget of the (K,L)-index methods.
				return qalsh.Build(d, qalsh.Config{C: 1.5, Beta: 0.12, Seed: 7})
			},
			minRecall: 0.6, maxRatio: 1.2,
		},
		{
			name: "r2lsh",
			build: func(d *vec.Matrix) interface {
				KANN(q []float32, k int) []vec.Neighbor
			} {
				return r2lsh.Build(d, r2lsh.Config{C: 1.5, Beta: 0.12, Seed: 7})
			},
			minRecall: 0.6, maxRatio: 1.2,
		},
		{
			name: "vhp",
			build: func(d *vec.Matrix) interface {
				KANN(q []float32, k int) []vec.Neighbor
			} {
				return vhp.Build(d, vhp.Config{C: 1.5, Beta: 0.12, Seed: 7})
			},
			minRecall: 0.6, maxRatio: 1.2,
		},
		{
			name: "pmlsh",
			build: func(d *vec.Matrix) interface {
				KANN(q []float32, k int) []vec.Neighbor
			} {
				return pmlsh.Build(d, pmlsh.Config{M: 15, Beta: 0.08, C: 1.5, Seed: 7})
			},
			minRecall: 0.6, maxRatio: 1.2,
		},
		{
			name: "lsb",
			build: func(d *vec.Matrix) interface {
				KANN(q []float32, k int) []vec.Neighbor
			} {
				return lsb.Build(d, lsb.Config{K: 10, L: 5, T: 100, Seed: 7})
			},
			minRecall: 0.3, maxRatio: 1.4,
		},
	}
}

func testCorpus() (*dataset.Dataset, [][]vec.Neighbor) {
	ds := dataset.Generate(dataset.Profile{
		Name: "baseline", N: 8000, Dim: 48, Queries: 15,
		Clusters: 10, Std: 1, Spread: 10, SubClusters: 40, Seed: 77,
	})
	return ds, dataset.GroundTruth(ds.Data, ds.Queries, 10)
}

func TestAllBaselinesQuality(t *testing.T) {
	ds, truth := testCorpus()
	for _, a := range algos() {
		a := a
		t.Run(a.name, func(t *testing.T) {
			idx := a.build(ds.Data)
			var recall, ratio float64
			for qi := 0; qi < ds.Queries.Rows(); qi++ {
				res := idx.KANN(ds.Queries.Row(qi), 10)
				if len(res) == 0 {
					t.Fatalf("query %d: empty result", qi)
				}
				recall += eval.Recall(res, truth[qi])
				ratio += eval.OverallRatio(res, truth[qi])
			}
			nq := float64(ds.Queries.Rows())
			recall /= nq
			ratio /= nq
			if recall < a.minRecall {
				t.Errorf("recall = %.3f, want ≥ %.2f", recall, a.minRecall)
			}
			if ratio > a.maxRatio {
				t.Errorf("ratio = %.4f, want ≤ %.2f", ratio, a.maxRatio)
			}
		})
	}
}

func TestAllBaselinesResultContract(t *testing.T) {
	ds, _ := testCorpus()
	for _, a := range algos() {
		a := a
		t.Run(a.name, func(t *testing.T) {
			idx := a.build(ds.Data)
			q := ds.Queries.Row(0)
			res := idx.KANN(q, 7)
			if len(res) == 0 || len(res) > 7 {
				t.Fatalf("result size %d", len(res))
			}
			seen := map[int]bool{}
			prev := -1.0
			for _, nb := range res {
				if seen[nb.ID] {
					t.Fatalf("duplicate id %d", nb.ID)
				}
				seen[nb.ID] = true
				if nb.Dist < prev {
					t.Fatal("results not sorted")
				}
				prev = nb.Dist
				if got := vec.Dist(q, ds.Data.Row(nb.ID)); got != nb.Dist {
					t.Fatalf("stored dist %v != recomputed %v", nb.Dist, got)
				}
			}
		})
	}
}

func TestAllBaselinesEmptyData(t *testing.T) {
	empty := vec.NewMatrix(0, 16)
	q := make([]float32, 16)
	for _, a := range algos() {
		a := a
		t.Run(a.name, func(t *testing.T) {
			idx := a.build(empty)
			if res := idx.KANN(q, 3); len(res) != 0 {
				t.Fatalf("empty data returned %v", res)
			}
		})
	}
}

func TestAllBaselinesKLargerThanN(t *testing.T) {
	ds := dataset.Generate(dataset.Profile{
		Name: "tiny", N: 20, Dim: 8, Queries: 3, Clusters: 2, Std: 1, Spread: 5, Seed: 5,
	})
	for _, a := range algos() {
		a := a
		t.Run(a.name, func(t *testing.T) {
			idx := a.build(ds.Data)
			res := idx.KANN(ds.Queries.Row(0), 50)
			if len(res) > 20 {
				t.Fatalf("returned %d results from 20 points", len(res))
			}
		})
	}
}

func TestScanExactness(t *testing.T) {
	ds, truth := testCorpus()
	idx := scan.Build(ds.Data)
	for qi := 0; qi < ds.Queries.Rows(); qi++ {
		res := idx.KANN(ds.Queries.Row(qi), 10)
		for i := range res {
			if res[i].Dist != truth[qi][i].Dist {
				t.Fatalf("query %d rank %d: scan %v vs truth %v", qi, i, res[i].Dist, truth[qi][i].Dist)
			}
		}
	}
}

func TestQALSHParameters(t *testing.T) {
	ds, _ := testCorpus()
	idx := qalsh.Build(ds.Data, qalsh.Config{C: 1.5, Seed: 1})
	if idx.M() < 8 {
		t.Fatalf("derived M = %d too small", idx.M())
	}
	if idx.Threshold() < 1 || idx.Threshold() > idx.M() {
		t.Fatalf("threshold %d out of [1,%d]", idx.Threshold(), idx.M())
	}
}

func TestPMLSHCandidateBudget(t *testing.T) {
	ds, _ := testCorpus()
	idx := pmlsh.Build(ds.Data, pmlsh.Config{M: 15, Beta: 0.05, Seed: 3})
	want := int(0.05*float64(ds.Data.Rows())) + 10
	if got := idx.Candidates(10); got != want {
		t.Fatalf("Candidates = %d, want %d", got, want)
	}
}
