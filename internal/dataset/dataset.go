// Package dataset generates the synthetic workloads used to reproduce the
// paper's experiments and computes exact ground truth for them.
//
// The paper evaluates on ten real corpora (Table III: Audio … SIFT100M).
// Those corpora are not available offline, so this package simulates them:
// each Profile mirrors a corpus's cardinality/dimensionality (scaled down by
// default) and generates a seeded Gaussian-mixture point set. Mixture data
// preserves the property every LSH method exploits — query-to-neighbor
// distances are much smaller than query-to-random-point distances — so the
// relative behaviour of the algorithms (who wins, where curves cross) is
// preserved even though absolute numbers differ from the paper's testbed.
// See the README ("Reproducing the paper: experiments and substitutions").
package dataset

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"dblsh/internal/vec"
)

// Profile describes a synthetic corpus.
//
// Generation is a two-level Gaussian mixture: Clusters top-level components
// whose centres have standard deviation Spread, each containing SubClusters
// sub-components offset by Std, with points scattered SubStd around their
// sub-centre. The sub-level gives queries genuinely close neighbors (their
// sub-cluster mates), reproducing the multi-scale local structure of real
// feature corpora (SIFT, GIST, …) that ANN recall measurements depend on.
// SubClusters = 0 disables the second level (flat mixture).
type Profile struct {
	Name        string
	N           int     // dataset cardinality
	Dim         int     // dimensionality
	Queries     int     // number of query points (removed from the data)
	Clusters    int     // top-level mixture components
	Std         float64 // std of sub-centres around their cluster centre
	Spread      float64 // std of cluster centres
	SubClusters int     // sub-components per cluster (0 = flat mixture)
	SubStd      float64 // std of points around their sub-centre (default Std/3)
	Seed        int64
}

// The default profiles mirror Table III of the paper with cardinalities
// scaled to laptop-class budgets; dimensionality is kept faithful except for
// Trevi (4096 → 1024) to keep ground-truth computation tractable.
var (
	Audio   = Profile{Name: "Audio", N: 20_000, Dim: 192, Queries: 50, Clusters: 40, Std: 1, Spread: 12, SubClusters: 25, Seed: 1}
	MNIST   = Profile{Name: "MNIST", N: 20_000, Dim: 784, Queries: 50, Clusters: 10, Std: 1, Spread: 10, SubClusters: 80, Seed: 2}
	Cifar   = Profile{Name: "Cifar", N: 20_000, Dim: 1024, Queries: 50, Clusters: 100, Std: 1, Spread: 8, SubClusters: 10, Seed: 3}
	Trevi   = Profile{Name: "Trevi", N: 25_000, Dim: 1024, Queries: 50, Clusters: 200, Std: 1, Spread: 10, SubClusters: 6, Seed: 4}
	NUS     = Profile{Name: "NUS", N: 40_000, Dim: 500, Queries: 50, Clusters: 8, Std: 2.5, Spread: 3, SubClusters: 40, SubStd: 1.8, Seed: 5} // intrinsically hard: overlapping structure
	Deep1M  = Profile{Name: "Deep1M", N: 100_000, Dim: 256, Queries: 50, Clusters: 150, Std: 1, Spread: 10, SubClusters: 30, Seed: 6}
	Gist    = Profile{Name: "Gist", N: 100_000, Dim: 960, Queries: 50, Clusters: 120, Std: 1, Spread: 9, SubClusters: 35, Seed: 7}
	SIFT10M = Profile{Name: "SIFT10M", N: 200_000, Dim: 128, Queries: 50, Clusters: 250, Std: 1, Spread: 11, SubClusters: 35, Seed: 8}
	Tiny80M = Profile{Name: "TinyImages80M", N: 150_000, Dim: 384, Queries: 50, Clusters: 180, Std: 1, Spread: 10, SubClusters: 35, Seed: 9}
	SIFT1HM = Profile{Name: "SIFT100M", N: 250_000, Dim: 128, Queries: 50, Clusters: 300, Std: 1, Spread: 11, SubClusters: 35, Seed: 10}
)

// All lists the default profiles in the order of Table III/IV.
func All() []Profile {
	return []Profile{Audio, MNIST, Cifar, Trevi, NUS, Deep1M, Gist, SIFT10M, Tiny80M, SIFT1HM}
}

// Small lists reduced-size profiles for fast tests and CI-scale benches.
func Small() []Profile {
	out := []Profile{Audio, MNIST, SIFT10M}
	for i := range out {
		out[i].N /= 10
		out[i].Name += "-small"
	}
	return out
}

// Scaled returns a copy of p with cardinality scaled by factor (queries and
// everything else unchanged). Used by the "varying n" experiments (Fig. 5-7).
func (p Profile) Scaled(factor float64) Profile {
	q := p
	q.N = int(float64(p.N) * factor)
	q.Name = fmt.Sprintf("%s×%.1f", p.Name, factor)
	return q
}

// Dataset is a generated corpus with its query workload.
type Dataset struct {
	Profile Profile
	Data    *vec.Matrix // N×Dim points
	Queries *vec.Matrix // Queries×Dim points, disjoint from Data
}

// Generate builds the corpus for a profile. Generation is deterministic in
// the profile's seed and parallel across points.
func Generate(p Profile) *Dataset {
	if p.N <= 0 || p.Dim <= 0 {
		panic(fmt.Sprintf("dataset: invalid profile %+v", p))
	}
	if p.Clusters <= 0 {
		p.Clusters = 1
	}
	if p.Queries <= 0 {
		p.Queries = 1
	}
	if p.Std <= 0 {
		p.Std = 1
	}

	if p.SubStd <= 0 {
		p.SubStd = p.Std / 3
	}

	// Sub-cluster centres from the profile seed: subCenters[c*SubClusters+s]
	// = cluster centre c plus a Std-scale offset. With SubClusters == 0 each
	// cluster has one "sub-centre" equal to its centre and points scatter
	// with Std (flat mixture).
	rng := rand.New(rand.NewSource(p.Seed))
	subPer := p.SubClusters
	pointStd := p.SubStd
	if subPer <= 0 {
		subPer = 1
		pointStd = p.Std
	}
	subCenters := vec.NewMatrix(p.Clusters*subPer, p.Dim)
	for c := 0; c < p.Clusters; c++ {
		center := make([]float64, p.Dim)
		for j := range center {
			center[j] = rng.NormFloat64() * p.Spread
		}
		for s := 0; s < subPer; s++ {
			row := subCenters.Row(c*subPer + s)
			for j := range row {
				off := 0.0
				if p.SubClusters > 0 {
					off = rng.NormFloat64() * p.Std
				}
				row[j] = float32(center[j] + off)
			}
		}
	}

	total := p.N + p.Queries
	data := vec.NewMatrix(total, p.Dim)

	// Points in parallel; each shard has an independent derived seed so the
	// result does not depend on scheduling.
	workers := runtime.GOMAXPROCS(0)
	if workers > total {
		workers = total
	}
	var wg sync.WaitGroup
	chunk := (total + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > total {
			hi = total
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi, shard int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(p.Seed*1_000_003 + int64(shard)))
			for i := lo; i < hi; i++ {
				c := subCenters.Row(r.Intn(subCenters.Rows()))
				row := data.Row(i)
				for j := range row {
					row[j] = c[j] + float32(r.NormFloat64()*pointStd)
				}
			}
		}(lo, hi, w)
	}
	wg.Wait()

	return &Dataset{
		Profile: p,
		Data:    data.Slice(0, p.N),
		Queries: data.Slice(p.N, total),
	}
}

// GroundTruth computes the exact k nearest neighbors in data for every query,
// by parallel brute force. Result[i] is sorted ascending by distance.
func GroundTruth(data, queries *vec.Matrix, k int) [][]vec.Neighbor {
	nq := queries.Rows()
	out := make([][]vec.Neighbor, nq)
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for qi := 0; qi < nq; qi++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(qi int) {
			defer wg.Done()
			defer func() { <-sem }()
			q := queries.Row(qi)
			tk := vec.NewTopK(k)
			for i := 0; i < data.Rows(); i++ {
				tk.Push(i, vec.Dist(q, data.Row(i)))
			}
			out[qi] = tk.Results()
		}(qi)
	}
	wg.Wait()
	return out
}
