// Quickstart: build a DB-LSH index over random clustered vectors and run a
// few approximate nearest neighbor queries.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"dblsh"
)

func main() {
	const (
		n   = 20_000
		dim = 64
	)
	rng := rand.New(rand.NewSource(7))

	// Synthetic corpus: 50 clusters of similar vectors.
	centers := make([][]float32, 50)
	for i := range centers {
		centers[i] = randVec(rng, dim, 10)
	}
	data := make([][]float32, n)
	for i := range data {
		c := centers[rng.Intn(len(centers))]
		data[i] = jitter(rng, c, 1)
	}

	// Build with the paper's defaults (c = 1.5, w0 = 4c², L = 5).
	idx, err := dblsh.New(data, dblsh.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	p := idx.Params()
	fmt.Printf("indexed %d vectors of dim %d (K=%d, L=%d, c=%.1f, w0=%.1f)\n",
		idx.Len(), idx.Dim(), p.K, p.L, p.C, p.W0)
	fmt.Printf("index size ≈ %.1f MiB\n\n", float64(idx.IndexSizeBytes())/(1<<20))

	// Query with a perturbed copy of a data point; its source should come
	// back at the top.
	for trial := 0; trial < 3; trial++ {
		target := rng.Intn(n)
		q := jitter(rng, data[target], 0.2)
		hits, err := idx.SearchOpts(q, 5)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("query near point %d:\n", target)
		for rank, h := range hits {
			marker := ""
			if h.ID == target {
				marker = "   <- planted target"
			}
			fmt.Printf("  #%d id=%-6d dist=%.3f%s\n", rank+1, h.ID, h.Dist, marker)
		}
		// Sanity: compare against the exact nearest neighbor.
		bestID, bestDist := exactNN(data, q)
		fmt.Printf("  exact NN: id=%d dist=%.3f\n\n", bestID, bestDist)
	}
}

func randVec(rng *rand.Rand, dim int, scale float64) []float32 {
	v := make([]float32, dim)
	for i := range v {
		v[i] = float32(rng.NormFloat64() * scale)
	}
	return v
}

func jitter(rng *rand.Rand, base []float32, std float64) []float32 {
	v := make([]float32, len(base))
	for i := range v {
		v[i] = base[i] + float32(rng.NormFloat64()*std)
	}
	return v
}

func exactNN(data [][]float32, q []float32) (int, float64) {
	bestID, bestDist := -1, math.Inf(1)
	for i, p := range data {
		var s float64
		for j := range p {
			d := float64(p[j]) - float64(q[j])
			s += d * d
		}
		if s < bestDist {
			bestID, bestDist = i, s
		}
	}
	return bestID, math.Sqrt(bestDist)
}
