// Embeddings: cosine similarity search over normalized embedding vectors —
// the semantic-search workload every modern embedding model produces
// (sentence or image encoders emit vectors whose direction carries the
// meaning and whose magnitude is noise).
//
// The corpus simulates an embedding space: topic centroids on the unit
// sphere with documents scattered tightly around them, unit-normalized —
// the geometry text encoders produce. The index is built with
// Metric: Cosine, so ingest normalizes (a no-op here), the DB-LSH radius
// ladder runs unchanged in L2 (for unit vectors L2 and angular order
// coincide), and results come back as cosine distance 1−cos θ. The demo
// retrieves nearest documents for held-out queries, reports how often the
// top hit shares the query's topic, and shows the similarity values.
//
//	go run ./examples/embeddings
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"dblsh"
)

const (
	docsN  = 50_000
	topics = 200
	dim    = 96
	qCount = 500
)

// unitVec samples a random direction on the unit sphere.
func unitVec(rng *rand.Rand, dim int) []float32 {
	v := make([]float32, dim)
	var n float64
	for j := range v {
		x := rng.NormFloat64()
		v[j] = float32(x)
		n += x * x
	}
	inv := float32(1 / math.Sqrt(n))
	for j := range v {
		v[j] *= inv
	}
	return v
}

// embed scatters a document around its topic centroid and normalizes — the
// shape of real encoder output.
func embed(rng *rand.Rand, center []float32, noise float64) []float32 {
	v := make([]float32, len(center))
	var n float64
	for j := range v {
		x := float64(center[j]) + rng.NormFloat64()*noise
		v[j] = float32(x)
		n += x * x
	}
	inv := float32(1 / math.Sqrt(n))
	for j := range v {
		v[j] *= inv
	}
	return v
}

func main() {
	rng := rand.New(rand.NewSource(17))

	centers := make([][]float32, topics)
	for t := range centers {
		centers[t] = unitVec(rng, dim)
	}
	docs := make([][]float32, docsN)
	topicOf := make([]int, docsN)
	for i := range docs {
		topicOf[i] = rng.Intn(topics)
		docs[i] = embed(rng, centers[topicOf[i]], 0.05)
	}

	idx, err := dblsh.New(docs, dblsh.Options{Metric: dblsh.Cosine, Seed: 17})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d embeddings of dim %d under the %s metric\n",
		idx.Len(), idx.Dim(), idx.Metric())

	correct := 0
	var simSum float64
	s := idx.NewSearcher()
	for qi := 0; qi < qCount; qi++ {
		topic := rng.Intn(topics)
		q := embed(rng, centers[topic], 0.05)
		hits, err := s.SearchOpts(q, 5)
		if err != nil {
			log.Fatal(err)
		}
		if len(hits) == 0 {
			log.Fatal("no hits")
		}
		if topicOf[hits[0].ID] == topic {
			correct++
		}
		simSum += 1 - hits[0].Dist // cosine similarity of the top hit
		if qi < 3 {
			fmt.Printf("query %d (topic %d):\n", qi, topic)
			for _, h := range hits {
				fmt.Printf("  doc %-6d topic %-4d cos-sim %.4f (cos-dist %.4f)\n",
					h.ID, topicOf[h.ID], 1-h.Dist, h.Dist)
			}
		}
	}
	fmt.Printf("\ntop-1 topic accuracy: %.1f%% over %d queries\n",
		100*float64(correct)/qCount, qCount)
	fmt.Printf("mean top-1 cosine similarity: %.4f\n", simSum/qCount)
}
