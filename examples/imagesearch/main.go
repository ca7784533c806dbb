// Imagesearch: similar-image retrieval over simulated CNN embeddings — the
// workload class (SIFT/GIST/DEEP descriptors) the paper's evaluation uses.
//
// A photo library is simulated as 512-dimensional unit-norm embeddings:
// "scenes" produce groups of near-identical shots (bursts, edits, crops),
// plus unrelated singletons. Given a probe image, the index retrieves the
// other shots of its scene. The example also measures recall against exact
// search and shows the accuracy/latency effect of the candidate budget T.
//
//	go run ./examples/imagesearch
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"sort"
	"time"

	"dblsh"
)

const (
	dim        = 512
	scenes     = 400
	shotsEach  = 12 // shots per scene (burst photos)
	singletons = 15_000
)

func main() {
	rng := rand.New(rand.NewSource(2024))

	// Build the library: scene bursts + unrelated singletons.
	var library [][]float32
	var sceneOf []int
	for s := 0; s < scenes; s++ {
		base := randUnit(rng)
		for i := 0; i < shotsEach; i++ {
			// Per-coordinate jitter of 0.02 puts burst-mates at distance
			// ≈ 0.02·√(2·512) ≈ 0.64, versus ≈ √2 for unrelated images.
			library = append(library, perturbUnit(rng, base, 0.02))
			sceneOf = append(sceneOf, s)
		}
	}
	for i := 0; i < singletons; i++ {
		library = append(library, randUnit(rng))
		sceneOf = append(sceneOf, -1)
	}

	fmt.Printf("library: %d embeddings (%d scenes × %d shots + %d singletons)\n\n",
		len(library), scenes, shotsEach, singletons)

	for _, budget := range []int{2, 50} {
		idx, err := dblsh.New(library, dblsh.Options{T: budget, Seed: 5})
		if err != nil {
			log.Fatal(err)
		}
		s := idx.NewSearcher()

		const probes = 40
		k := shotsEach - 1
		var hits, total int
		var exactAgree float64
		start := time.Now()
		for p := 0; p < probes; p++ {
			probeID := rng.Intn(scenes * shotsEach) // probe a scene shot
			probe := library[probeID]
			res, err := s.SearchOpts(probe, k+1) // +1: the probe itself is in the library
			if err != nil {
				log.Fatal(err)
			}

			// Scene recall: how many burst-mates did we retrieve?
			for _, h := range res {
				if h.ID != probeID && sceneOf[h.ID] == sceneOf[probeID] {
					hits++
				}
			}
			total += k

			exactAgree += overlap(res, exactTopK(library, probe, k+1))
		}
		elapsed := time.Since(start)
		fmt.Printf("T=%-4d scene-recall=%.3f  exact-overlap=%.3f  avg-latency=%v\n",
			budget, float64(hits)/float64(total), exactAgree/probes,
			(elapsed / probes).Round(time.Microsecond))
	}
	fmt.Println("\nLarger T verifies more candidates: higher recall, higher latency —")
	fmt.Println("the accuracy/efficiency dial of Section V (budget 2tL+k).")
}

func randUnit(rng *rand.Rand) []float32 {
	v := make([]float32, dim)
	var norm float64
	for i := range v {
		x := rng.NormFloat64()
		v[i] = float32(x)
		norm += x * x
	}
	norm = math.Sqrt(norm)
	for i := range v {
		v[i] = float32(float64(v[i]) / norm)
	}
	return v
}

func perturbUnit(rng *rand.Rand, base []float32, eps float64) []float32 {
	v := make([]float32, dim)
	var norm float64
	for i := range v {
		x := float64(base[i]) + rng.NormFloat64()*eps
		v[i] = float32(x)
		norm += x * x
	}
	norm = math.Sqrt(norm)
	for i := range v {
		v[i] = float32(float64(v[i]) / norm)
	}
	return v
}

func exactTopK(data [][]float32, q []float32, k int) []int {
	type pair struct {
		id int
		d  float64
	}
	ps := make([]pair, len(data))
	for i, p := range data {
		var s float64
		for j := range p {
			d := float64(p[j]) - float64(q[j])
			s += d * d
		}
		ps[i] = pair{i, s}
	}
	sort.Slice(ps, func(a, b int) bool { return ps[a].d < ps[b].d })
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = ps[i].id
	}
	return out
}

func overlap(res []dblsh.Result, exact []int) float64 {
	set := make(map[int]bool, len(exact))
	for _, id := range exact {
		set[id] = true
	}
	n := 0
	for _, h := range res {
		if set[h.ID] {
			n++
		}
	}
	return float64(n) / float64(len(exact))
}
