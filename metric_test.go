package dblsh_test

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"dblsh"
)

// normalizedData generates n unit-normalized clustered vectors plus nq unit
// queries, the embedding-search workload shape.
func normalizedData(n, dim, nq int, seed int64) ([][]float32, [][]float32) {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float32, 16)
	for i := range centers {
		centers[i] = make([]float32, dim)
		for j := range centers[i] {
			centers[i][j] = float32(rng.NormFloat64() * 4)
		}
	}
	mk := func(count int) [][]float32 {
		out := make([][]float32, count)
		for i := range out {
			c := centers[rng.Intn(len(centers))]
			v := make([]float32, dim)
			var norm float64
			for j := range v {
				v[j] = c[j] + float32(rng.NormFloat64())
				norm += float64(v[j]) * float64(v[j])
			}
			norm = math.Sqrt(norm)
			for j := range v {
				v[j] = float32(float64(v[j]) / norm)
			}
			out[i] = v
		}
		return out
	}
	return mk(n), mk(nq)
}

// TestCosineRecallParity is the acceptance check for the cosine reduction:
// over already-normalized vectors, cosine search and Euclidean search rank
// identically (for unit vectors ‖x−q‖² = 2(1−cos θ)), so the same queries
// must return the same neighbor sets, and the reported cosine distances
// must match 1−cos θ computed directly.
func TestCosineRecallParity(t *testing.T) {
	data, queries := normalizedData(3000, 24, 40, 71)
	euc, err := dblsh.New(data, dblsh.Options{K: 8, L: 4, T: 50, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cos, err := dblsh.New(data, dblsh.Options{K: 8, L: 4, T: 50, Seed: 7, Metric: dblsh.Cosine})
	if err != nil {
		t.Fatal(err)
	}
	if cos.Metric() != dblsh.Cosine {
		t.Fatalf("Metric() = %v, want Cosine", cos.Metric())
	}
	const k = 10
	for qi, q := range queries {
		he := search(t, euc, q, k)
		hc := search(t, cos, q, k)
		if len(he) != k || len(hc) != k {
			t.Fatalf("query %d: got %d euclidean, %d cosine hits", qi, len(he), len(hc))
		}
		gotIDs := make(map[int]bool, k)
		for _, h := range hc {
			gotIDs[h.ID] = true
		}
		for _, h := range he {
			if !gotIDs[h.ID] {
				t.Fatalf("query %d: euclidean neighbor %d missing from cosine results\neuc: %v\ncos: %v",
					qi, h.ID, he, hc)
			}
		}
		prev := -1.0
		for _, h := range hc {
			if h.Dist < prev {
				t.Fatalf("query %d: cosine results not sorted", qi)
			}
			prev = h.Dist
			want := 1 - dot(q, data[h.ID])
			if math.Abs(h.Dist-want) > 1e-5 {
				t.Fatalf("query %d: cosine dist %v, want 1−cos = %v", qi, h.Dist, want)
			}
		}
	}
}

func dot(a, b []float32) float64 {
	var s float64
	for i := range a {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}

// TestInnerProductTop1Exact is the acceptance check for the MIPS reduction:
// on a dataset small enough that the candidate budget covers every point,
// the search degenerates to exhaustive verification, so top-1 must equal
// the brute-force inner-product argmax exactly.
func TestInnerProductTop1Exact(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const n, dim = 400, 16
	data := make([][]float32, n)
	for i := range data {
		data[i] = make([]float32, dim)
		for j := range data[i] {
			data[i][j] = float32(rng.NormFloat64() * 3)
		}
	}
	idx, err := dblsh.New(data, dblsh.Options{Seed: 4, Metric: dblsh.InnerProduct})
	if err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < 50; qi++ {
		q := make([]float32, dim)
		for j := range q {
			q[j] = float32(rng.NormFloat64() * 3)
		}
		bestID, bestIP := -1, math.Inf(-1)
		for id, v := range data {
			if ip := dot(q, v); ip > bestIP {
				bestID, bestIP = id, ip
			}
		}
		hits := search(t, idx, q, 1)
		if len(hits) != 1 {
			t.Fatalf("query %d: no result", qi)
		}
		hit := hits[0]
		if hit.ID != bestID {
			t.Fatalf("query %d: top-1 id %d (ip %v), brute-force argmax %d (ip %v)",
				qi, hit.ID, -hit.Dist, bestID, bestIP)
		}
		// Dist is the negated inner product.
		if math.Abs(-hit.Dist-bestIP) > 1e-3*(1+math.Abs(bestIP)) {
			t.Fatalf("query %d: recovered ip %v, want %v", qi, -hit.Dist, bestIP)
		}
	}
}

// TestInnerProductRanking checks that a top-k inner-product search comes
// back ranked by descending ⟨q,x⟩ and matches the brute-force top-k on an
// exhaustively-verifiable dataset.
func TestInnerProductRanking(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const n, dim, k = 300, 12, 5
	data := make([][]float32, n)
	for i := range data {
		data[i] = make([]float32, dim)
		for j := range data[i] {
			data[i][j] = float32(rng.NormFloat64())
		}
	}
	idx, err := dblsh.New(data, dblsh.Options{Seed: 3, Metric: dblsh.InnerProduct})
	if err != nil {
		t.Fatal(err)
	}
	q := make([]float32, dim)
	for j := range q {
		q[j] = float32(rng.NormFloat64())
	}
	hits := search(t, idx, q, k)
	if len(hits) != k {
		t.Fatalf("got %d hits", len(hits))
	}
	prev := math.Inf(1)
	for _, h := range hits {
		ip := -h.Dist
		if ip > prev+1e-9 {
			t.Fatalf("results not ranked by descending inner product: %v after %v", ip, prev)
		}
		prev = ip
	}
	type pair struct {
		id int
		ip float64
	}
	best := make([]pair, 0, n)
	for id, v := range data {
		best = append(best, pair{id, dot(q, v)})
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < n; j++ {
			if best[j].ip > best[i].ip {
				best[i], best[j] = best[j], best[i]
			}
		}
		if hits[i].ID != best[i].id {
			t.Fatalf("rank %d: id %d, brute force %d", i, hits[i].ID, best[i].id)
		}
	}
}

func TestMetricIngestValidation(t *testing.T) {
	if _, err := dblsh.New([][]float32{{0, 0}, {1, 0}}, dblsh.Options{Metric: dblsh.Cosine}); err == nil {
		t.Fatal("cosine build over a zero vector must fail")
	}
	idx, err := dblsh.New([][]float32{{1, 0}, {0, 1}}, dblsh.Options{Metric: dblsh.Cosine})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.Add([]float32{0, 0}); err == nil {
		t.Fatal("cosine Add of the zero vector must fail")
	}
	if id, err := idx.Add([]float32{3, 4}); err != nil || id != 2 {
		t.Fatalf("Add = %d, %v", id, err)
	}

	ip, err := dblsh.New([][]float32{{3, 4}, {1, 0}}, dblsh.Options{Metric: dblsh.InnerProduct})
	if err != nil {
		t.Fatal(err)
	}
	if p := ip.Params(); p.NormBound != 5 {
		t.Fatalf("fitted NormBound = %v, want 5", p.NormBound)
	}
	if _, err := ip.Add([]float32{6, 0}); err == nil {
		t.Fatal("Add above the norm bound must fail")
	}
	if _, err := ip.Add([]float32{0, 5}); err != nil {
		t.Fatalf("Add at the norm bound failed: %v", err)
	}

	// Headroom via Options.NormBound.
	ip2, err := dblsh.New([][]float32{{3, 4}}, dblsh.Options{Metric: dblsh.InnerProduct, NormBound: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ip2.Add([]float32{6, 0}); err != nil {
		t.Fatalf("Add within the widened bound failed: %v", err)
	}
	if _, err := dblsh.New([][]float32{{1}}, dblsh.Options{NormBound: 2}); err == nil {
		t.Fatal("NormBound without InnerProduct must fail")
	}
	if _, err := dblsh.New([][]float32{{3, 4}}, dblsh.Options{Metric: dblsh.InnerProduct, NormBound: 2}); err == nil {
		t.Fatal("NormBound below the data's max norm must fail at build")
	}
}

func TestMetricRadiusSemantics(t *testing.T) {
	data, queries := normalizedData(500, 8, 4, 5)
	cos, err := dblsh.New(data, dblsh.Options{Metric: dblsh.Cosine, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := cos.NewSearcher()
	// A cosine-distance radius of 2 spans all directions: with an
	// exhaustive budget the round must find something.
	if _, ok, err := s.SearchRadiusOpts(queries[0], 2); err != nil || !ok {
		t.Fatalf("cosine radius 2 found nothing (err %v)", err)
	}
	if _, _, err := s.SearchRadiusOpts(queries[0], 3); err == nil {
		t.Fatal("cosine radius above 2 must error")
	}
	if _, err := cos.SearchOpts(queries[0], 3, dblsh.WithMaxRadius(5)); err == nil {
		t.Fatal("WithMaxRadius above 2 must error under cosine")
	}
	// Under cosine, WithMaxRadius is interpreted in cosine distance.
	hits, err := cos.SearchOpts(queries[0], 3, dblsh.WithMaxRadius(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hits {
		if h.Dist > 2 {
			t.Fatalf("cosine distance %v above the radius cap", h.Dist)
		}
	}

	ip, err := dblsh.New(data, dblsh.Options{Metric: dblsh.InnerProduct, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	si := ip.NewSearcher()
	if _, _, err := si.SearchRadiusOpts(queries[0], 1); err == nil {
		t.Fatal("inner product must reject radius queries")
	}
	if _, err := ip.SearchOpts(queries[0], 3, dblsh.WithMaxRadius(1)); err == nil {
		t.Fatal("inner product must reject WithMaxRadius")
	}
	if _, err := ip.SearchBatchOpts(queries, 3, dblsh.WithMaxRadius(1)); err == nil {
		t.Fatal("inner product must reject WithMaxRadius on batches")
	}
}

// TestMetricPersistRoundTrip checks that cosine and inner-product indexes
// survive WriteTo/Read with their metric, norm bound and answers intact.
func TestMetricPersistRoundTrip(t *testing.T) {
	for _, m := range []dblsh.Metric{dblsh.Cosine, dblsh.InnerProduct} {
		t.Run(m.String(), func(t *testing.T) {
			data, queries := normalizedData(800, 12, 8, int64(10+m))
			idx, err := dblsh.New(data, dblsh.Options{Seed: 6, Shards: 3, Metric: m})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := idx.DeleteWithError(5); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if _, err := idx.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := dblsh.Read(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if loaded.Metric() != m {
				t.Fatalf("loaded metric %v, want %v", loaded.Metric(), m)
			}
			if loaded.Dim() != idx.Dim() {
				t.Fatalf("loaded dim %d, want %d", loaded.Dim(), idx.Dim())
			}
			if loaded.Params() != idx.Params() {
				t.Fatalf("params changed: %+v vs %+v", loaded.Params(), idx.Params())
			}
			for _, q := range queries {
				a, b := search(t, idx, q, 5), search(t, loaded, q, 5)
				if len(a) != len(b) {
					t.Fatalf("result count changed: %d vs %d", len(a), len(b))
				}
				for i := range a {
					if a[i].ID != b[i].ID || math.Abs(a[i].Dist-b[i].Dist) > 1e-9 {
						t.Fatalf("result %d changed: %+v vs %+v", i, a[i], b[i])
					}
				}
			}
			// The metric state must survive: Adds still validate against the
			// restored norm bound.
			if m == dblsh.InnerProduct {
				big := make([]float32, loaded.Dim())
				big[0] = float32(loaded.Params().NormBound * 2)
				if _, err := loaded.Add(big); err == nil {
					t.Fatal("restored index lost its norm bound")
				}
			}
		})
	}
}

func TestParseMetric(t *testing.T) {
	m, err := dblsh.ParseMetric("cosine")
	if err != nil || m != dblsh.Cosine {
		t.Fatalf("ParseMetric(cosine) = %v, %v", m, err)
	}
	if _, err := dblsh.ParseMetric("hamming"); err == nil {
		t.Fatal("unknown metric must error")
	}
	if dblsh.InnerProduct.String() != "ip" || dblsh.Euclidean.String() != "euclidean" {
		t.Fatal("metric names changed")
	}
}
