package dblsh

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

func clusteredData(n, d int, seed int64) ([][]float32, [][]float32) {
	rng := rand.New(rand.NewSource(seed))
	const clusters = 20
	centers := make([][]float32, clusters)
	for i := range centers {
		c := make([]float32, d)
		for j := range c {
			c[j] = float32(rng.NormFloat64() * 10)
		}
		centers[i] = c
	}
	mk := func(count int) [][]float32 {
		out := make([][]float32, count)
		for i := range out {
			c := centers[rng.Intn(clusters)]
			p := make([]float32, d)
			for j := range p {
				p[j] = c[j] + float32(rng.NormFloat64())
			}
			out[i] = p
		}
		return out
	}
	return mk(n), mk(10)
}

// searchOpts is the query form Index and Searcher share.
type searchOpts interface {
	SearchOpts(q []float32, k int, opts ...SearchOption) ([]Result, error)
}

// search is SearchOpts on a query the test knows to be valid: an error
// fails the test.
func search(tb testing.TB, on searchOpts, q []float32, k int) []Result {
	tb.Helper()
	res, err := on.SearchOpts(q, k)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// del is DeleteWithError on an index whose op log the test does not break:
// an error fails the test.
func del(tb testing.TB, idx *Index, id int) bool {
	tb.Helper()
	ok, err := idx.DeleteWithError(id)
	if err != nil {
		tb.Fatal(err)
	}
	return ok
}

func dist(a, b []float32) float64 {
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return math.Sqrt(s)
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Fatal("empty dataset must error")
	}
	if _, err := New([][]float32{{}}, Options{}); err == nil {
		t.Fatal("zero-dim vectors must error")
	}
	if _, err := New([][]float32{{1, 2}, {1}}, Options{}); err == nil {
		t.Fatal("ragged rows must error")
	}
	if _, err := New([][]float32{{1, 2}}, Options{C: 0.5}); err == nil {
		t.Fatal("C ≤ 1 must error")
	}
	if _, err := NewFromFlat([]float32{1, 2, 3}, 2, 2, Options{}); err == nil {
		t.Fatal("flat size mismatch must error")
	}
	if _, err := NewFromFlat([]float32{1, 2}, 0, 2, Options{}); err == nil {
		t.Fatal("n = 0 must error")
	}
}

func TestSearchBasics(t *testing.T) {
	data, queries := clusteredData(3000, 32, 1)
	idx, err := New(data, Options{K: 8, L: 4, T: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if idx.Len() != 3000 || idx.Dim() != 32 {
		t.Fatalf("Len=%d Dim=%d", idx.Len(), idx.Dim())
	}
	for _, q := range queries {
		hits := search(t, idx, q, 5)
		if len(hits) != 5 {
			t.Fatalf("got %d hits", len(hits))
		}
		prev := -1.0
		for _, h := range hits {
			if h.ID < 0 || h.ID >= 3000 {
				t.Fatalf("id %d out of range", h.ID)
			}
			if h.Dist < prev {
				t.Fatal("hits not sorted")
			}
			prev = h.Dist
			// The kernels difference components in float32 (the data's own
			// precision), so agreement with the float64 reference is
			// relative, not exact.
			if got := dist(q, data[h.ID]); math.Abs(got-h.Dist) > 1e-6*(1+got) {
				t.Fatalf("distance mismatch: %v vs %v", h.Dist, got)
			}
		}
	}
}

func TestSearchOne(t *testing.T) {
	data, queries := clusteredData(1000, 16, 2)
	idx, err := New(data, Options{K: 6, L: 3, T: 30, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	hits := search(t, idx, queries[0], 1)
	if len(hits) != 1 {
		t.Fatalf("k = 1 found %d neighbors", len(hits))
	}
	r := hits[0]
	// Must be close to the true NN (c² guarantee, usually exact).
	best := math.Inf(1)
	for _, p := range data {
		if d := dist(queries[0], p); d < best {
			best = d
		}
	}
	if r.Dist > 2.25*best+1e-9 {
		t.Fatalf("nearest dist %v vs true NN %v breaks c² bound", r.Dist, best)
	}
}

func TestSearcherStats(t *testing.T) {
	data, queries := clusteredData(2000, 16, 3)
	idx, err := New(data, Options{K: 8, L: 4, T: 30, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	hits, err := idx.NewSearcher().SearchOpts(queries[0], 5, WithStats(&st))
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 5 {
		t.Fatalf("got %d hits", len(hits))
	}
	if st.Candidates <= 0 || st.Rounds <= 0 || st.FinalRadius <= 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
}

func TestParamsDefaulting(t *testing.T) {
	data, _ := clusteredData(500, 8, 4)
	idx, err := New(data, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	p := idx.Params()
	if p.C != 1.5 {
		t.Fatalf("default C = %v", p.C)
	}
	if p.W0 != 9 {
		t.Fatalf("default W0 = %v", p.W0)
	}
	if p.K < 1 || p.L < 1 || p.T < 1 {
		t.Fatalf("underived params %+v", p)
	}
	if idx.IndexSizeBytes() <= 0 {
		t.Fatal("IndexSizeBytes must be positive")
	}
}

func TestNewFromFlatSharesStorage(t *testing.T) {
	flat := make([]float32, 100*8)
	rng := rand.New(rand.NewSource(5))
	for i := range flat {
		flat[i] = float32(rng.NormFloat64())
	}
	idx, err := NewFromFlat(flat, 100, 8, Options{K: 4, L: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	q := flat[:8]
	hits := search(t, idx, q, 1)
	if hits[0].ID != 0 || hits[0].Dist != 0 {
		t.Fatalf("self-query returned %+v", hits[0])
	}
}

func TestRecallEndToEnd(t *testing.T) {
	data, queries := clusteredData(8000, 48, 6)
	idx, err := New(data, Options{K: 10, L: 5, T: 100, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	k := 10
	var recall float64
	for _, q := range queries {
		hits := search(t, idx, q, k)
		// Brute-force truth.
		type pair struct {
			id int
			d  float64
		}
		best := make([]pair, 0, len(data))
		for i, p := range data {
			best = append(best, pair{i, dist(q, p)})
		}
		for i := 0; i < k; i++ {
			minJ := i
			for j := i + 1; j < len(best); j++ {
				if best[j].d < best[minJ].d {
					minJ = j
				}
			}
			best[i], best[minJ] = best[minJ], best[i]
		}
		truth := map[int]bool{}
		for i := 0; i < k; i++ {
			truth[best[i].id] = true
		}
		hit := 0
		for _, h := range hits {
			if truth[h.ID] {
				hit++
			}
		}
		recall += float64(hit) / float64(k)
	}
	recall /= float64(len(queries))
	if recall < 0.85 {
		t.Fatalf("end-to-end recall %v too low", recall)
	}
}

// TestNonFiniteInputRejected: NaN and ±Inf coordinates are refused at the
// library boundary under every metric — at build time and by Add, where on a
// durable index the refusal must come before the op log sees the vector.
func TestNonFiniteInputRejected(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	data, _ := clusteredData(300, 8, 21)
	for _, m := range []Metric{Euclidean, Cosine, InnerProduct} {
		opts := Options{Metric: m, Seed: 21}
		for _, bad := range []float32{nan, inf, -inf} {
			flat := make([]float32, 0, len(data)*8)
			for _, row := range data {
				flat = append(flat, row...)
			}
			flat[5*8+3] = bad
			if _, err := NewFromFlat(flat, len(data), 8, opts); err == nil {
				t.Fatalf("%v: NewFromFlat accepted a %v coordinate", m, bad)
			}
		}

		mem, err := New(data, opts)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		dur := mustOpen(t, dir, Options{Dim: 8, Metric: m, Seed: 21, NormBound: mem.Params().NormBound})
		if _, err := dur.Add(data[0]); err != nil {
			t.Fatal(err)
		}
		logged, _ := dur.Durability()
		for _, idx := range []*Index{mem, dur} {
			before := idx.Len()
			for _, bad := range []float32{nan, inf, -inf} {
				v := append([]float32(nil), data[1]...)
				v[7] = bad
				if _, err := idx.Add(v); err == nil {
					t.Fatalf("%v: Add accepted a %v coordinate", m, bad)
				}
			}
			if idx.Len() != before {
				t.Fatalf("%v: rejected adds changed Len %d → %d", m, before, idx.Len())
			}
		}
		if after, _ := dur.Durability(); after.LogBytes != logged.LogBytes || after.OpsSinceCheckpoint != logged.OpsSinceCheckpoint {
			t.Fatalf("%v: a rejected add reached the op log: %+v → %+v", m, logged, after)
		}
		if err := dur.Close(); err != nil {
			t.Fatal(err)
		}
		// Nothing unreplayable was logged: the store reopens to one vector.
		re := mustOpen(t, dir, Options{})
		if re.Len() != 1 {
			t.Fatalf("%v: reopened with %d vectors, want 1", m, re.Len())
		}
		re.Close()
	}
}

// TestNonFiniteQueryRejected: a query with a NaN or ±Inf coordinate is
// refused with an error by every query entry point, on a one-shard and on a
// sharded index, under every metric, and costs no traversal: the statistics
// stay untouched.
func TestNonFiniteQueryRejected(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	data, queries := clusteredData(400, 8, 23)
	for _, m := range []Metric{Euclidean, Cosine, InnerProduct} {
		for _, shards := range []int{1, 3} {
			idx, err := New(data, Options{Metric: m, Seed: 23, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			s := idx.NewSearcher()
			for _, bad := range []float32{nan, inf, -inf} {
				q := append([]float32(nil), queries[0]...)
				q[5] = bad
				name := fmt.Sprintf("%v/shards=%d/%v", m, shards, bad)
				st := Stats{Candidates: -1}
				if res, err := idx.SearchOpts(q, 3, WithStats(&st)); err == nil || res != nil {
					t.Fatalf("%s: Index.SearchOpts = %v, %v", name, res, err)
				} else if !strings.Contains(err.Error(), "coordinate 5") {
					t.Fatalf("%s: error %q does not name the coordinate", name, err)
				}
				if st.Candidates != -1 {
					t.Fatalf("%s: a refused query wrote statistics: %+v", name, st)
				}
				if res, err := s.SearchOpts(q, 3); err == nil || res != nil {
					t.Fatalf("%s: Searcher.SearchOpts = %v, %v", name, res, err)
				}
				if _, ok, err := s.SearchRadiusOpts(q, 1); err == nil || ok {
					t.Fatalf("%s: SearchRadiusOpts = %v, %v", name, ok, err)
				}
				if res, err := idx.SearchBatchOpts([][]float32{queries[1], q}, 3); err == nil || res != nil {
					t.Fatalf("%s: SearchBatchOpts = %v, %v", name, res, err)
				} else if want := fmt.Sprintf("dblsh: coordinate 5 is %v; vectors must be finite (query 1)", bad); err.Error() != want || errors.Unwrap(err) == nil {
					t.Fatalf("%s: batch error %q, want %q wrapping the query's own error", name, err, want)
				}
			}
			// The searcher is unharmed.
			if res := search(t, s, queries[0], 3); len(res) != 3 {
				t.Fatalf("%v/shards=%d: finite query after the refusals got %d results", m, shards, len(res))
			}
		}
	}
}

// TestHugeKReturnsEveryLiveRow: a k far beyond the rows an index holds asks
// for all of them. It must not reserve k result slots — 1<<40 of them is an
// unrecoverable out-of-memory fault — and returns min(k, live) results
// through every k-NN entry point, on one shard and on four, with a deleted
// row left out. A k at the int limit, where the 2tL+k budget would
// overflow, does the same. A k within the rows still returns exactly k.
func TestHugeKReturnsEveryLiveRow(t *testing.T) {
	const n, huge, gone = 200, 1 << 40, 7
	data, queries := clusteredData(n, 8, 31)
	for _, shards := range []int{1, 4} {
		idx, err := New(data, Options{Shards: shards, Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		if !del(t, idx, gone) {
			t.Fatalf("shards=%d: delete %d failed", shards, gone)
		}
		check := func(via string, res []Result) {
			t.Helper()
			if len(res) != n-1 {
				t.Fatalf("shards=%d %s: %d results, want the %d live rows", shards, via, len(res), n-1)
			}
			seen := make(map[int]bool, len(res))
			for i, r := range res {
				if r.ID == gone || seen[r.ID] || (i > 0 && r.Dist < res[i-1].Dist) {
					t.Fatalf("shards=%d %s: result %d (id %d) is deleted, repeated or out of order", shards, via, i, r.ID)
				}
				seen[r.ID] = true
			}
		}
		check("Index.SearchOpts", search(t, idx, queries[0], huge))
		check("k = MaxInt", search(t, idx, queries[2], math.MaxInt))
		res, err := idx.NewSearcher().SearchOpts(queries[1], huge)
		if err != nil {
			t.Fatal(err)
		}
		check("Searcher.SearchOpts", res)
		batch, err := idx.SearchBatchOpts(queries[:3], huge)
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range batch {
			check("SearchBatchOpts", res)
		}
		if got := len(search(t, idx, queries[0], 10)); got != 10 {
			t.Fatalf("shards=%d: k=10 returned %d results", shards, got)
		}
	}
}

// TestBadQueryRejected: a query of the wrong dimension and a k below 1 are
// errors on every query entry point, on one shard and on three. A batch
// checks every query on the caller's goroutine before any worker starts,
// so the bad query fails the batch with its index named at one worker and
// at four alike, instead of panicking in a worker goroutine. The searcher
// keeps answering afterwards.
func TestBadQueryRejected(t *testing.T) {
	data, queries := clusteredData(400, 8, 33)
	short := queries[0][:7]
	for _, shards := range []int{1, 3} {
		idx, err := New(data, Options{Seed: 33, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		s := idx.NewSearcher()
		for _, bad := range []struct {
			name string
			q    []float32
			k    int
		}{{"dim 7", short, 3}, {"k = 0", queries[0], 0}, {"k = -1", queries[0], -1}} {
			name := fmt.Sprintf("shards=%d/%s", shards, bad.name)
			if res, err := idx.SearchOpts(bad.q, bad.k); err == nil || res != nil {
				t.Fatalf("%s: Index.SearchOpts = %v, %v", name, res, err)
			}
			if res, err := s.SearchOpts(bad.q, bad.k); err == nil || res != nil {
				t.Fatalf("%s: Searcher.SearchOpts = %v, %v", name, res, err)
			}
			batch := [][]float32{queries[1], bad.q}
			for _, procs := range []int{1, 4} {
				prev := runtime.GOMAXPROCS(procs)
				res, err := idx.SearchBatchOpts(batch, bad.k)
				runtime.GOMAXPROCS(prev)
				if err == nil || res != nil {
					t.Fatalf("%s GOMAXPROCS=%d: SearchBatchOpts = %v, %v", name, procs, res, err)
				}
				want := "dblsh: query dim 7, index dim 8 (query 1)"
				if bad.k < 1 { // k is wrong for every query
					want = fmt.Sprintf("dblsh: k must be positive, got %d (query 0)", bad.k)
				}
				if err.Error() != want || errors.Unwrap(err) == nil {
					t.Fatalf("%s GOMAXPROCS=%d: batch error %q, want %q wrapping the query's own error", name, procs, err, want)
				}
			}
		}
		if _, ok, err := s.SearchRadiusOpts(short, 1); err == nil || ok {
			t.Fatalf("shards=%d: SearchRadiusOpts on dim 7 = %v, %v", shards, ok, err)
		}
		if res := search(t, s, queries[0], 3); len(res) != 3 {
			t.Fatalf("shards=%d: the searcher answered %d results after the refusals", shards, len(res))
		}
	}
}

// TestHostilePerQueryValues: a per-query value that cannot mean anything —
// a NaN, infinite or negative radius, a NaN cap or early-stop factor, a
// candidate constant beyond what Options.T may be — is an error, under
// Euclidean and Cosine alike, and the query does not run.
func TestHostilePerQueryValues(t *testing.T) {
	nan := math.NaN()
	data, queries := clusteredData(400, 8, 35)
	q := queries[0]
	cases := []struct {
		name string
		run  func(s *Searcher) error
	}{
		{"radius NaN", func(s *Searcher) error { _, _, err := s.SearchRadiusOpts(q, nan); return err }},
		{"radius -1", func(s *Searcher) error { _, _, err := s.SearchRadiusOpts(q, -1); return err }},
		{"radius +Inf", func(s *Searcher) error { _, _, err := s.SearchRadiusOpts(q, math.Inf(1)); return err }},
		{"max radius NaN", func(s *Searcher) error { _, err := s.SearchOpts(q, 10, WithMaxRadius(nan)); return err }},
		{"max radius +Inf", func(s *Searcher) error { _, err := s.SearchOpts(q, 10, WithMaxRadius(math.Inf(1))); return err }},
		{"early stop NaN", func(s *Searcher) error { _, err := s.SearchOpts(q, 10, WithEarlyStop(nan)); return err }},
		{"budget 2^62", func(s *Searcher) error { _, err := s.SearchOpts(q, 10, WithCandidateBudget(1<<62)); return err }},
		{"budget maxT+1", func(s *Searcher) error { _, err := s.SearchOpts(q, 10, WithCandidateBudget(maxT+1)); return err }},
		{"batch max radius NaN", func(s *Searcher) error {
			_, err := s.idx.SearchBatchOpts(queries, 10, WithMaxRadius(nan))
			return err
		}},
	}
	for _, m := range []Metric{Euclidean, Cosine} {
		idx, err := New(data, Options{Metric: m, Seed: 35})
		if err != nil {
			t.Fatal(err)
		}
		s := idx.NewSearcher()
		for _, c := range cases {
			st := Stats{Candidates: -1}
			if err := c.run(s); err == nil {
				t.Fatalf("%v/%s: accepted", m, c.name)
			}
			if _, err := s.SearchOpts(q, 10, WithStats(&st)); err != nil || st.Candidates < 1 {
				t.Fatalf("%v/%s: the searcher does not answer afterwards: %+v, %v", m, c.name, st, err)
			}
		}
		// The largest candidate constant Options.T allows is a valid budget.
		if res, err := s.SearchOpts(q, 10, WithCandidateBudget(maxT)); err != nil || len(res) != 10 {
			t.Fatalf("%v: budget maxT: %d results, %v", m, len(res), err)
		}
		if _, _, err := s.SearchRadiusOpts(q, 0); err != nil {
			t.Fatalf("%v: radius 0: %v", m, err)
		}
	}
}
