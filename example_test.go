package dblsh_test

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"dblsh"
)

// Build an index over a toy dataset and retrieve the nearest neighbors of a
// query vector.
func ExampleNew() {
	data := [][]float32{
		{0, 0}, {1, 0}, {0, 1},
		{10, 10}, {11, 10}, {10, 11},
	}
	idx, err := dblsh.New(data, dblsh.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	hits, err := idx.SearchOpts([]float32{10.2, 10.1}, 3)
	if err != nil {
		log.Fatal(err)
	}
	for _, h := range hits {
		fmt.Println(h.ID)
	}
	// Output:
	// 3
	// 4
	// 5
}

// Persist an index to a buffer (or file) and reload it; the reloaded index
// answers identically because construction is deterministic in the seed.
func ExampleIndex_WriteTo() {
	data := [][]float32{{0, 0}, {5, 5}, {9, 9}}
	idx, err := dblsh.New(data, dblsh.Options{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}

	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		log.Fatal(err)
	}
	loaded, err := dblsh.Read(&buf)
	if err != nil {
		log.Fatal(err)
	}
	hits, err := loaded.SearchOpts([]float32{4.8, 5.1}, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(hits[0].ID)
	// Output:
	// 1
}

// Grow and shrink a live index.
func ExampleIndex_Add() {
	data := [][]float32{{0, 0}, {100, 100}}
	// A tight approximation ratio makes the toy answers exact.
	idx, err := dblsh.New(data, dblsh.Options{C: 1.05, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	id, err := idx.Add([]float32{50, 50})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("added id:", id)

	hits, err := idx.SearchOpts([]float32{30, 30}, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("nearest:", hits[0].ID)

	if _, err := idx.DeleteWithError(id); err != nil {
		log.Fatal(err)
	}
	hits, err = idx.SearchOpts([]float32{30, 30}, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("after delete:", hits[0].ID)
	// Output:
	// added id: 2
	// nearest: 2
	// after delete: 0
}

// randVec draws a vector of independent N(0, scale²) coordinates.
func randVec(rng *rand.Rand, dim int, scale float64) []float32 {
	return jitter(rng, make([]float32, dim), scale)
}

// jitter returns base plus independent N(0, std²) noise on every coordinate.
func jitter(rng *rand.Rand, base []float32, std float64) []float32 {
	v := make([]float32, len(base))
	for i := range v {
		v[i] = base[i] + float32(rng.NormFloat64()*std)
	}
	return v
}

// mixture draws groups centers of coordinate spread scale and n points
// around them with noise std; group[i] is the center point i was drawn from.
func mixture(rng *rand.Rand, n, dim, groups int, scale, std float64) (data, centers [][]float32, group []int) {
	centers = make([][]float32, groups)
	for g := range centers {
		centers[g] = randVec(rng, dim, scale)
	}
	data, group = make([][]float32, n), make([]int, n)
	for i := range data {
		group[i] = rng.Intn(groups)
		data[i] = jitter(rng, centers[group[i]], std)
	}
	return data, centers, group
}

// exactTopK returns the ids of the k rows of data nearest q in Euclidean
// distance, nearest first: the linear scan the index saves.
func exactTopK(data [][]float32, q []float32, k int) []int {
	ids := make([]int, len(data))
	d := make([]float64, len(data))
	for i, p := range data {
		ids[i] = i
		for j := range p {
			x := float64(p[j]) - float64(q[j])
			d[i] += x * x
		}
	}
	sort.SliceStable(ids, func(a, b int) bool { return d[ids[a]] < d[ids[b]] })
	return ids[:k]
}

// recall is the fraction of the ids in want that res holds.
func recall(res []dblsh.Result, want []int) float64 {
	hit := 0
	for _, r := range res {
		for _, id := range want {
			if r.ID == id {
				hit++
			}
		}
	}
	return float64(hit) / float64(len(want))
}

// Build an index over clustered vectors with the paper's defaults and
// query it with perturbed copies of indexed points: the planted point comes
// back first, and the top 10 agree with an exact scan.
func Example() {
	rng := rand.New(rand.NewSource(7))
	data, _, _ := mixture(rng, 4000, 32, 40, 10, 1)
	idx, err := dblsh.New(data, dblsh.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	p := idx.Params()
	fmt.Printf("%d vectors of dim %d: K=%d L=%d c=%.1f w0=%.1f\n", idx.Len(), idx.Dim(), p.K, p.L, p.C, p.W0)

	var sum float64
	const queries = 50
	for i := 0; i < queries; i++ {
		target := rng.Intn(len(data))
		q := jitter(rng, data[target], 0.2)
		hits, err := idx.SearchOpts(q, 10)
		if err != nil {
			log.Fatal(err)
		}
		if i < 2 {
			fmt.Printf("query near %d: ", target)
			for _, h := range hits[:3] {
				fmt.Printf("%d (%.3f) ", h.ID, h.Dist)
			}
			fmt.Printf("exact nearest %d\n", exactTopK(data, q, 1)[0])
		}
		sum += recall(hits, exactTopK(data, q, 10))
	}
	fmt.Printf("recall@10 over %d queries: %.3f\n", queries, sum/queries)
	// Output:
	// 4000 vectors of dim 32: K=10 L=5 c=1.5 w0=9.0
	// query near 2612: 2612 (1.231) 3680 (5.619) 1891 (5.968) exact nearest 2612
	// query near 288: 288 (1.112) 1853 (5.204) 2306 (5.624) exact nearest 288
	// recall@10 over 50 queries: 1.000
}

// Search embeddings by cosine distance: the direction of a vector carries
// its meaning and its length is noise. Documents scatter around topic
// directions; the nearest document to a held-out query shares its topic.
func Example_cosine() {
	rng := rand.New(rand.NewSource(17))
	docs, topics, topicOf := mixture(rng, 3000, 48, 60, 1, 0.05)
	idx, err := dblsh.New(docs, dblsh.Options{Metric: dblsh.Cosine, Seed: 17})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d embeddings of dim %d under the %s metric\n", idx.Len(), idx.Dim(), idx.Metric())

	s := idx.NewSearcher()
	correct := 0
	const queries = 200
	for i := 0; i < queries; i++ {
		topic := rng.Intn(len(topics))
		// Scaling a query does not move it under the cosine metric.
		q := jitter(rng, topics[topic], 0.05)
		for j := range q {
			q[j] *= 3
		}
		hits, err := s.SearchOpts(q, 3)
		if err != nil {
			log.Fatal(err)
		}
		if topicOf[hits[0].ID] == topic {
			correct++
		}
		if i == 0 {
			for _, h := range hits {
				fmt.Printf("topic %d: doc %d of topic %d, cosine similarity %.3f\n", topic, h.ID, topicOf[h.ID], 1-h.Dist)
			}
		}
	}
	fmt.Printf("top-1 topic accuracy: %.1f%% of %d queries\n", 100*float64(correct)/queries, queries)
	// Output:
	// 3000 embeddings of dim 48 under the cosine metric
	// topic 0: doc 1259 of topic 0, cosine similarity 0.998
	// topic 0: doc 1824 of topic 0, cosine similarity 0.998
	// topic 0: doc 796 of topic 0, cosine similarity 0.998
	// top-1 topic accuracy: 100.0% of 200 queries
}

// Trade recall for work per query on one shared index: WithCandidateBudget
// sets t in the 2tL+k candidate budget, WithEarlyStop loosens the
// termination test. The corpus's groups overlap, so the true top 10 is
// barely closer than the next few hundred points and the knobs matter.
func Example_tuning() {
	rng := rand.New(rand.NewSource(11))
	data, centers, _ := mixture(rng, 4000, 48, 60, 1.2, 1)
	idx, err := dblsh.New(data, dblsh.Options{Seed: 8})
	if err != nil {
		log.Fatal(err)
	}
	const k = 10
	queries := make([][]float32, 30)
	truth := make([][]int, len(queries))
	for i := range queries {
		queries[i] = jitter(rng, centers[rng.Intn(len(centers))], 1)
		truth[i] = exactTopK(data, queries[i], k)
	}
	s := idx.NewSearcher()
	report := func(label string, opt dblsh.SearchOption) {
		var st dblsh.Stats
		var sum float64
		cands := 0
		for i, q := range queries {
			res, err := s.SearchOpts(q, k, opt, dblsh.WithStats(&st))
			if err != nil {
				log.Fatal(err)
			}
			sum += recall(res, truth[i])
			cands += st.Candidates
		}
		n := float64(len(queries))
		fmt.Printf("%-14s recall %.3f, %6.1f candidates\n", label, sum/n, float64(cands)/n)
	}
	for _, t := range []int{2, 10, 50, 200} {
		report(fmt.Sprintf("t=%d", t), dblsh.WithCandidateBudget(t))
	}
	for _, f := range []float64{1, 2, 4} {
		report(fmt.Sprintf("early stop %g", f), dblsh.WithEarlyStop(f))
	}
	// Output:
	// t=2            recall 0.257,   30.0 candidates
	// t=10           recall 0.547,  110.0 candidates
	// t=50           recall 0.873,  504.8 candidates
	// t=200          recall 0.997, 1614.5 candidates
	// early stop 1   recall 0.960,  973.4 candidates
	// early stop 2   recall 0.603,  126.5 candidates
	// early stop 4   recall 0.133,   11.2 candidates
}

// Find near-duplicates: every document asks for its nearest other
// document. WithFilter keeps the document itself out of the answer at no
// candidate cost, and WithMaxRadius ends the ladder once any hit would be
// too far to be a copy. SearchRadiusOpts asks the fixed-radius question
// directly.
func ExampleWithFilter() {
	const originals, copies, cut = 1800, 200, 2.0
	rng := rand.New(rand.NewSource(99))
	docs := make([][]float32, 0, originals+copies)
	for i := 0; i < originals; i++ {
		docs = append(docs, randVec(rng, 64, 1))
	}
	for i := 0; i < copies; i++ { // document originals+i is an edit of document i
		docs = append(docs, jitter(rng, docs[i], 0.05))
	}
	isDup := func(id int) bool { return id < copies || id >= originals }
	idx, err := dblsh.New(docs, dblsh.Options{T: 50, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}

	s := idx.NewSearcher()
	var st dblsh.Stats
	var tp, fp, fn, cands int
	for id, v := range docs {
		notSelf := dblsh.WithFilter(func(other int) bool { return other != id })
		res, err := s.SearchOpts(v, 1, notSelf, dblsh.WithMaxRadius(cut), dblsh.WithStats(&st))
		if err != nil {
			log.Fatal(err)
		}
		cands += st.Candidates
		flagged := len(res) == 1 && res[0].Dist < cut
		switch {
		case flagged && isDup(id):
			tp++
		case flagged:
			fp++
		case isDup(id):
			fn++
		}
	}
	fmt.Printf("%d documents: %d flagged correctly, %d wrongly, %d missed\n", len(docs), tp, fp, fn)
	fmt.Printf("%.1f exact distances per document\n", float64(cands)/float64(len(docs)))

	for _, id := range []int{originals + 5, copies + 5} {
		notSelf := dblsh.WithFilter(func(other int) bool { return other != id })
		r, ok, err := s.SearchRadiusOpts(docs[id], cut, notSelf)
		if err != nil {
			log.Fatal(err)
		}
		if ok {
			fmt.Printf("document %d: a copy of %d within %.1f (distance %.3f)\n", id, r.ID, cut, r.Dist)
		} else {
			fmt.Printf("document %d: no other document within %.1f\n", id, cut)
		}
	}
	// Output:
	// 2000 documents: 400 flagged correctly, 0 wrongly, 0 missed
	// 9.0 exact distances per document
	// document 1805: a copy of 5 within 2.0 (distance 0.412)
	// document 205: no other document within 2.0
}

// Serve searches, adds and deletes from several goroutines at once: each
// mutation takes the index's write lock briefly, a query holds its read
// lock for one ladder round at a time, and once the tombstones reach
// CompactFraction the index rebuilds in the background while it keeps
// serving. A final Compact reclaims what is left.
func ExampleIndex_Compact() {
	const n = 4000
	rng := rand.New(rand.NewSource(3))
	data, centers, _ := mixture(rng, n, 32, 40, 10, 1)
	idx, err := dblsh.New(data, dblsh.Options{Seed: 3, CompactFraction: 0.25})
	if err != nil {
		log.Fatal(err)
	}

	var wg sync.WaitGroup
	var full atomic.Int64 // searches that returned all k results
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			s := idx.NewSearcher()
			for i := 0; i < 200; i++ {
				res, err := s.SearchOpts(jitter(rng, centers[rng.Intn(len(centers))], 0.5), 10)
				if err != nil {
					log.Fatal(err)
				}
				if len(res) == 10 {
					full.Add(1)
				}
			}
		}(int64(100 + w))
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(200))
		for i := 0; i < 300; i++ {
			if _, err := idx.Add(jitter(rng, centers[rng.Intn(len(centers))], 1)); err != nil {
				log.Fatal(err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for _, id := range rand.New(rand.NewSource(300)).Perm(n)[:1200] {
			if _, err := idx.DeleteWithError(id); err != nil {
				log.Fatal(err)
			}
		}
	}()
	wg.Wait()

	idx.Compact()
	fmt.Printf("%d of 600 searches returned 10 results\n", full.Load())
	fmt.Printf("%d vectors, %d tombstones, next id %d\n", idx.Len(), idx.Deleted(), idx.NextID())
	st := idx.ShardStats()[0]
	fmt.Printf("%d live of %d resident\n", st.Live, st.Size)
	// Output:
	// 600 of 600 searches returned 10 results
	// 3100 vectors, 0 tombstones, next id 4300
	// 3100 live of 3100 resident
}

// Recover a durable store after a crash: every Add and DeleteWithError
// that returned is in the op log before it returns, so a store abandoned
// without Close reopens with all of them under their original ids.
func ExampleOpen() {
	dir, err := os.MkdirTemp("", "dblsh-example-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	const n, dim = 300, 16
	idx, err := dblsh.Open(dir, dblsh.Options{Dim: dim, Sync: dblsh.SyncAlways})
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	vecs := make([][]float32, n)
	for i := range vecs {
		vecs[i] = randVec(rng, dim, 10)
		if _, err := idx.Add(vecs[i]); err != nil {
			log.Fatal(err)
		}
	}
	for id := 0; id < n; id += 10 {
		if _, err := idx.DeleteWithError(id); err != nil {
			log.Fatal(err)
		}
	}
	st, _ := idx.Durability()
	fmt.Printf("before the crash: %d vectors, %d tombstoned, %d logged ops since the checkpoint\n",
		idx.Len(), idx.Deleted(), st.OpsSinceCheckpoint)
	// Crash: idx is abandoned without Close or Checkpoint.

	re, err := dblsh.Open(dir, dblsh.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer re.Close()
	back, gone := 0, 0
	for id, v := range vecs {
		hits, err := re.SearchOpts(v, 1)
		if err != nil {
			log.Fatal(err)
		}
		switch {
		case hits[0].ID == id && hits[0].Dist == 0:
			back++
		case id%10 == 0:
			gone++
		}
	}
	fmt.Printf("after reopening: %d adds back under their ids, %d deletes still applied\n", back, gone)
	id, err := re.Add(vecs[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("the next add gets id", id)
	if err := re.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	st, _ = re.Durability()
	fmt.Printf("after a checkpoint: %d ops to replay\n", st.OpsSinceCheckpoint)
	// Output:
	// before the crash: 300 vectors, 30 tombstoned, 330 logged ops since the checkpoint
	// after reopening: 270 adds back under their ids, 30 deletes still applied
	// the next add gets id 300
	// after a checkpoint: 0 ops to replay
}

// TestExamplesHaveOutput: go test compiles an example without an output
// block but never runs it, so every example in the package's test files
// must end in an "Output:" or "Unordered output:" comment.
func TestExamplesHaveOutput(t *testing.T) {
	paths, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, p := range paths {
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	examples := doc.Examples(files...)
	if len(examples) == 0 {
		t.Fatal("found no examples")
	}
	for _, ex := range examples {
		if ex.Output == "" && !ex.EmptyOutput {
			t.Errorf("Example%s has no output block, so go test never runs it", ex.Name)
		}
	}
}
