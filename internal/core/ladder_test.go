package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"dblsh/internal/rstar"
	"dblsh/internal/vec"
)

// ladderIndex builds a small random index for the differential tests.
func ladderIndex(seed int64, n, d int) (*Index, *vec.Matrix, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	data := vec.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			data.Row(i)[j] = float32(rng.NormFloat64() * 8)
		}
	}
	idx := Build(data, Config{C: 1.5, K: 5, L: 3, T: 12, Seed: seed})
	return idx, data, rng
}

// refLadder is the reference the round driver is checked against:
// Algorithm 2 as the paper states it, sharing none of the driver's
// traversal, blocking or verification code. Each round re-runs the L window
// queries root to leaf over the trees' arenas (windowScan), skips the points
// an earlier window reported, and verifies one candidate at a time with an
// exact distance.
type refLadder struct {
	idx   *Index
	q     []float32
	qhash [][]float32
	seen  map[int]bool
}

func newRefLadder(idx *Index, q []float32) *refLadder {
	rl := &refLadder{idx: idx, q: q, seen: map[int]bool{}}
	for i := 0; i < idx.cfg.L; i++ {
		rl.qhash = append(rl.qhash, idx.family.Compound(i).Hash(nil, q))
	}
	return rl
}

// windows hands visit, in the order root-to-leaf scans meet them, the
// points inside the L windows of width w0·r that no earlier scan reported,
// until visit returns false; it reports whether it got to the end.
func (rl *refLadder) windows(r float64, visit func(id int) bool) bool {
	for i, tr := range rl.idx.trees {
		if !rl.scan(tr, rstar.WindowRect(rl.qhash[i], rl.idx.cfg.W0*r), visit) {
			return false
		}
	}
	return true
}

func (rl *refLadder) scan(tr *rstar.Tree, w rstar.Rect, visit func(id int) bool) bool {
	return windowScan(tr.Snapshot(), rl.idx.cfg.K, w, func(id int) bool {
		if rl.seen[id] {
			return true
		}
		rl.seen[id] = true
		return visit(id)
	})
}

// windowScan is the window query read straight off a tree's arena: root to
// leaf, a child entered when its rectangle meets w, a leaf entry reported
// when its point (lane j of the leaf's block) lies inside w, faces
// inclusive, one scalar comparison at a time; then the same from the tail
// node, the first slot the root does not reach, when there is one. It stops
// when visit returns false and reports whether it got to the end.
func windowScan(a rstar.Arena, k int, w rstar.Rect, visit func(id int) bool) bool {
	slots := len(a.Heads) / 2
	ecap, blockLen := len(a.Ents)/slots, len(a.Blocks)/slots
	stride := blockLen / k
	inside := func(lo, hi []float32) bool {
		for d := range k {
			if lo[d] > w.Max[d] || hi[d] < w.Min[d] {
				return false
			}
		}
		return true
	}
	reached := make([]bool, slots)
	var walk func(n int) bool
	walk = func(n int) bool {
		reached[n] = true
		ents := a.Ents[n*ecap : n*ecap+int(a.Heads[2*n])]
		if a.Heads[2*n+1]>>16 != 0 { // interior
			reached[n+1] = true
			for _, c := range ents {
				r := a.Rects[int(c)*2*k : (int(c)+1)*2*k]
				if !inside(r[:k], r[k:]) {
					markAll(a, ecap, int(c), reached)
				} else if !walk(int(c)) {
					return false
				}
			}
			return true
		}
		p := make([]float32, k)
		for j, id := range ents {
			for d := range p {
				p[d] = a.Blocks[n*blockLen+d*stride+j]
			}
			if inside(p, p) && !visit(int(id)) {
				return false
			}
		}
		return true
	}
	if !walk(int(a.Root)) {
		return false
	}
	if tail := slices.Index(reached, false); tail >= 0 {
		return walk(tail)
	}
	return true
}

// markAll marks every slot of the subtree at n reached.
func markAll(a rstar.Arena, ecap, n int, reached []bool) {
	reached[n] = true
	if a.Heads[2*n+1]>>16 != 0 {
		reached[n+1] = true
		for _, c := range a.Ents[n*ecap : n*ecap+int(a.Heads[2*n])] {
			markAll(a, ecap, int(c), reached)
		}
	}
}

// everywhere returns the k-dimensional window that holds every point.
func everywhere(k int) rstar.Rect {
	w := rstar.Rect{Min: make([]float32, k), Max: make([]float32, k)}
	for d := range k {
		w.Min[d], w.Max[d] = float32(math.Inf(-1)), float32(math.Inf(1))
	}
	return w
}

// covers reports whether the windows of radius r contain every tree.
func (rl *refLadder) covers(r float64) bool {
	for i, tr := range rl.idx.trees {
		if !tr.Covered(rl.qhash[i], rl.idx.cfg.W0*r/2) {
			return false
		}
	}
	return true
}

// dist is the exact distance of point id to the query (the bounded kernel
// at +Inf: the row accumulation the production blocks use).
func (rl *refLadder) dist(id int) float64 {
	var d [1]float64
	vec.SquaredDistsToBounded(rl.q, rl.idx.data, []int{id}, math.Inf(1), d[:])
	return math.Sqrt(d[0])
}

// refKANN answers a (c,k)-ANN query the reference way: Algorithm 2 with
// the Section IV-C (c,k) rules — budget 2tL+k, stop once the k-th best is
// within stopFactor·c·r — and one covering sweep through the first tree once
// the next windows would contain every projected point.
func refKANN(idx *Index, q []float32, k int, p QueryParams) ([]vec.Neighbor, Stats) {
	rl := newRefLadder(idx, q)
	t, stopFactor := p.resolve(idx.cfg)
	budget, stopC := 2*t*idx.cfg.L+k, stopFactor*idx.cfg.C
	cand := vec.NewTopK(k)
	var st Stats
	r, sweep := idx.r0, false
	verify := func(id int) bool {
		if idx.isDeleted(id) || p.Filter != nil && !p.Filter(id) {
			return true
		}
		cand.Push(id, rl.dist(id))
		st.Candidates++
		w, full := cand.Worst()
		return st.Candidates < budget && (sweep || !full || w > stopC*r)
	}
	for p.MaxRadius <= 0 || r <= p.MaxRadius {
		st.Rounds++
		st.FinalR = r
		if !rl.windows(r, verify) {
			break
		}
		if w, full := cand.Worst(); full && w <= stopC*r || st.Candidates >= idx.Live() {
			break
		}
		r *= idx.cfg.C
		if (p.MaxRadius <= 0 || r <= p.MaxRadius) && rl.covers(r) {
			sweep = true
			rl.scan(idx.trees[0], everywhere(idx.cfg.K), verify)
			break
		}
	}
	return cand.Results(), st
}

// diffOneQuery runs one (c,k)-ANN query through the round driver and the
// reference ladder and fails if anything observable differs: ids,
// distances, candidate count, round count or final radius.
func diffOneQuery(t *testing.T, idx *Index, q []float32, k int, p QueryParams) {
	t.Helper()
	s := idx.NewSearcher()
	got, err := s.KANNParams(q, k, p)
	if err != nil {
		t.Fatal(err)
	}
	want, wst := refKANN(idx, q, k, p)
	if len(got) != len(want) {
		t.Fatalf("result count mismatch: driver %d, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("result %d mismatch: driver %+v, reference %+v", i, got[i], want[i])
		}
	}
	gst := s.LastStats()
	if gst.Candidates != wst.Candidates {
		t.Fatalf("candidate count mismatch: driver %d, reference %d", gst.Candidates, wst.Candidates)
	}
	if gst.Rounds != wst.Rounds {
		t.Fatalf("round count mismatch: driver %d, reference %d", gst.Rounds, wst.Rounds)
	}
	if gst.FinalR != wst.FinalR {
		t.Fatalf("final radius mismatch: driver %v, reference %v", gst.FinalR, wst.FinalR)
	}
}

// TestLadderEquivalence is the differential property test of the round
// driver: across random datasets, ks, filters, deletes and per-query
// overrides, the cursor ladder must answer every query exactly like the
// reference window re-scan ladder — same neighbors, same distances, same
// candidate and round counts.
func TestLadderEquivalence(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		n := 150 + int(seed%5)*80
		idx, data, rng := ladderIndex(seed, n, 6)

		// A random subset of deletes.
		for i := 0; i < n/10; i++ {
			idx.Delete(rng.Intn(n))
		}

		for trial := 0; trial < 4; trial++ {
			q := make([]float32, data.Dim())
			for j := range q {
				q[j] = float32(rng.NormFloat64() * 8)
			}
			k := 1 + rng.Intn(20)
			var p QueryParams
			switch trial {
			case 1:
				p.T = 1 + rng.Intn(5) // tight budget: mid-block stops
			case 2:
				mod := 2 + rng.Intn(3)
				p.Filter = func(id int) bool { return id%mod == 0 }
			case 3:
				p.EarlyStopFactor = 1 + rng.Float64()*2
				p.MaxRadius = 0.5 + rng.Float64()*20
			}
			diffOneQuery(t, idx, q, k, p)
		}
	}
}

// TestLadderEquivalenceSelfQueries hits the exact-match path (distance 0
// candidates, immediate termination tests) which stresses stop handling
// at block boundaries.
func TestLadderEquivalenceSelfQueries(t *testing.T) {
	idx, data, _ := ladderIndex(42, 300, 5)
	for i := 0; i < 25; i++ {
		diffOneQuery(t, idx, data.Row(i*7%300), 1+i%10, QueryParams{})
	}
}

// TestRNearBlockedContract checks the blocked RNear path still honors
// Algorithm 1's contract on random instances (the scalar loop it replaced
// is gone; the property is the observable anchor).
func TestRNearBlockedContract(t *testing.T) {
	idx, data, rng := ladderIndex(77, 250, 5)
	s := idx.NewSearcher()
	for trial := 0; trial < 40; trial++ {
		q := make([]float32, data.Dim())
		for j := range q {
			q[j] = float32(rng.NormFloat64() * 8)
		}
		r := 0.5 + rng.Float64()*10
		nb, ok := rnear(s, q, r)
		if !ok {
			continue
		}
		budget := 2*idx.cfg.T*idx.cfg.L + 1
		if s.LastStats().Candidates < budget && nb.Dist > idx.cfg.C*r+1e-9 {
			t.Fatalf("RNear returned %v beyond c·r = %v without exhausting budget", nb.Dist, idx.cfg.C*r)
		}
		if vec.Dist(q, data.Row(nb.ID)) != nb.Dist {
			t.Fatalf("RNear distance %v is not the true distance", nb.Dist)
		}
	}
}

// TestCursorReArmMidQuery pins the mutate-during-query contract
// deterministically: a query paused between rounds (where the driver holds
// no lock) observes points inserted in the pause through the explicit
// re-arm path, exactly as the reference window re-scan would.
func TestCursorReArmMidQuery(t *testing.T) {
	idx, data, _ := ladderIndex(5, 200, 4)
	q := make([]float32, data.Dim()) // query at the origin

	// Never full and never out of budget: every round emits its whole shell.
	s := idx.NewSearcher()
	qr := query{pt: s.one, cand: vec.NewTopK(1000), budget: math.MaxInt}
	qr.start(q)
	rl := newRefLadder(idx, q)
	rseen := map[int]bool{}
	ref := func(r float64) {
		rl.windows(r, func(id int) bool {
			rseen[id] = true
			return true
		})
	}
	qr.round(q, 1.0, 1.0, false)
	ref(1.0)

	// Pause: a point lands exactly at the query. Both traversals must pick
	// it up in the next round.
	newID := idx.Insert(make([]float32, data.Dim()))
	if s.CursorReArms() != 0 {
		t.Fatal("cursor re-armed before any mutation")
	}
	qr.round(q, 2.0, 2.0, false)
	ref(2.0)
	if s.CursorReArms() != idx.cfg.L {
		t.Fatalf("expected %d cursor re-arms (one per tree), got %d", idx.cfg.L, s.CursorReArms())
	}
	cseen := map[int]bool{}
	for _, nb := range qr.cand.Results() {
		cseen[nb.ID] = true
	}
	if !cseen[newID] {
		t.Fatal("cursor ladder missed the point inserted mid-query")
	}
	if !rseen[newID] {
		t.Fatal("re-scan ladder missed the point inserted mid-query")
	}
	if len(cseen) != len(rseen) {
		t.Fatalf("traversals diverged after mid-query insert: cursor saw %d, re-scan %d", len(cseen), len(rseen))
	}
	for id := range rseen {
		if !cseen[id] {
			t.Fatalf("cursor ladder missed id %d the re-scan reported", id)
		}
	}
}

// TestTraversalZeroAllocs pins the pooling contract: once warm, a query
// allocates nothing beyond its result — the top-k collector and the sorted
// copy it hands back — however many rounds its traversal runs, sweep
// included.
func TestTraversalZeroAllocs(t *testing.T) {
	idx, data, _ := ladderIndex(3, 2000, 6)
	s := idx.NewSearcher()
	q := data.Row(1)
	const k = 10
	// Fewer than k rows pass: the ladder runs to the covering sweep.
	p := QueryParams{Filter: func(id int) bool { return id%401 == 5 }}
	dense := len(s.KANN(q, k)) // warms the buffers
	res, err := s.KANNParams(q, k, p)
	if err != nil || s.LastStats().Rounds < 2 {
		t.Fatalf("the sparse query ran %d rounds (err %v); it must run to the sweep", s.LastStats().Rounds, err)
	}
	query := func() {
		s.KANN(q, k)
		s.KANNParams(q, k, p)
	}
	result := func() {
		for _, m := range []int{dense, len(res)} {
			cand := vec.NewTopK(k)
			for i := 0; i < m; i++ {
				cand.Push(i, float64(i))
			}
			cand.Results()
		}
	}
	if got, want := testing.AllocsPerRun(50, query), testing.AllocsPerRun(50, result); got != want {
		t.Fatalf("two queries allocate %v times, their results %v", got, want)
	}
}

// TestWideTreeClampsToCursorWidth covers a request for a node capacity the
// cursor bitmasks cannot represent (MaxEntries > 64): it resolves to 64,
// and the index built with it answers correctly.
func TestWideTreeClampsToCursorWidth(t *testing.T) {
	if got := (rstar.Options{MaxEntries: 128}).Resolved().MaxEntries; got != 64 {
		t.Fatalf("MaxEntries 128 resolves to %d, want 64", got)
	}
	rng := rand.New(rand.NewSource(2))
	data := vec.NewMatrix(300, 5)
	for i := 0; i < 300; i++ {
		for j := 0; j < 5; j++ {
			data.Row(i)[j] = float32(rng.NormFloat64() * 8)
		}
	}
	idx := Build(data, Config{C: 1.5, K: 4, L: 2, T: 20, Seed: 2, Tree: rstar.Options{MaxEntries: 128}})
	res := idx.NewSearcher().KANN(data.Row(3), 5)
	if len(res) != 5 || res[0].ID != 3 || res[0].Dist != 0 {
		t.Fatalf("wide-tree query broken: %+v", res)
	}
}

// FuzzLadderEquivalence drives the driver/reference differential with
// fuzzer-chosen datasets, queries, k, budgets, filters and deletes.
func FuzzLadderEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(0), uint8(0), false)
	f.Add(int64(7), uint8(1), uint8(3), uint8(2), true)
	f.Add(int64(99), uint8(20), uint8(1), uint8(7), false)
	f.Fuzz(func(t *testing.T, seed int64, kRaw, tRaw, delRaw uint8, filter bool) {
		n := 120
		idx, data, rng := ladderIndex(seed, n, 4)
		for i := 0; i < int(delRaw)%40; i++ {
			idx.Delete(rng.Intn(n))
		}
		q := make([]float32, data.Dim())
		for j := range q {
			q[j] = float32(rng.NormFloat64() * 8)
		}
		p := QueryParams{T: int(tRaw) % 8}
		if filter {
			p.Filter = func(id int) bool { return id%3 != 1 }
		}
		k := 1 + int(kRaw)%25
		diffOneQuery(t, idx, q, k, p)
	})
}
