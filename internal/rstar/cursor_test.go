package rstar

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dblsh/internal/vec"
)

// cursorTree builds a random tree for cursor tests: n points in dim
// dimensions, bulk-loaded, plus extra inserted points when insert > 0.
func cursorTree(t *testing.T, seed int64, n, dim, insert int) (*Tree, *vec.Matrix) {
	t.Helper()
	return cursorTreeM(t, seed, n, dim, insert, 0)
}

// cursorTreeM is cursorTree at node capacity maxEntries (0: the default),
// checking the structural invariants — the window-test blocks among them —
// after every single insert.
func cursorTreeM(t *testing.T, seed int64, n, dim, insert, maxEntries int) (*Tree, *vec.Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := vec.NewMatrix(n, dim)
	for i := 0; i < n; i++ {
		for j := 0; j < dim; j++ {
			m.Row(i)[j] = float32(rng.NormFloat64() * 10)
		}
	}
	tr := Pack(m, Options{MaxEntries: maxEntries})
	if msg := tr.CheckInvariants(m); msg != "" {
		t.Fatalf("after bulk load: %s", msg)
	}
	for i := 0; i < insert; i++ {
		p := make([]float32, dim)
		for j := range p {
			p[j] = float32(rng.NormFloat64() * 10)
		}
		tr.InsertPoint(m.Append(p), p)
		if msg := tr.CheckInvariants(m); msg != "" {
			t.Fatalf("after insert %d: %s", i, msg)
		}
	}
	return tr, m
}

// drainRound pulls a whole round out of the cursor through NextBatch.
func drainRound(c *Cursor, half float64) []int32 {
	c.BeginRound(half)
	var out []int32
	buf := make([]int32, 7) // odd size: exercises batch-boundary resume
	for {
		m := c.NextBatch(buf)
		if m == 0 {
			break
		}
		out = append(out, buf[:m]...)
	}
	c.EndRound()
	return out
}

// oracleRound runs the same round as a Window re-scan, returning the
// depth-first ordered ids the cursor should newly report: window members
// not in reported.
func oracleRound(tr *Tree, center []float32, half float64, reported map[int32]bool) []int32 {
	w := WindowRect(center, 2*half)
	var out []int32
	tr.Window(w, func(id int) bool {
		if !reported[int32(id)] {
			out = append(out, int32(id))
		}
		return true
	})
	return out
}

// checkLadder drives a fresh cursor around center through rounds of
// half-width half, half·grow, … and requires every round's emissions to
// equal the window re-scan's unreported members, id for id and in
// depth-first order. It returns the cursor and the ids reported.
func checkLadder(t *testing.T, label string, tr *Tree, center []float32, half, grow float64, rounds int) (*Cursor, map[int32]bool) {
	t.Helper()
	cur := NewCursor(tr)
	cur.Reset(center)
	reported := map[int32]bool{}
	for round := 0; round < rounds; round++ {
		want := oracleRound(tr, center, half, reported)
		got := drainRound(cur, half)
		if len(got) != len(want) {
			t.Fatalf("%s round %d: cursor emitted %d, window re-scan %d", label, round, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s round %d: emission %d = %d, want %d (order mismatch)", label, round, i, got[i], want[i])
			}
			reported[got[i]] = true
		}
		half *= grow
	}
	return cur, reported
}

// randomCenter draws a query center at the scale of cursorTree's points.
func randomCenter(rng *rand.Rand, dim int) []float32 {
	center := make([]float32, dim)
	for j := range center {
		center[j] = float32(rng.NormFloat64() * 10)
	}
	return center
}

// exhausted reports whether the cursor's frontier is empty: every indexed
// point has been reported by some completed round, and none handed back.
func exhausted(c *Cursor) bool { return len(c.cur) == 0 && len(c.returned) == 0 }

// TestCursorLadderMatchesWindowRescan is the rstar-level differential
// test: across random trees, centers and geometric half-width ladders,
// every round's cursor emissions must equal the window re-scan's
// unreported members, id for id and in depth-first order.
func TestCursorLadderMatchesWindowRescan(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		tr, m := cursorTree(t, seed, 300+int(seed)*50, 4, 0)
		center := randomCenter(rand.New(rand.NewSource(seed^0x9e37)), m.Dim())
		cur, reported := checkLadder(t, fmt.Sprintf("seed %d", seed), tr, center, 0.5, 1.5, 14)
		if !exhausted(cur) && len(reported) == tr.Size() {
			t.Fatalf("seed %d: all points reported but frontier not exhausted", seed)
		}
	}
}

// TestCursorUnpopRediscovery hands back a suffix of a round's emissions
// and checks the next round re-reports exactly those points, in the
// oracle's depth-first order.
func TestCursorUnpopRediscovery(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		tr, m := cursorTree(t, seed, 400, 4, 0)
		center := randomCenter(rand.New(rand.NewSource(seed^0x51)), m.Dim())
		cur := NewCursor(tr)
		cur.Reset(center)
		reported := map[int32]bool{}

		half := 2.0
		got := drainRound(cur, half)
		if len(got) < 4 {
			continue // window too small to exercise the hand-back
		}
		// Consume a prefix; hand back the rest (as a stop mid-round would).
		cut := len(got) / 2
		for _, id := range got[:cut] {
			reported[id] = true
		}
		for i := cut; i < len(got); i++ {
			cur.Unpop(i)
		}

		want := oracleRound(tr, center, half*1.5, reported)
		next := drainRound(cur, half*1.5)
		if len(next) != len(want) {
			t.Fatalf("seed %d: after unpop got %d emissions, want %d", seed, len(next), len(want))
		}
		for i := range next {
			if next[i] != want[i] {
				t.Fatalf("seed %d: emission %d = %d, want %d after unpop", seed, i, next[i], want[i])
			}
		}
	}
}

// TestCursorAbandon checks that a cursor whose round was abandoned mid-walk
// recovers every unreported point once it is Reset.
func TestCursorAbandon(t *testing.T) {
	tr, m := cursorTree(t, 9, 400, 3, 0)
	cur := NewCursor(tr)
	center := make([]float32, m.Dim())
	cur.Reset(center)

	cur.BeginRound(4)
	buf := make([]int32, 3)
	n := cur.NextBatch(buf)
	reported := map[int32]bool{}
	for _, id := range buf[:n] {
		reported[id] = true
	}
	cur.Abandon()
	cur.Reset(center)

	want := oracleRound(tr, center, 6, reported)
	got := drainRound(cur, 6)
	fresh := got[:0]
	for _, g := range got {
		if !reported[g] {
			fresh = append(fresh, g)
		}
	}
	if len(fresh) != len(want) {
		t.Fatalf("after abandon+reset: %d fresh emissions, want %d", len(fresh), len(want))
	}
}

// TestCursorDrainReportsAll checks that an unbounded round drains every
// point exactly once across rounds and leaves the frontier exhausted.
func TestCursorDrainReportsAll(t *testing.T) {
	tr, m := cursorTree(t, 11, 600, 5, 40)
	cur := NewCursor(tr)
	center := make([]float32, m.Dim())
	cur.Reset(center)

	seen := map[int32]bool{}
	for _, id := range drainRound(cur, 3) {
		if seen[id] {
			t.Fatalf("id %d reported twice", id)
		}
		seen[id] = true
	}
	for _, id := range drainRound(cur, math.Inf(1)) {
		if seen[id] {
			t.Fatalf("id %d reported twice", id)
		}
		seen[id] = true
	}
	if len(seen) != tr.Size() {
		t.Fatalf("drained %d points, tree holds %d", len(seen), tr.Size())
	}
	if !exhausted(cur) {
		t.Fatal("frontier not exhausted after full drain")
	}
}

// TestCursorInsertedTreeEquivalence runs the ladder differential on a tree
// grown by Insert, whose last 300 points sit in the tail, not just on bulk
// loading.
func TestCursorInsertedTreeEquivalence(t *testing.T) {
	tr, m := cursorTree(t, 13, 200, 4, 300)
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 5; trial++ {
		checkLadder(t, fmt.Sprintf("trial %d", trial), tr, randomCenter(rng, m.Dim()), 1.0, 1.4, 10)
	}
}

// TestCursorLadderEquivalenceAcrossCapacities re-runs the rstar-level
// differential test on trees that took inserts at node capacities 4, 8 and
// 32 (one, one and four 8-lane vectors per block, padded and full; the
// first two repack inline, and all three end with a non-empty tail): every
// round's emission stream must equal the window re-scan's, id for id and in
// depth-first order, with the blocks verified after every insert.
func TestCursorLadderEquivalenceAcrossCapacities(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		capacity := []int{4, 8, 32}[seed%3]
		tr, m := cursorTreeM(t, seed, 300+int(seed)*50, 4, 120, capacity)
		center := randomCenter(rand.New(rand.NewSource(seed^0x9e37)), m.Dim())
		checkLadder(t, fmt.Sprintf("seed %d", seed), tr, center, 0.5, 1.5, 14)
		// And on the same tree saved and loaded, under whichever kernel row
		// the run is pinned to.
		loaded := reload(t, fmt.Sprintf("seed %d", seed), tr, m, m.Rows(), Options{MaxEntries: capacity})
		checkLadder(t, fmt.Sprintf("seed %d, loaded", seed), loaded, center, 0.5, 1.5, 14)
	}
}

// TestBlocksTrackMutation pins the window-test blocks' maintenance contract:
// whatever an Insert does — append to a tail leaf, open a new tail leaf or
// the tail itself, repack a full tail inline — every leaf block mirrors its
// entries' matrix rows and every internal block its children's rects,
// padding +Inf, when the Insert returns. The script must actually reach
// each of those paths at each capacity.
func TestBlocksTrackMutation(t *testing.T) {
	for _, sc := range []struct{ maxEntries, inserts int }{{4, 600}, {8, 600}, {32, 3000}} {
		rng := rand.New(rand.NewSource(77))
		m := vec.NewMatrix(150, 6)
		for i := 0; i < 150; i++ {
			for j := 0; j < 6; j++ {
				m.Row(i)[j] = float32(rng.NormFloat64() * 10)
			}
		}
		tr := Pack(m, Options{MaxEntries: sc.maxEntries})
		if msg := tr.CheckInvariants(m); msg != "" {
			t.Fatalf("M=%d after bulk load: %s", sc.maxEntries, msg)
		}
		newLeaves, repacks := 0, 0
		for i := 0; i < sc.inserts; i++ {
			p := make([]float32, 6)
			for j := range p {
				p[j] = float32(rng.NormFloat64() * 10)
			}
			before := tr.TailLen()
			tr.InsertPoint(m.Append(p), p)
			if msg := tr.CheckInvariants(m); msg != "" {
				t.Fatalf("M=%d after insert %d: %s", sc.maxEntries, i, msg)
			}
			switch after := tr.TailLen(); {
			case after < before:
				repacks++
			case after%sc.maxEntries == 1:
				newLeaves++
			}
		}
		if repacks < 2 || newLeaves < sc.maxEntries {
			t.Fatalf("M=%d: script too small: %d repacks, %d new tail leaves", sc.maxEntries, repacks, newLeaves)
		}
	}
	// Degenerate leaves: identical points, every rect a point, every sort
	// key a tie.
	dm := vec.NewMatrix(40, 3)
	for i := 0; i < 40; i++ {
		copy(dm.Row(i), []float32{1, 2, 3})
	}
	dt := Pack(dm, Options{})
	if msg := dt.CheckInvariants(dm); msg != "" {
		t.Fatalf("degenerate: %s", msg)
	}
	got := dt.WindowAll(WindowRect([]float32{1, 2, 3}, 0.5))
	if len(got) != 40 {
		t.Fatalf("degenerate window: got %d of 40", len(got))
	}
}

// BenchmarkCursorLadder times the traversal alone at the production shape: a
// bulk-loaded 100 000 × 10 tree at the default capacity, one op a whole
// ladder (half-width ×1.5 per round from well below the nearest neighbour,
// until a query's share of the candidate budget has streamed out) around a
// seeded centre, drained through NextBatch with the query layer's 64-id
// buffer. One sub-benchmark per registered kernel row; ns/node is the
// figure the benchmark's layer table reports as rstar.ns_per_node, here
// without the rest of a query around it.
func BenchmarkCursorLadder(b *testing.B) {
	const centres, share = 256, 250
	data := randomMatrix(100_000, 10, 1)
	tr := Pack(data, Options{})
	rng := rand.New(rand.NewSource(2))
	qs := vec.NewMatrix(centres, 10)
	for i := 0; i < centres; i++ {
		for j, v := range data.Row(rng.Intn(data.Rows())) {
			qs.Row(i)[j] = v + float32(rng.NormFloat64())
		}
	}
	defer vec.SetKernel(vec.KernelName())
	for _, name := range vec.KernelNames() {
		if err := vec.SetKernel(name); err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			cur := NewCursor(tr)
			buf := make([]int32, 64)
			nodes := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cur.Reset(qs.Row(i % centres))
				emitted := 0
				for half := 1.0; emitted < share; half *= 1.5 {
					cur.BeginRound(half)
					for m := cur.NextBatch(buf); m > 0; m = cur.NextBatch(buf) {
						emitted += m
					}
					cur.EndRound()
				}
				nodes += cur.NodesVisited()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodes), "ns/node")
			b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
		})
	}
}
