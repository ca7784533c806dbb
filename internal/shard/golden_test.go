package shard

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"dblsh/internal/core"
	"dblsh/internal/vec"
)

// goldenCorpus draws clustered rows and queries on a small-integer grid:
// every product and partial sum of a distance is then exact, so the kernel
// rows, which differ in summation order, agree to the bit and one digest
// holds under every DBLSH_KERNEL setting.
func goldenCorpus(n, d int, seed int64) ([]float32, [][]float32) {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]int, 16)
	for i := range centers {
		centers[i] = make([]int, d)
		for j := range centers[i] {
			centers[i][j] = rng.Intn(40)
		}
	}
	draw := func(dst []float32) {
		c := centers[rng.Intn(len(centers))]
		for j := range dst {
			dst[j] = float32(c[j] + rng.Intn(7) - 3)
		}
	}
	flat := make([]float32, n*d)
	for i := 0; i < n; i++ {
		draw(flat[i*d : (i+1)*d])
	}
	queries := make([][]float32, 12)
	for i := range queries {
		queries[i] = make([]float32, d)
		draw(queries[i])
	}
	return flat, queries
}

// goldenSettings are the per-query knobs every golden row is asked under.
var goldenSettings = []struct {
	name string
	k    int
	p    core.QueryParams
}{
	{"default", 10, core.QueryParams{}},
	{"k1", 1, core.QueryParams{}},
	{"t5", 10, core.QueryParams{T: 5}},
	{"t1-k40", 40, core.QueryParams{T: 1}},
	{"stop2", 10, core.QueryParams{EarlyStopFactor: 2}},
	{"maxr", 10, core.QueryParams{MaxRadius: 6}},
	{"filter", 10, core.QueryParams{Filter: func(g int) bool { return g%3 != 1 }}},
	{"filter-t5-stop1.5", 7, core.QueryParams{T: 5, EarlyStopFactor: 1.5, Filter: func(g int) bool { return g%5 == 0 }}},
	{"maxr-sparse", 10, core.QueryParams{MaxRadius: 3, Filter: func(g int) bool { return g%7 == 0 }}},
	// Fewer than k rows pass: the ladder runs to the covering sweep or to
	// cnt ≥ live.
	{"sweep", 10, core.QueryParams{Filter: func(g int) bool { return g%400 == 7 }}},
}

// ladderDigest folds one answer and its ladder accounting into answer, and
// what the traversal cost into nodes.
func ladderDigest(answer, nodes hash.Hash64, nbs []vec.Neighbor, st core.Stats) {
	var buf [8]byte
	put := func(h hash.Hash64, v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(answer, uint64(len(nbs)))
	for _, nb := range nbs {
		put(answer, uint64(nb.ID))
		put(answer, math.Float64bits(nb.Dist))
	}
	put(answer, uint64(st.Candidates))
	put(answer, uint64(st.Rounds))
	put(answer, math.Float64bits(st.FinalR))
	put(nodes, uint64(st.NodesVisited))
}

// TestLadderGolden pins what a query answers — ids, distance bits,
// Candidates, Rounds, FinalR — and what its traversal costs (NodesVisited)
// for every lifecycle stage under a spread of query knobs.
// The answer is one digest under every kernel row; the node count is one
// digest per window kernel, because the AVX2 and the portable whole-node
// tests report different (equally sound) gaps for a parked subtree and so
// enter different nodes on the way to the same candidates. The digests were
// first recorded on the commit before the per-round shard fan-out was
// deleted, on its sequential round (the fan-out answered identically and
// over-gathered nodes), and re-recorded when bulk loading began to pack
// leaves short of capacity: different trees make a different candidate
// stream. A change that claims to leave the ladder alone does not edit them:
// the rows of the striped index's other stripe counts went when the stripes
// did, and the shards=1 digests held unedited. The set must also answer
// exactly as a bare core.Searcher over the same rows.
func TestLadderGolden(t *testing.T) {
	const n, d = 1500, 12
	type golden struct{ answer, nodesAVX2, nodesPortable uint64 }
	want := map[string]golden{
		"shards=1/fresh":     {0x66bcea75a30486b4, 0x1e332362b73cae95, 0x6212d132ae3c7e4e},
		"shards=1/deleted":   {0x2c44a5360e84dad8, 0x233fe588bc841138, 0x25f39f6a28e61633},
		"shards=1/compacted": {0xf2845d74b182c110, 0xca2763a2bf31303a, 0xe315a5583ba2839d},
	}
	avx2 := vec.KernelName() == "avx2" // every other row tests windows portably
	cfg := core.Config{K: 6, L: 3, T: 40, Seed: 211}
	flat, queries := goldenCorpus(n, d, 211)

	s := Build(append([]float32(nil), flat...), n, d, 1, 0, cfg)
	// The bare twin of the set: same rows, same config, ids mapped through
	// ids (nil while they are the identity).
	bare := core.Build(vec.WrapMatrix(append([]float32(nil), flat...), n, d), cfg)
	var bareIDs []int

	check := func(stage string) {
		name := "shards=1/" + stage
		answer, nodes := fnv.New64a(), fnv.New64a()
		sr := s.NewSearcher()
		bs := bare.NewSearcher()
		for _, set := range goldenSettings {
			for qi, q := range queries {
				nbs, err := sr.Search(q, set.k, set.p)
				if err != nil {
					t.Fatalf("%s %s q=%d: %v", name, set.name, qi, err)
				}
				st := sr.LastStats()
				ladderDigest(answer, nodes, nbs, st)
				bp := set.p
				if bareIDs != nil && bp.Filter != nil {
					keep := bp.Filter
					bp.Filter = func(id int) bool { return keep(bareIDs[id]) }
				}
				bnbs, err := bs.KANNParams(q, set.k, bp)
				if err != nil {
					t.Fatal(err)
				}
				if bareIDs != nil {
					bnbs = mapNeighbors(bnbs, bareIDs)
				}
				bh, sh := fnv.New64a(), fnv.New64a()
				ladderDigest(bh, bh, bnbs, bs.LastStats())
				ladderDigest(sh, sh, nbs, st)
				if bh.Sum64() != sh.Sum64() {
					t.Fatalf("%s %s q=%d: set %v %+v, bare core searcher %v %+v",
						name, set.name, qi, nbs, st, bnbs, bs.LastStats())
				}
			}
		}
		w := want[name]
		wantNodes := w.nodesPortable
		if avx2 {
			wantNodes = w.nodesAVX2
		}
		if got := answer.Sum64(); got != w.answer {
			t.Errorf("%s: answer digest %#016x, want %#016x", name, got, w.answer)
		}
		if got := nodes.Sum64(); got != wantNodes {
			t.Errorf("%s: %s node-count digest %#016x, want %#016x", name, vec.KernelName(), got, wantNodes)
		}
	}

	check("fresh")

	for g := 0; g < n; g += 3 {
		s.Delete(g)
		bare.Delete(g)
	}
	check("deleted")

	s.Compact()
	live, ids := bare.LiveRows()
	c := cfg.Resolved(n)
	c.InitialRadius = 0 // as a compaction re-estimates it
	bare, bareIDs = core.Build(live, c), ids
	check("compacted")
}
