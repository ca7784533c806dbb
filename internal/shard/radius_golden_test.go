package shard

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"dblsh/internal/core"
)

// radiusSettings are the per-query knobs every radius golden row is asked
// under: the budget, a filter, and a filter that passes almost nothing.
var radiusSettings = []struct {
	name string
	p    core.QueryParams
}{
	{"default", core.QueryParams{}},
	{"t1", core.QueryParams{T: 1}},
	{"filter", core.QueryParams{Filter: func(g int) bool { return g%3 != 1 }}},
	{"filter-t2", core.QueryParams{T: 2, Filter: func(g int) bool { return g%5 == 0 }}},
	{"sparse", core.QueryParams{Filter: func(g int) bool { return g%400 == 7 }}},
}

// radiusGoldenRadii span a window that holds nothing to one that holds
// every row of the corpus.
var radiusGoldenRadii = []float64{0.25, 1, 2.5, 4, 7, 12, 30, 120}

// TestRadiusGolden pins what a fixed-radius query (Algorithm 1) answers —
// whether it found a point, the point's id and distance bits, and how many
// candidates it verified — for every lifecycle stage, under the knobs a
// radius query honours. The digests were first recorded before
// the radius query moved onto the ladder's round body, and re-recorded when
// bulk loading began to pack leaves short of capacity (the trees, and so
// the order candidates arrive in, changed); NodesVisited is not part of
// them, since the first move changed how the windows are walked and not
// what they hold. One digest holds under every kernel row: the corpus is on
// an integer grid, so every distance is exact. The rows of the striped
// index's other stripe counts went when the stripes did, and the shards=1
// digests held unedited.
func TestRadiusGolden(t *testing.T) {
	const n, d = 1500, 12
	want := map[string]uint64{
		"shards=1/fresh":     0xeab8c78d85bb7167,
		"shards=1/deleted":   0x30988e77a2210995,
		"shards=1/compacted": 0xbc8917b7260df4df,
	}
	cfg := core.Config{K: 6, L: 3, T: 40, Seed: 211}
	flat, queries := goldenCorpus(n, d, 211)

	s := Build(append([]float32(nil), flat...), n, d, 1, 0, cfg)
	check := func(stage string) {
		name := "shards=1/" + stage
		h := fnv.New64a()
		var buf [8]byte
		put := func(v uint64) {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
		sr := s.NewSearcher()
		for _, set := range radiusSettings {
			for _, r := range radiusGoldenRadii {
				for qi, q := range queries {
					nb, ok, err := sr.SearchRadius(q, r, set.p)
					if err != nil {
						t.Fatalf("%s %s r=%v q=%d: %v", name, set.name, r, qi, err)
					}
					st := sr.LastStats()
					if ok {
						put(1)
						put(uint64(nb.ID))
						put(math.Float64bits(nb.Dist))
					} else {
						put(0)
					}
					put(uint64(st.Candidates))
				}
			}
		}
		if got := h.Sum64(); got != want[name] {
			t.Errorf("%s: radius digest %#016x, want %#016x", name, got, want[name])
		}
	}

	check("fresh")
	for g := 0; g < n; g += 3 {
		s.Delete(g)
	}
	check("deleted")
	s.Compact()
	check("compacted")
}
