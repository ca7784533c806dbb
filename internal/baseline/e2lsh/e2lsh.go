// Package e2lsh implements the classic static (K,L)-index method (E2LSH,
// Datar et al. 2004 / Andoni & Indyk) that DB-LSH generalizes. A c-ANN query
// walks the radius ladder r = r0, c·r0, c²·r0, …; each radius level owns an
// independent suite of L hash tables built from K-wise compound *bucketed*
// hashes h(o) = ⌊(a·o+b)/(w0·r)⌋ (Eq. 1). This is the "M indexes prepared
// ahead" design of Table I — the index cost that motivates DB-LSH. Levels
// are materialized lazily and cached so a query workload pays each level
// once; the paper's criticism (space grows with the number of radii) shows
// up here as the cache growing per level.
package e2lsh

import (
	"fmt"
	"math"
	"math/rand"

	"dblsh/internal/lsh"
	"dblsh/internal/vec"
)

// Config parameterizes the index.
type Config struct {
	C             float64 // approximation ratio, default 1.5
	W0            float64 // bucket width multiplier, default 4c²
	T             int     // candidate constant, default 100
	K             int     // hash functions per table (required)
	L             int     // tables per radius level (required)
	Seed          int64
	InitialRadius float64
}

// Index is a static multi-radius E2LSH index.
type Index struct {
	data *vec.Matrix
	cfg  Config
	r0   float64

	levels map[int]*level
}

type level struct {
	fns    [][]lsh.Bucketed     // L suites of K bucketed hashes
	tables []map[uint64][]int32 // L hash tables
}

// Build prepares the index shell; hash tables materialize per radius level
// on first use.
func Build(data *vec.Matrix, cfg Config) *Index {
	if cfg.C <= 1 {
		cfg.C = 1.5
	}
	if cfg.W0 <= 0 {
		cfg.W0 = 4 * cfg.C * cfg.C
	}
	if cfg.T <= 0 {
		cfg.T = 100
	}
	if cfg.K <= 0 || cfg.L <= 0 {
		panic(fmt.Sprintf("e2lsh: K and L required, got K=%d L=%d", cfg.K, cfg.L))
	}
	idx := &Index{data: data, cfg: cfg, levels: make(map[int]*level)}
	idx.r0 = cfg.InitialRadius
	if idx.r0 <= 0 {
		idx.r0 = estimateRadius(data, cfg.Seed)
	}
	return idx
}

func estimateRadius(data *vec.Matrix, seed int64) float64 {
	n := data.Rows()
	if n < 2 {
		return 1
	}
	rng := rand.New(rand.NewSource(seed ^ 0x7e1ab3c9))
	best := math.Inf(1)
	for s := 0; s < 24; s++ {
		qi := rng.Intn(n)
		nn := math.Inf(1)
		for p := 0; p < 512; p++ {
			oi := rng.Intn(n)
			if oi == qi {
				continue
			}
			if d := vec.SquaredDist(data.Row(qi), data.Row(oi)); d < nn {
				nn = d
			}
		}
		if nn < best {
			best = nn
		}
	}
	r := math.Sqrt(best) / 4
	if r <= 0 || math.IsInf(r, 1) {
		return 1
	}
	return r
}

// Size returns the number of indexed points.
func (idx *Index) Size() int { return idx.data.Rows() }

func (idx *Index) level(li int, w float64) *level {
	if lv, ok := idx.levels[li]; ok {
		return lv
	}
	rng := rand.New(rand.NewSource(idx.cfg.Seed + int64(li)*7919))
	lv := &level{
		fns:    make([][]lsh.Bucketed, idx.cfg.L),
		tables: make([]map[uint64][]int32, idx.cfg.L),
	}
	d := idx.data.Dim()
	for t := 0; t < idx.cfg.L; t++ {
		fns := make([]lsh.Bucketed, idx.cfg.K)
		for j := range fns {
			fns[j] = lsh.NewBucketed(d, w, rng)
		}
		lv.fns[t] = fns
		table := make(map[uint64][]int32, idx.data.Rows()/4+1)
		for i := 0; i < idx.data.Rows(); i++ {
			key := bucketKey(fns, idx.data.Row(i))
			table[key] = append(table[key], int32(i))
		}
		lv.tables[t] = table
	}
	idx.levels[li] = lv
	return lv
}

// bucketKey hashes the K bucket indices of o into one table key.
func bucketKey(fns []lsh.Bucketed, o []float32) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, fn := range fns {
		u := uint64(fn.Hash(o))
		for s := 0; s < 64; s += 8 {
			h ^= (u >> uint(s)) & 0xff
			h *= prime
		}
	}
	return h
}

// KANN answers (c,k)-ANN by probing the query's bucket in each of the L
// tables at each radius level, with the shared 2tL+k verification budget.
//
// Index is not safe for concurrent queries (levels materialize lazily);
// clone per goroutine or serialize access.
func (idx *Index) KANN(q []float32, k int) []vec.Neighbor {
	if len(q) != idx.data.Dim() {
		panic(fmt.Sprintf("e2lsh: query dim %d, index dim %d", len(q), idx.data.Dim()))
	}
	if k <= 0 {
		panic("e2lsh: k must be positive")
	}
	n := idx.data.Rows()
	if n == 0 {
		return nil
	}
	visited := make(map[int32]struct{}, 4*k)
	cand := vec.NewTopK(k)
	budget := 2*idx.cfg.T*idx.cfg.L + k
	cnt := 0
	c := idx.cfg.C
	r := idx.r0
	const maxLevels = 64
	for li := 0; li < maxLevels; li++ {
		w := idx.cfg.W0 * r
		lv := idx.level(li, w)
		done := false
		for t := 0; t < idx.cfg.L && !done; t++ {
			key := bucketKey(lv.fns[t], q)
			for _, id := range lv.tables[t][key] {
				if _, seen := visited[id]; seen {
					continue
				}
				visited[id] = struct{}{}
				dist := vec.Dist(q, idx.data.Row(int(id)))
				cand.Push(int(id), dist)
				cnt++
				if cnt >= budget {
					done = true
					break
				}
				if worst, full := cand.Worst(); full && worst <= c*r {
					done = true
					break
				}
			}
		}
		if done {
			break
		}
		if worst, full := cand.Worst(); full && worst <= c*r {
			break
		}
		if cnt >= n {
			break
		}
		r *= c
	}
	return cand.Results()
}
