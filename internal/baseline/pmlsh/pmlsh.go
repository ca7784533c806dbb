// Package pmlsh implements the PM-LSH scheme (Zheng et al., PVLDB 2020),
// the representative of the dynamic metric-query (MQ) family the DB-LSH
// paper compares against (SRS shares the design with a different tree).
//
// Indexing: project the dataset into an m-dimensional space with m 2-stable
// projections (m ≈ 15 in the PM-LSH paper) and index the projected points
// with a metric tree (PM-tree in the paper; a ball tree here — see the
// README, "Reproducing the paper: experiments and substitutions").
//
// Query: stream the projected-space nearest neighbors of the projected
// query in ascending order and verify each in the original space, stopping
// after βn + k verifications. Projected distance concentrates around
// (original distance)·√m for 2-stable projections, so projected-NN order is
// a good candidate order; the linear βn verification term is the cost the
// DB-LSH paper criticizes in Table I.
package pmlsh

import (
	"fmt"
	"math"
	"math/rand"

	"dblsh/internal/lsh"
	"dblsh/internal/mtree"
	"dblsh/internal/vec"
)

// Config parameterizes PM-LSH.
type Config struct {
	// M is the projected dimensionality. Default 15 (the PM-LSH paper's m).
	M int
	// Beta scales the candidate budget βn. Default 0.08 (the paper's
	// Table IV setting for PM-LSH).
	Beta float64
	// C is the approximation ratio used by the early-termination radius
	// test. Default 1.5.
	C float64
	// Seed drives projection sampling.
	Seed int64
}

// Index is a PM-LSH index.
type Index struct {
	data      *vec.Matrix
	cfg       Config
	compound  *lsh.Compound
	projected *vec.Matrix
	tree      *mtree.Tree
	scale     float64 // E[projected dist / original dist] = √m
}

// Build projects the dataset and builds the metric tree.
func Build(data *vec.Matrix, cfg Config) *Index {
	if cfg.M <= 0 {
		cfg.M = 15
	}
	if cfg.Beta <= 0 {
		cfg.Beta = 0.08
	}
	if cfg.C <= 1 {
		cfg.C = 1.5
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	idx := &Index{
		data:     data,
		cfg:      cfg,
		compound: lsh.NewCompound(cfg.M, data.Dim(), rng),
		scale:    math.Sqrt(float64(cfg.M)),
	}
	idx.projected = idx.compound.Project(data)
	idx.tree = mtree.Build(idx.projected)
	return idx
}

// Size returns the number of indexed points.
func (idx *Index) Size() int { return idx.data.Rows() }

// KANN answers a (c,k)-ANN query. Safe for concurrent use.
func (idx *Index) KANN(q []float32, k int) []vec.Neighbor {
	if len(q) != idx.data.Dim() {
		panic(fmt.Sprintf("pmlsh: query dim %d, index dim %d", len(q), idx.data.Dim()))
	}
	if k <= 0 {
		panic("pmlsh: k must be positive")
	}
	n := idx.data.Rows()
	if n == 0 {
		return nil
	}
	qp := idx.compound.Hash(nil, q)
	budget := int(idx.cfg.Beta*float64(n)) + k
	if budget < k {
		budget = k
	}
	cand := vec.NewTopK(k)
	cnt := 0
	idx.tree.NearestVisit(qp, func(id int, projDist float64) bool {
		cand.Push(id, vec.Dist(q, idx.data.Row(id)))
		cnt++
		if cnt >= budget {
			return false
		}
		// Early termination (PM-LSH Lemma 4 flavour): when the k-th true
		// distance so far is below the original-space distance the current
		// projected frontier corresponds to (divided by c), later projected
		// points are unlikely to improve the result.
		if worst, full := cand.Worst(); full && projDist > 0 {
			estimated := projDist / idx.scale
			if worst*idx.cfg.C <= estimated {
				return false
			}
		}
		return true
	})
	return cand.Results()
}

// Candidates reports the verification budget βn + k for a given k — the
// linear-cost term of Table I.
func (idx *Index) Candidates(k int) int {
	return int(idx.cfg.Beta*float64(idx.data.Rows())) + k
}
