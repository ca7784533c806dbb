// Package mtree implements an in-memory ball tree (a metric tree in the
// M-tree family) over low-dimensional points. It is the substrate for the
// PM-LSH baseline: PM-LSH indexes the m-dimensional projected points with a
// PM-tree and answers c-ANN by streaming projected-space nearest neighbors
// and verifying them in the original space. This package provides the same
// incremental nearest-neighbor code path; the PM-tree → ball-tree
// substitution is noted in the README ("Reproducing the paper: experiments
// and substitutions").
package mtree

import (
	"container/heap"
	"math"
	"sort"

	"dblsh/internal/vec"
)

// LeafSize is the maximum number of points in a leaf ball.
const LeafSize = 32

type ball struct {
	center []float32
	radius float64
	left   *ball
	right  *ball
	ids    []int32 // leaf only
}

// Tree is a ball tree over the rows of a point matrix. The matrix is owned by
// the caller and must not be mutated while the tree is alive. Concurrent
// read-only queries are safe.
type Tree struct {
	data *vec.Matrix
	root *ball
	size int
}

// Build constructs a ball tree over all rows of data by recursive
// farthest-pair splitting.
func Build(data *vec.Matrix) *Tree {
	n := data.Rows()
	t := &Tree{data: data, size: n}
	if n == 0 {
		return t
	}
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	t.root = t.build(ids)
	return t
}

func (t *Tree) build(ids []int32) *ball {
	b := &ball{}
	b.center = t.centroid(ids)
	b.radius = t.maxDist(b.center, ids)
	if len(ids) <= LeafSize {
		b.ids = ids
		return b
	}
	// Farthest-pair style split: pick the point farthest from the centroid
	// as pivot A, then the point farthest from A as pivot B, and partition
	// by nearer-pivot. This approximates the optimal split at O(n) cost.
	a := t.farthestFrom(b.center, ids)
	pb := t.farthestFrom(t.data.Row(int(a)), ids)
	pa, pbv := t.data.Row(int(a)), t.data.Row(int(pb))

	// Partition by projection onto the A→B axis for balance robustness when
	// many points are equidistant.
	type proj struct {
		id int32
		v  float64
	}
	ps := make([]proj, len(ids))
	axis := make([]float32, len(pa))
	for i := range axis {
		axis[i] = pbv[i] - pa[i]
	}
	for i, id := range ids {
		ps[i] = proj{id, vec.Dot(axis, t.data.Row(int(id)))}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].v < ps[j].v })
	mid := len(ps) / 2
	leftIDs := make([]int32, mid)
	rightIDs := make([]int32, len(ps)-mid)
	for i := 0; i < mid; i++ {
		leftIDs[i] = ps[i].id
	}
	for i := mid; i < len(ps); i++ {
		rightIDs[i-mid] = ps[i].id
	}
	b.left = t.build(leftIDs)
	b.right = t.build(rightIDs)
	return b
}

func (t *Tree) centroid(ids []int32) []float32 {
	d := t.data.Dim()
	sum := make([]float64, d)
	for _, id := range ids {
		row := t.data.Row(int(id))
		for j := 0; j < d; j++ {
			sum[j] += float64(row[j])
		}
	}
	c := make([]float32, d)
	for j := 0; j < d; j++ {
		c[j] = float32(sum[j] / float64(len(ids)))
	}
	return c
}

func (t *Tree) maxDist(center []float32, ids []int32) float64 {
	var m float64
	for _, id := range ids {
		if d := vec.SquaredDist(center, t.data.Row(int(id))); d > m {
			m = d
		}
	}
	return math.Sqrt(m)
}

func (t *Tree) farthestFrom(p []float32, ids []int32) int32 {
	best, bestD := ids[0], -1.0
	for _, id := range ids {
		if d := vec.SquaredDist(p, t.data.Row(int(id))); d > bestD {
			best, bestD = id, d
		}
	}
	return best
}

// Size returns the number of indexed points.
func (t *Tree) Size() int { return t.size }

type item struct {
	dist  float64 // lower bound for balls, exact for points
	b     *ball
	id    int32
	point bool
}

type pq []item

func (h pq) Len() int            { return len(h) }
func (h pq) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h pq) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *pq) Push(x interface{}) { *h = append(*h, x.(item)) }
func (h *pq) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// NearestVisit streams indexed points in ascending distance-from-q order,
// calling visit with each id and its exact distance, until visit returns
// false or the tree is exhausted.
func (t *Tree) NearestVisit(q []float32, visit func(id int, dist float64) bool) {
	if t.size == 0 {
		return
	}
	h := &pq{{dist: ballMinDist(t.root, q), b: t.root}}
	for h.Len() > 0 {
		it := heap.Pop(h).(item)
		if it.point {
			if !visit(int(it.id), it.dist) {
				return
			}
			continue
		}
		b := it.b
		if b.ids != nil {
			for _, id := range b.ids {
				heap.Push(h, item{dist: vec.Dist(q, t.data.Row(int(id))), id: id, point: true})
			}
			continue
		}
		heap.Push(h, item{dist: ballMinDist(b.left, q), b: b.left})
		heap.Push(h, item{dist: ballMinDist(b.right, q), b: b.right})
	}
}

func ballMinDist(b *ball, q []float32) float64 {
	d := vec.Dist(q, b.center) - b.radius
	if d < 0 {
		return 0
	}
	return d
}
