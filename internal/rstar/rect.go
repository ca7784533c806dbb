// Package rstar implements an in-memory R*-tree over low-dimensional points,
// the multi-dimensional index substrate of DB-LSH (Section IV-B of the
// paper). It supports STR bulk loading, incremental insertion with forced
// reinsertion, and window (hyper-rectangle) queries with early termination.
//
// The tree indexes points only (no extended objects): each entry is an id
// and the point's projected coordinates, which the tree copies into its
// leaves and keeps nowhere else. Dimensions are expected to be small
// (DB-LSH uses K ≈ 10–12).
//
// Nodes are slots of one index-linked arena (arena.go): a node is an int32,
// its header, rectangle, entry list and window-test blocks sit in flat slices
// at offsets computed from that index, and the whole tree is a handful of
// pointer-free slices that are saved and loaded as they are (Snapshot, Load).
// Each node carries what a window query compares against in one fixed
// axis-major block: a leaf its entries' coordinates, an internal node its
// children's rectangles, lane j of row d belonging to entry j. The
// incremental Cursor — the query path DB-LSH's radius ladder runs on — tests
// a node per call into internal/vec's kernel table over those blocks; the
// tests' Window re-scans the same blocks one entry and one scalar comparison
// at a time and is the oracle the cursor is held to. The blocks are part of the
// tree: every mutation that moves an entry or changes a child's rectangle
// rewrites the lanes it touched before it returns (the tests'
// CheckInvariants compares them all), and no query ever writes one, so any
// number of cursors may read a tree at once.
//
// Insertion is the textbook R*-tree algorithm and builds the textbook tree,
// but is written to its cost model rather than to its definition. A bulk
// load tiles with STR, sorting each axis with a stable radix sort: entries
// whose coordinates tie keep the order the previous axis left them in (the
// caller's id order at the first), so a packed tree depends on the data
// alone. It packs each leaf ⌈M/16⌉ entries short of capacity (two at
// M = 32), so an insert into a freshly loaded tree is one descent with no
// overflow treatment until its leaf has taken that many; only then does the
// leaf overflow and force-reinsert 30 % of its entries, each a descent of
// its own. ChooseSubtree reads the children's faces from the node's
// blocks, sums a candidate's overlap enlargement only over the siblings
// vec.BoxMask finds within reach of it and abandons the sum once it exceeds
// the best so far, splits sweep prefix/suffix bounding boxes once per sort
// order, and all working memory is per-tree scratch. None of that changes a
// decision: every comparison sees the same bits in the same order as the
// O(M²·dim) formulation, so the tree is identical node for node (see
// Tree.InsertPoint; pinned by golden structural digests in the tests).
//
// Traversal and visit order feed the candidate stream directly, so the
// package is determinism-critical and patrolled by dblsh-lint's detorder
// analyzer.
//
// dblsh:deterministic
package rstar

// Rect is an axis-aligned hyper-rectangle. Min and Max have the tree's
// dimensionality and Min[i] ≤ Max[i] for all i.
type Rect struct {
	Min, Max []float32
}

// newRect returns the zero rectangle at the origin, both corners carved from
// one allocation.
func newRect(dim int) Rect {
	buf := make([]float32, 2*dim)
	return Rect{Min: buf[:dim:dim], Max: buf[dim:]}
}

// WindowRect returns the hypercubic window of width w centred at c — the
// query-centric bucket W(G(q), w) of Eq. 8.
func WindowRect(center []float32, w float64) Rect {
	half := float32(w / 2)
	min := make([]float32, len(center))
	max := make([]float32, len(center))
	for i, v := range center {
		min[i] = v - half
		max[i] = v + half
	}
	return Rect{Min: min, Max: max}
}

// Area returns the d-dimensional volume of r.
func (r Rect) Area() float64 {
	a := 1.0
	for i := range r.Min {
		a *= float64(r.Max[i] - r.Min[i])
	}
	return a
}

// Margin returns the sum of edge lengths of r (the R*-split "margin").
func (r Rect) Margin() float64 {
	var m float64
	for i := range r.Min {
		m += float64(r.Max[i] - r.Min[i])
	}
	return m
}

// Intersects reports whether r and s share any point.
func (r Rect) Intersects(s Rect) bool {
	for i := range r.Min {
		if r.Min[i] > s.Max[i] || r.Max[i] < s.Min[i] {
			return false
		}
	}
	return true
}

// OverlapArea returns the volume of the intersection of r and s.
func (r Rect) OverlapArea(s Rect) float64 {
	a := 1.0
	for i := range r.Min {
		lo := r.Min[i]
		if s.Min[i] > lo {
			lo = s.Min[i]
		}
		hi := r.Max[i]
		if s.Max[i] < hi {
			hi = s.Max[i]
		}
		if hi <= lo {
			return 0
		}
		a *= float64(hi - lo)
	}
	return a
}

// set overwrites r with a copy of s, reusing r's storage once it has any.
func (r *Rect) set(s Rect) {
	if len(r.Min) != len(s.Min) {
		*r = newRect(len(s.Min))
	}
	copy(r.Min, s.Min)
	copy(r.Max, s.Max)
}

// ExpandInPlace grows r to include s, reusing r's storage.
func (r *Rect) ExpandInPlace(s Rect) {
	for i := range r.Min {
		if s.Min[i] < r.Min[i] {
			r.Min[i] = s.Min[i]
		}
		if s.Max[i] > r.Max[i] {
			r.Max[i] = s.Max[i]
		}
	}
}

// ExpandPoint grows r to include point p, reusing r's storage.
func (r *Rect) ExpandPoint(p []float32) {
	for i, v := range p {
		if v < r.Min[i] {
			r.Min[i] = v
		}
		if v > r.Max[i] {
			r.Max[i] = v
		}
	}
}

// Center writes the rectangle's centroid into dst and returns it; pass nil
// to allocate.
func (r Rect) Center(dst []float32) []float32 {
	if dst == nil {
		dst = make([]float32, len(r.Min))
	}
	for i := range r.Min {
		dst[i] = (r.Min[i] + r.Max[i]) / 2
	}
	return dst
}

// CenterDistSq returns the squared distance between the centroids of r and s.
func (r Rect) CenterDistSq(s Rect) float64 {
	var out float64
	for i := range r.Min {
		d := float64(r.Min[i]+r.Max[i])/2 - float64(s.Min[i]+s.Max[i])/2
		out += d * d
	}
	return out
}
