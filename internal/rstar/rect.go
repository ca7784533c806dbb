// Package rstar implements an in-memory R-tree over low-dimensional points,
// the multi-dimensional index substrate of DB-LSH (Section IV-B of the
// paper): STR bulk loading, an append-only tail for the points added since,
// and incremental window (hyper-rectangle) queries.
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
// tree: every mutation that adds an entry or widens a child's rectangle
// rewrites the lanes it touched before it returns (the tests'
// CheckInvariants compares them all), and no query ever writes one, so any
// number of cursors may read a tree at once. A cursor keeps its place in the
// tree from one round of its query to the next, so the tree must not change
// while a query runs on it: the caller keeps every mutation out from the
// cursor's Reset to its query's last round.
//
// The paper builds its trees once and leaves updates to future work; this
// package keeps that shape and follows Bentley and Saxe's static-to-dynamic
// transformation. A tree is an STR pack, built by a stable radix sort per
// axis so that it depends on the data alone, plus a tail: one level-1 node
// over leaves filled in arrival order, which an add appends to with no
// descent, split or reinsertion. Repack gathers every point out of the
// leaves and packs them afresh, which yields the tree Pack builds over the
// same rows, node for node (pinned by golden structural digests in the
// tests). Tail leaves are as wide as arrival order makes them, so a query
// pays about one leaf test per tail leaf it reaches; the capacity of the
// tail (TailCap) bounds that cost.
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

// set overwrites r's corners, which must have s's length, with s's.
func (r Rect) set(s Rect) {
	copy(r.Min, s.Min)
	copy(r.Max, s.Max)
}

// ExpandInPlace grows r to include s, reusing r's storage.
func (r Rect) ExpandInPlace(s Rect) {
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
func (r Rect) ExpandPoint(p []float32) {
	for i, v := range p {
		if v < r.Min[i] {
			r.Min[i] = v
		}
		if v > r.Max[i] {
			r.Max[i] = v
		}
	}
}

// Center writes the rectangle's centroid into dst.
func (r Rect) Center(dst []float32) {
	for i := range r.Min {
		dst[i] = (r.Min[i] + r.Max[i]) / 2
	}
}
