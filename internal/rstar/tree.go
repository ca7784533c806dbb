package rstar

import (
	"fmt"
	"slices"

	"dblsh/internal/vec"
)

// Default node capacities. 32 entries per node is a good fit for in-memory
// trees over 10–12 dimensional points; maxCapacity is the width of a
// Cursor's per-node bitmask.
const (
	DefaultMaxEntries = 32
	maxCapacity       = 64
)

// Options configures a Tree.
type Options struct {
	// MaxEntries is the node capacity M, clamped to [4, 64]. Defaults to
	// DefaultMaxEntries.
	MaxEntries int
	// MinEntries is the minimum fill m (2 ≤ m ≤ M/2), the floor of a packed
	// leaf's fill. Defaults to 40% of M, the value recommended in the R*-tree
	// paper.
	MinEntries int
	// Quantize is ignored. It switched on an int8 twin of every leaf that
	// the whole-node window tests replaced; the field survives only because
	// benchmark/layers.go:105 sets it and a change that claims a gain may
	// not edit benchmark/. Remove it in the next PR that may.
	Quantize bool
}

// Resolved returns the options a tree built with o actually runs on:
// defaults filled in, capacities clamped to what the algorithm needs. It is
// idempotent, and what an index file records.
func (o Options) Resolved() Options { return o.withDefaults() }

func (o Options) withDefaults() Options {
	if o.MaxEntries == 0 {
		o.MaxEntries = DefaultMaxEntries
	}
	o.MaxEntries = min(max(o.MaxEntries, 4), maxCapacity)
	if o.MinEntries == 0 {
		o.MinEntries = o.MaxEntries * 2 / 5
	}
	if o.MinEntries < 2 {
		o.MinEntries = 2
	}
	if o.MinEntries > o.MaxEntries/2 {
		o.MinEntries = o.MaxEntries / 2
	}
	return o
}

// Tree is an STR-packed R-tree over points of a fixed dimension, each an
// int32 id and its coordinates, plus a tail: the points added since the
// pack, in arrival order. The coordinates live in the leaves' window-test
// blocks and nowhere else: InsertPoint and the bulk loads copy them in and
// keep no reference to what they were given. A tree over n points holds
// the ids 0, 1, …, n−1.
//
// Tree is not safe for concurrent mutation; concurrent read-only queries are
// safe.
type Tree struct {
	opts Options
	root int32 // the packed tree's root; an empty leaf when nothing is packed
	tail int32 // the level-1 node over the tail leaves; -1 while there is none
	size int
	dim  int
	// stride is the lane count of every node's window-test block:
	// MaxEntries rounded up to a whole number of 8-lane vectors.
	stride   int
	blockLen int // dim·stride: floats per block
	ecap     int // MaxEntries+1: entry slots per node (the file's layout)

	// The node arena (arena.go), indexed by slot.
	heads  []head
	rects  []float32
	ents   []int32
	blocks [][]float32

	// rows is the matrix BulkLoad was given, which Insert reads a row id's
	// coordinates from; nil for every other tree. See BulkLoad.
	rows *vec.Matrix
}

// New creates an empty tree over points of dimension dim. Add points with
// InsertPoint, or use Pack to build a populated tree directly.
func New(dim int, opts Options) *Tree {
	if dim < 1 {
		panic("rstar: points must have at least one dimension")
	}
	t := newTree(dim, opts)
	t.root = t.newNode(0)
	padBlock(t.block(t.root), t.stride, 0)
	return t
}

// newTree returns a tree over points of dimension dim with an empty arena,
// no root yet and no tail.
func newTree(dim int, opts Options) *Tree {
	opts = opts.withDefaults()
	t := &Tree{opts: opts, tail: -1, dim: dim, stride: (opts.MaxEntries + 7) &^ 7, ecap: opts.MaxEntries + 1}
	t.blockLen = t.dim * t.stride
	return t
}

// Size returns the number of indexed points.
func (t *Tree) Size() int { return t.size }

// Dim returns the dimensionality of indexed points.
func (t *Tree) Dim() int { return t.dim }

// Height returns the number of levels on the longest path from a root, the
// packed one or the tail's, to a leaf (1 for a tree that is just a leaf).
func (t *Tree) Height() int {
	h := int(t.heads[t.root].level) + 1
	if t.tail >= 0 {
		h = max(h, 2)
	}
	return h
}

// TailCap is how many points the tail holds: one node of MaxEntries leaves
// of MaxEntries points each (1 024 at the default capacity).
func (t *Tree) TailCap() int { return t.opts.MaxEntries * t.opts.MaxEntries }

// TailLen returns the number of points in the tail: those added since the
// tree was last packed.
func (t *Tree) TailLen() int {
	if t.tail < 0 {
		return 0
	}
	kids := t.entries(t.tail)
	return (len(kids)-1)*t.opts.MaxEntries + int(t.heads[kids[len(kids)-1]].count)
}

// InsertPoint adds point p under id, which must be Size(): the tree's ids
// are its rows in arrival order. p's coordinates are appended to the last
// tail leaf, a new one when that is full; the leaf's rectangle and its lane
// in the tail node's blocks widen to take them, and nothing else changes.
// There is no descent, split or reinsertion: an add costs O(dim), and
// allocates only when the arena grows (a block chunk every 64 slots).
// p itself is not retained.
//
// A tail that is full (TailCap points) is folded into a fresh pack first,
// inline (Repack). Callers that can afford it repack before that, off the
// write path; the shard layer does.
func (t *Tree) InsertPoint(id int, p []float32) {
	if id != t.size || len(p) != t.dim {
		panic(fmt.Sprintf("rstar: insert of id %d with %d coordinates into a tree of %d points of dimension %d", id, len(p), t.size, t.dim))
	}
	if t.TailLen() == t.TailCap() {
		t.Repack()
	}
	if t.tail < 0 {
		t.tail = t.newNode(1)
		padBlock(t.block(t.tail), t.stride, 0)
		padBlock(t.block(t.tail+1), t.stride, 0)
	}
	kids := t.entries(t.tail)
	var leaf int32
	if len(kids) == 0 || int(t.heads[kids[len(kids)-1]].count) == t.opts.MaxEntries {
		leaf = t.newNode(0)
		padBlock(t.block(leaf), t.stride, 0)
		t.push(t.tail, leaf)
	} else {
		leaf = kids[len(kids)-1]
	}
	j := int(t.heads[leaf].count)
	coords := t.block(leaf)
	for d, x := range p {
		coords[d*t.stride+j] = x
	}
	t.push(leaf, int32(id))
	point := Rect{Min: p, Max: p} // read-only view of the point; never retained
	t.widen(leaf, point, j == 0)
	slot := int(t.heads[t.tail].count) - 1
	t.setBox(t.tail, slot, t.rect(leaf))
	t.widen(t.tail, point, slot == 0 && j == 0)
	t.size++
}

// widen grows node n's rect to take r, or sets it to r when n held nothing
// before (the zero rect of an empty node must not leak in).
func (t *Tree) widen(n int32, r Rect, first bool) {
	rect := t.rect(n)
	if first {
		rect.set(r)
	} else {
		rect.ExpandInPlace(r)
	}
}

// Repack folds the tail into a fresh STR pack of every point the tree holds:
// the coordinates are gathered out of the leaves (Points) and packed, so
// the tree becomes the one Pack builds over the same rows, node for node.
func (t *Tree) Repack() {
	m := vec.NewMatrix(t.size, t.dim)
	t.Points(m, nil)
	fresh := Pack(m, t.opts)
	fresh.rows = t.rows
	*t = *fresh
}

// Points copies every point the tree holds into dst: the point under id i
// into row at[i], or nowhere when at[i] < 0; a nil at is the identity. One
// pass over the arena's leaves, packed and tail alike.
func (t *Tree) Points(dst *vec.Matrix, at []int32) {
	for n := int32(0); int(n) < len(t.heads); n++ {
		if !t.leaf(n) {
			n++ // its upper-face slot
			continue
		}
		coords := t.block(n)
		for j, id := range t.entries(n) {
			if at != nil {
				if id = at[id]; id < 0 {
					continue
				}
			}
			row := dst.Row(int(id))
			for d := range row {
				row[d] = coords[d*t.stride+j]
			}
		}
	}
}

// sortPair is one entry of a leaf being laid out: its sort key and its id.
// Sorting extracted pairs instead of ids keeps the comparator free of
// pointer chasing.
type sortPair struct {
	key float64 // float32 keys widen exactly, so comparisons are unchanged
	idx int32
}

// fillLeaf makes ids, which must be at least one, leaf n's entry list and
// lays the leaf out for scanning. Row id of pts, a matrix of dim columns, is
// id's point. The rect is tightened around the points, in ids' order; the
// sort axis becomes the rect's widest axis; the ids are stored sorted by that
// axis (ties by id), and the window-test block is written to match. order is
// scratch for len(ids) pairs.
func (t *Tree) fillLeaf(n int32, ids []int32, pts []float32, order []sortPair) {
	dim := t.dim
	point := func(id int32) []float32 {
		o := int(id) * dim
		return pts[o : o+dim : o+dim]
	}
	rect := t.rect(n)
	rect.set(Rect{Min: point(ids[0]), Max: point(ids[0])})
	for _, id := range ids[1:] {
		rect.ExpandPoint(point(id))
	}
	axis, widest := 0, rect.Max[0]-rect.Min[0]
	for d := 1; d < dim; d++ {
		if e := rect.Max[d] - rect.Min[d]; e > widest {
			widest, axis = e, d
		}
	}
	order = order[:0]
	for _, id := range ids {
		order = append(order, sortPair{float64(point(id)[axis]), id})
	}
	slices.SortFunc(order, byKeyThenIdx)
	t.heads[n].count, t.heads[n].sortAxis = int32(len(order)), uint16(axis)
	entries, S, coords := t.entries(n), t.stride, t.block(n)
	for j, p := range order {
		entries[j] = p.idx
		for d, v := range point(p.idx) {
			coords[d*S+j] = v
		}
	}
	padBlock(coords, S, len(order))
}

// byKeyThenIdx orders pairs by key, ties by id: a total order (ids are
// distinct), so any correct sort yields the same sequence.
func byKeyThenIdx(a, b sortPair) int {
	switch {
	case a.key < b.key:
		return -1
	case a.key > b.key:
		return 1
	}
	return int(a.idx) - int(b.idx)
}

// padBlock sets the lanes from used on, in every row of a block, to +Inf.
func padBlock(block []float32, stride, used int) {
	for lo := used; lo < len(block); lo += stride {
		pad := block[lo : lo+stride-used]
		for j := range pad {
			pad[j] = posInf
		}
	}
}

// setBox writes child j's rect into n's window-test blocks.
func (t *Tree) setBox(n int32, j int, r Rect) {
	cmin, cmax := t.block(n), t.block(n+1)
	for d := 0; d < t.dim; d++ {
		cmin[d*t.stride+j] = r.Min[d]
		cmax[d*t.stride+j] = r.Max[d]
	}
}

// push appends entry e to node n, which must have a free slot.
func (t *Tree) push(n, e int32) {
	t.ents[int(n)*t.ecap+int(t.heads[n].count)] = e
	t.heads[n].count++
}

// Stats describes the shape of a tree, used by tests and the benchmark
// harness to report index size.
type Stats struct {
	Height      int
	Nodes       int
	Leaves      int
	Entries     int
	AvgFill     float64 // mean entries per node / MaxEntries
	BytesApprox int64   // rough in-memory footprint of the tree structure
}

// ComputeStats returns shape statistics: one pass over the arena's slots,
// every one of which is a node of the tree (or an interior node's second).
func (t *Tree) ComputeStats() Stats {
	s := Stats{Height: t.Height()}
	var totalFill float64
	for n := 0; n < len(t.heads); n++ {
		h := t.heads[n]
		s.Nodes++
		totalFill += float64(h.count) / float64(t.opts.MaxEntries)
		if h.level == 0 {
			s.Leaves++
			s.Entries += int(h.count)
		} else {
			n++ // its upper-face slot
		}
	}
	s.BytesApprox = int64(len(t.heads))*int64(8+4*(2*t.dim+t.ecap+t.blockLen)) + 64
	s.AvgFill = totalFill / float64(s.Nodes)
	return s
}
