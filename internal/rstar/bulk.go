package rstar

import (
	"math"
	"slices"

	"dblsh/internal/vec"
)

// BulkLoad builds an R*-tree over all rows of data using Sort-Tile-Recursive
// (STR) packing. This is the "bulk-loading strategy" the paper credits for
// DB-LSH's small indexing time: packing produces near-100% leaf fill and
// never triggers splits or reinsertions.
//
// The returned tree supports subsequent Insert calls for rows appended to
// data after loading.
func BulkLoad(data *vec.Matrix, opts Options) *Tree {
	t := New(data, opts)
	n := data.Rows()
	if n == 0 {
		return t
	}
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	t.root = t.packUpward(t.packLeaves(ids))
	t.size = n
	return t
}

// BulkLoadIDs builds a tree over a subset of data's rows.
func BulkLoadIDs(data *vec.Matrix, ids []int, opts Options) *Tree {
	t := New(data, opts)
	if len(ids) == 0 {
		return t
	}
	ids32 := make([]int32, len(ids))
	for i, id := range ids {
		ids32[i] = int32(id)
	}
	t.root = t.packUpward(t.packLeaves(ids32))
	t.size = len(ids)
	return t
}

// packLeaves tiles the id set into leaf nodes with STR. Every sort of the
// tiling works in one pair buffer sized for the whole set — the sorts run
// one after another, each over a sub-range of ids — which is garbage once
// the leaves are packed. A buffer per sort sorts as fast but makes K times
// the garbage, and a server's resident set still shows it after loading.
func (t *Tree) packLeaves(ids []int32) []*node {
	cap := t.opts.MaxEntries
	var leaves []*node
	pairs := make([]sortPair, len(ids))
	t.strTile(ids, 0, cap, pairs, func(chunk []int32) {
		leaf := &node{leaf: true, level: 0, ids: append([]int32(nil), chunk...)}
		t.recomputeLeafRect(leaf)
		t.finalizeLeaf(leaf)
		leaves = append(leaves, leaf)
	})
	return leaves
}

// strTile recursively sorts ids by successive axes and partitions them into
// slabs so that the final chunks have at most chunkSize entries (classic STR:
// with P pages and k remaining dims, use ⌈P^(1/k)⌉ slabs per axis).
func (t *Tree) strTile(ids []int32, axis, chunkSize int, pairs []sortPair, emit func([]int32)) {
	if len(ids) <= chunkSize {
		emit(ids)
		return
	}
	remDims := t.dim - axis
	if remDims <= 1 {
		// Last axis: sort and emit fixed-size runs.
		t.sortIDsByAxis(ids, axis, pairs)
		for lo := 0; lo < len(ids); lo += chunkSize {
			hi := lo + chunkSize
			if hi > len(ids) {
				hi = len(ids)
			}
			emit(ids[lo:hi])
		}
		return
	}
	pages := (len(ids) + chunkSize - 1) / chunkSize
	slabs := int(math.Ceil(math.Pow(float64(pages), 1/float64(remDims))))
	if slabs < 1 {
		slabs = 1
	}
	perSlab := (len(ids) + slabs - 1) / slabs
	// Round the slab size to a multiple of chunkSize so inner tiles fill.
	if rem := perSlab % chunkSize; rem != 0 {
		perSlab += chunkSize - rem
	}
	t.sortIDsByAxis(ids, axis, pairs)
	for lo := 0; lo < len(ids); lo += perSlab {
		hi := lo + perSlab
		if hi > len(ids) {
			hi = len(ids)
		}
		t.strTile(ids[lo:hi], axis+1, chunkSize, pairs, emit)
	}
}

// sortIDsByAxis sorts ids by their points' coordinate on axis: it extracts
// (key, id) pairs into pairs, which must be at least len(ids) long, sorts
// those as split.go does, and writes the ids back. Under byKey this is the
// permutation sort.Slice applied to the ids themselves, equal keys
// included (see byKey), so the tree packed from it is the same tree.
func (t *Tree) sortIDsByAxis(ids []int32, axis int, pairs []sortPair) {
	pairs = pairs[:len(ids)]
	for i, id := range ids {
		pairs[i] = sortPair{float64(t.point(id)[axis]), id}
	}
	slices.SortFunc(pairs, byKey)
	for i, p := range pairs {
		ids[i] = p.idx
	}
}

// packUpward builds internal levels over the given nodes until one root
// remains, grouping nodes by STR on their centre points.
func (t *Tree) packUpward(nodes []*node) *node {
	level := 1
	for len(nodes) > 1 {
		nodes = t.packLevel(nodes, level)
		level++
	}
	return nodes[0]
}

func (t *Tree) packLevel(nodes []*node, level int) []*node {
	cap := t.opts.MaxEntries
	centers := make([][]float32, len(nodes))
	for i, n := range nodes {
		centers[i] = n.rect.Center(nil)
	}
	order := make([]int, len(nodes))
	for i := range order {
		order[i] = i
	}
	var groups [][]int
	pairs := make([]sortPair, len(nodes))
	t.strTileGeneric(order, centers, 0, cap, pairs, func(chunk []int) {
		groups = append(groups, append([]int(nil), chunk...))
	})
	out := make([]*node, 0, len(groups))
	for _, g := range groups {
		parent := &node{level: level, children: make([]*node, 0, len(g))}
		for _, idx := range g {
			parent.children = append(parent.children, nodes[idx])
		}
		recomputeRect(parent)
		t.rebuildBoxes(parent)
		out = append(out, parent)
	}
	return out
}

func (t *Tree) strTileGeneric(order []int, centers [][]float32, axis, chunkSize int, pairs []sortPair, emit func([]int)) {
	if len(order) <= chunkSize {
		emit(order)
		return
	}
	remDims := t.dim - axis
	if remDims <= 1 {
		sortOrderByAxis(order, centers, axis, pairs)
		for lo := 0; lo < len(order); lo += chunkSize {
			hi := lo + chunkSize
			if hi > len(order) {
				hi = len(order)
			}
			emit(order[lo:hi])
		}
		return
	}
	pages := (len(order) + chunkSize - 1) / chunkSize
	slabs := int(math.Ceil(math.Pow(float64(pages), 1/float64(remDims))))
	if slabs < 1 {
		slabs = 1
	}
	perSlab := (len(order) + slabs - 1) / slabs
	if rem := perSlab % chunkSize; rem != 0 {
		perSlab += chunkSize - rem
	}
	sortOrderByAxis(order, centers, axis, pairs)
	for lo := 0; lo < len(order); lo += perSlab {
		hi := lo + perSlab
		if hi > len(order) {
			hi = len(order)
		}
		t.strTileGeneric(order[lo:hi], centers, axis+1, chunkSize, pairs, emit)
	}
}

// sortOrderByAxis is sortIDsByAxis for a level's nodes: order holds indices
// into centers and is sorted by the centre coordinate on axis.
func sortOrderByAxis(order []int, centers [][]float32, axis int, pairs []sortPair) {
	pairs = pairs[:len(order)]
	for i, o := range order {
		pairs[i] = sortPair{float64(centers[o][axis]), int32(o)}
	}
	slices.SortFunc(pairs, byKey)
	for i, p := range pairs {
		order[i] = int(p.idx)
	}
}
