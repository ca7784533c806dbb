package rstar

import (
	"math"
	"sort"

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
	leaves := t.packLeaves(ids)
	t.root = t.packUpward(leaves)
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
	leaves := t.packLeaves(ids32)
	t.root = t.packUpward(leaves)
	t.size = len(ids)
	return t
}

// packLeaves tiles the id set into leaf nodes with STR.
func (t *Tree) packLeaves(ids []int32) []*node {
	cap := t.opts.MaxEntries
	var leaves []*node
	t.strTile(ids, 0, cap, func(chunk []int32) {
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
func (t *Tree) strTile(ids []int32, axis, chunkSize int, emit func([]int32)) {
	if len(ids) <= chunkSize {
		emit(ids)
		return
	}
	remDims := t.dim - axis
	if remDims <= 1 {
		// Last axis: sort and emit fixed-size runs.
		t.sortIDsByAxis(ids, axis)
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
	t.sortIDsByAxis(ids, axis)
	for lo := 0; lo < len(ids); lo += perSlab {
		hi := lo + perSlab
		if hi > len(ids) {
			hi = len(ids)
		}
		t.strTile(ids[lo:hi], axis+1, chunkSize, emit)
	}
}

func (t *Tree) sortIDsByAxis(ids []int32, axis int) {
	sort.Slice(ids, func(a, b int) bool {
		return t.point(ids[a])[axis] < t.point(ids[b])[axis]
	})
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
	t.strTileGeneric(order, centers, 0, cap, func(chunk []int) {
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

func (t *Tree) strTileGeneric(order []int, centers [][]float32, axis, chunkSize int, emit func([]int)) {
	if len(order) <= chunkSize {
		emit(order)
		return
	}
	remDims := t.dim - axis
	if remDims <= 1 {
		sort.Slice(order, func(a, b int) bool {
			return centers[order[a]][axis] < centers[order[b]][axis]
		})
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
	sort.Slice(order, func(a, b int) bool {
		return centers[order[a]][axis] < centers[order[b]][axis]
	})
	for lo := 0; lo < len(order); lo += perSlab {
		hi := lo + perSlab
		if hi > len(order) {
			hi = len(order)
		}
		t.strTileGeneric(order[lo:hi], centers, axis+1, chunkSize, emit)
	}
}
