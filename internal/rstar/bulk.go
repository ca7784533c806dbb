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
	ids := make([]int32, data.Rows())
	for i := range ids {
		ids[i] = int32(i)
	}
	return bulkLoad(data, ids, opts)
}

// BulkLoadIDs builds a tree over a subset of data's rows.
func BulkLoadIDs(data *vec.Matrix, ids []int, opts Options) *Tree {
	ids32 := make([]int32, len(ids))
	for i, id := range ids {
		ids32[i] = int32(id)
	}
	return bulkLoad(data, ids32, opts)
}

func bulkLoad(data *vec.Matrix, ids []int32, opts Options) *Tree {
	if len(ids) == 0 {
		return New(data, opts)
	}
	t := newTree(data, opts)
	// Full leaves, 1/M as many nodes again above them, and a few slots for
	// the short tiles at slab ends: enough that packing rarely regrows the
	// per-slot slices, close enough that it leaves no slack to speak of.
	leaves := len(ids)/t.opts.MaxEntries + 1
	t.reserve(leaves + 4*(leaves/t.opts.MaxEntries+t.dim))
	t.root = t.packUpward(t.packLeaves(ids))
	t.size = len(ids)
	return t
}

// packLeaves tiles the id set into leaf nodes with STR. Every sort of the
// tiling works in one pair buffer sized for the whole set — the sorts run
// one after another, each over a sub-range of ids — which is garbage once
// the leaves are packed. A buffer per sort sorts as fast but makes K times
// the garbage, and a server's resident set still shows it after loading.
func (t *Tree) packLeaves(ids []int32) []int32 {
	var leaves []int32
	pairs := make([]sortPair, len(ids))
	t.strTile(ids, t.data.Data(), 0, pairs, func(chunk []int32) {
		leaf := t.newNode(0)
		t.setEntries(leaf, chunk...)
		t.recomputeLeafRect(leaf)
		t.finalizeLeaf(leaf)
		leaves = append(leaves, leaf)
	})
	return leaves
}

// strTile recursively sorts items — row indices into the flat dim-column
// matrix rows — by successive axes and partitions them into slabs so that
// the final chunks have at most MaxEntries entries (classic STR: with P
// pages and k remaining dims, use ⌈P^(1/k)⌉ slabs per axis).
func (t *Tree) strTile(items []int32, rows []float32, axis int, pairs []sortPair, emit func([]int32)) {
	chunkSize := t.opts.MaxEntries
	if len(items) <= chunkSize {
		emit(items)
		return
	}
	// Sort by the axis: extract (key, item) pairs, sort those as split.go
	// does, write the items back. Under byKey this is the permutation
	// sort.Slice applied to the items themselves, equal keys included (see
	// byKey), so the tree packed from it is the same tree.
	pairs = pairs[:len(items)]
	for i, it := range items {
		pairs[i] = sortPair{float64(rows[int(it)*t.dim+axis]), it}
	}
	slices.SortFunc(pairs, byKey)
	for i, p := range pairs {
		items[i] = p.idx
	}

	// Last axis: emit fixed-size runs. Otherwise slabs, their size rounded
	// to a multiple of chunkSize so inner tiles fill.
	step := chunkSize
	if remDims := t.dim - axis; remDims > 1 {
		pages := (len(items) + chunkSize - 1) / chunkSize
		slabs := max(int(math.Ceil(math.Pow(float64(pages), 1/float64(remDims)))), 1)
		step = (len(items) + slabs - 1) / slabs
		if rem := step % chunkSize; rem != 0 {
			step += chunkSize - rem
		}
	}
	for lo := 0; lo < len(items); lo += step {
		hi := min(lo+step, len(items))
		if step == chunkSize {
			emit(items[lo:hi])
		} else {
			t.strTile(items[lo:hi], rows, axis+1, pairs, emit)
		}
	}
}

// packUpward builds internal levels over the given nodes until one root
// remains, grouping nodes by STR on their centre points.
func (t *Tree) packUpward(nodes []int32) int32 {
	for level := 1; len(nodes) > 1; level++ {
		nodes = t.packLevel(nodes, level)
	}
	return nodes[0]
}

func (t *Tree) packLevel(nodes []int32, level int) []int32 {
	centers := make([]float32, len(nodes)*t.dim)
	order := make([]int32, len(nodes))
	for i, n := range nodes {
		t.rect(n).Center(centers[i*t.dim : (i+1)*t.dim])
		order[i] = int32(i)
	}
	var out []int32
	group := make([]int32, 0, t.opts.MaxEntries)
	t.strTile(order, centers, 0, make([]sortPair, len(nodes)), func(chunk []int32) {
		group = group[:0]
		for _, i := range chunk {
			group = append(group, nodes[i])
		}
		parent := t.newNode(level)
		t.setEntries(parent, group...)
		t.recomputeRect(parent)
		t.rebuildBoxes(parent)
		out = append(out, parent)
	})
	return out
}
