package rstar

import (
	"math"
	"slices"

	"dblsh/internal/vec"
)

// BulkLoad builds an R*-tree over all rows of data using Sort-Tile-Recursive
// (STR) packing. This is the "bulk-loading strategy" the paper credits for
// DB-LSH's small indexing time: packing never splits or reinserts. It fills
// each leaf to leafFill, a few entries short of capacity, and every
// interior node to capacity, so the Inserts that follow a load find room in
// the leaf they descend to (Leutenegger, Lopez & Edgington's fill factor
// below 1) instead of overflowing it; only the last node of each level
// holds fewer.
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
	fill := t.leafFill()
	t.reserve(packedSlots(len(ids), fill, t.opts.MaxEntries))
	t.root = t.packUpward(t.packLeaves(ids, fill))
	t.size = len(ids)
	// The last block chunk keeps only the slots in use, as a loaded arena's
	// does; the first node added after the load regrows it (newNode).
	c := len(t.blocks) - 1
	if used := (len(t.heads) - c*chunkSlots) * t.blockLen; used < len(t.blocks[c]) {
		last := make([]float32, used)
		copy(last, t.blocks[c])
		t.blocks[c] = last
	}
	return t
}

// leafFill is the number of entries STR packs into a leaf: M − ⌈M/16⌉ (30
// at the default M = 32), never below MinEntries. The free slots take the
// first Inserts into a packed leaf without overflow treatment: an Insert
// that finds one is a single descent.
func (t *Tree) leafFill() int {
	m := t.opts.MaxEntries
	return max(m-(m+15)/16, t.opts.MinEntries)
}

// packedSlots is the number of arena slots STR packing takes for n entries
// at the given leaf fill and node capacity m: the tiling fills every node
// but the last of its level (strTile), so there are ⌈n/fill⌉ leaves and
// ⌈·/m⌉ interior nodes of two slots each per level above them.
func packedSlots(n, fill, m int) int {
	nodes := (n + fill - 1) / fill
	slots := nodes
	for nodes > 1 {
		nodes = (nodes + m - 1) / m
		slots += 2 * nodes
	}
	return slots
}

// packLeaves tiles the id set into leaves of fill entries with STR. Every
// sort of the tiling works in one pair buffer sized for the whole set — the
// sorts run one after another, each over a sub-range of ids — which is
// garbage once the leaves are packed. A buffer per sort sorts as fast but
// makes K times the garbage, and a server's resident set still shows it
// after loading.
func (t *Tree) packLeaves(ids []int32, fill int) []int32 {
	var leaves []int32
	pairs := make([]sortPair, len(ids))
	t.strTile(ids, t.data.Data(), 0, pairs, fill, func(chunk []int32) {
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
// the final chunks have at most chunkSize entries (classic STR: with P
// pages and k remaining dims, use ⌈P^(1/k)⌉ slabs per axis). Slabs are
// multiples of chunkSize, so every chunk is full but the last one: n items
// make exactly ⌈n/chunkSize⌉ chunks.
func (t *Tree) strTile(items []int32, rows []float32, axis int, pairs []sortPair, chunkSize int, emit func([]int32)) {
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
			t.strTile(items[lo:hi], rows, axis+1, pairs, chunkSize, emit)
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
	t.strTile(order, centers, 0, make([]sortPair, len(nodes)), t.opts.MaxEntries, func(chunk []int32) {
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
