package rstar

import (
	"fmt"
	"math"

	"dblsh/internal/vec"
)

// Pack builds an R*-tree over all rows of data, row i under id i, using
// Sort-Tile-Recursive (STR) packing. This is the "bulk-loading strategy" the
// paper credits for DB-LSH's small indexing time, and the only way this
// package builds a tree: adds go to a tail that Repack folds into a fresh
// pack. It fills each leaf to leafFill, a few entries short of capacity, and
// every interior node to capacity; only the last node of each level holds
// fewer.
//
// The tree copies the rows into its leaves and keeps no reference to data,
// which the caller may drop once Pack returns. Grow it with InsertPoint.
func Pack(data *vec.Matrix, opts Options) *Tree {
	ids := make([]int32, data.Rows())
	for i := range ids {
		ids[i] = int32(i)
	}
	return pack(data, ids, opts)
}

// BulkLoad is Pack for a tree that then grows by Insert: the tree keeps
// data, and Insert(id) inserts row id of it. It exists only because
// benchmark/layers.go calls BulkLoad and Insert(id), and a change that
// claims a gain may not edit benchmark/; ROADMAP item 1, the change that
// thaws benchmark/, deletes BulkLoad, Insert and Tree.rows.
func BulkLoad(data *vec.Matrix, opts Options) *Tree {
	t := Pack(data, opts)
	t.rows = data
	return t
}

// Insert is InsertPoint(id, row id of the matrix given to BulkLoad); see
// BulkLoad. It panics on a tree BulkLoad did not return.
func (t *Tree) Insert(id int) {
	if t.rows == nil || id < 0 || id >= t.rows.Rows() {
		panic(fmt.Sprintf("rstar: Insert(%d) needs a tree from BulkLoad over a matrix holding row %d", id, id))
	}
	t.InsertPoint(id, t.rows.Row(id))
}

// pack STR-packs the given rows of data.
func pack(data *vec.Matrix, ids []int32, opts Options) *Tree {
	if len(ids) == 0 {
		return New(data.Dim(), opts)
	}
	t := newTree(data.Dim(), opts)
	fill := t.leafFill()
	t.reserve(packedSlots(len(ids), fill, t.opts.MaxEntries))
	keys := make([]uint64, 2*len(ids))
	t.root = t.packUpward(t.packLeaves(ids, data.Data(), fill, keys), keys)
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
// at the default M = 32), never below MinEntries. The free slots date from
// when adds descended into packed leaves; they are kept because the fill
// decides the tree, which the index files and the goldens record.
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

// packLeaves tiles the id set into leaves of fill entries with STR; row id
// of rows, a matrix of dim columns, is id's point. Every
// axis sort of the tiling works in keys, one buffer per load (pack) —
// the sorts run one after another, each over a sub-range of ids — which is
// garbage once the tree is packed. A buffer per sort sorts as fast but makes
// K times the garbage, and a server's resident set still shows it after
// loading; a buffer kept on the tree would outlive the load.
func (t *Tree) packLeaves(ids []int32, rows []float32, fill int, keys []uint64) []int32 {
	var leaves []int32
	order := make([]sortPair, 0, fill)
	t.strTile(ids, rows, 0, keys, fill, func(chunk []int32) {
		leaf := t.newNode(0)
		t.fillLeaf(leaf, chunk, rows, order)
		leaves = append(leaves, leaf)
	})
	return leaves
}

// strTile recursively sorts items — row indices into the flat dim-column
// matrix rows — by successive axes and partitions them into slabs so that
// the final chunks have at most chunkSize entries (classic STR: with P
// pages and k remaining dims, use ⌈P^(1/k)⌉ slabs per axis). Slabs are
// multiples of chunkSize, so every chunk is full but the last one: n items
// make exactly ⌈n/chunkSize⌉ chunks. Each axis sort is stable, so items
// whose coordinates tie keep the order the previous axis left them in — the
// caller's order at axis 0 — and the tiling depends on the data alone.
func (t *Tree) strTile(items []int32, rows []float32, axis int, keys []uint64, chunkSize int, emit func([]int32)) {
	if len(items) <= chunkSize {
		emit(items)
		return
	}
	sortAxis(items, rows, t.dim, axis, keys)

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
			t.strTile(items[lo:hi], rows, axis+1, keys, chunkSize, emit)
		}
	}
}

// insertionCutoff is the item count below which sortAxis sorts by insertion:
// under it the radix passes' histograms cost more than the moves they save.
const insertionCutoff = 64

// sortAxis stably sorts items by coordinate axis of their rows in the
// dim-column matrix rows; keys is scratch for at least 2·len(items) values.
// Each item becomes one uint64, its axis key (axisKey) in the high half and
// the item in the low half, sorted by the high half alone: least significant
// byte first, one counting pass per byte, skipping a byte every key shares.
func sortAxis(items []int32, rows []float32, dim, axis int, keys []uint64) {
	n := len(items)
	src, dst := keys[:n], keys[n:2*n]
	for i, it := range items {
		src[i] = uint64(axisKey(rows[int(it)*dim+axis]))<<32 | uint64(uint32(it))
	}
	if n < insertionCutoff {
		for i := 1; i < n; i++ {
			k := src[i]
			j := i
			for ; j > 0 && src[j-1]>>32 > k>>32; j-- {
				src[j] = src[j-1]
			}
			src[j] = k
		}
	} else {
		var counts [4][256]int
		for _, k := range src {
			h := uint32(k >> 32)
			counts[0][uint8(h)]++
			counts[1][uint8(h>>8)]++
			counts[2][uint8(h>>16)]++
			counts[3][uint8(h>>24)]++
		}
		for b := range counts {
			shift := 32 + 8*b
			c := &counts[b]
			if c[uint8(src[0]>>shift)] == n {
				continue // every key has this digit: the pass would copy
			}
			at := 0
			for d, m := range c {
				c[d], at = at, at+m
			}
			for _, k := range src {
				d := uint8(k >> shift)
				dst[c[d]] = k
				c[d]++
			}
			src, dst = dst, src
		}
	}
	for i, k := range src {
		items[i] = int32(uint32(k))
	}
}

// axisKey maps a coordinate to an unsigned key in the same order: the sign
// bit flipped for positive values, every bit for negative ones, −0 folded
// into +0 (the two compare equal), −Inf and +Inf at the ends. NaN is not a
// coordinate.
func axisKey(v float32) uint32 {
	b := math.Float32bits(v)
	if b == 1<<31 {
		b = 0
	}
	if b&(1<<31) != 0 {
		return ^b
	}
	return b | 1<<31
}

// packUpward builds internal levels over the given nodes until one root
// remains, grouping nodes by STR on their centre points.
func (t *Tree) packUpward(nodes []int32, keys []uint64) int32 {
	for level := 1; len(nodes) > 1; level++ {
		nodes = t.packLevel(nodes, level, keys)
	}
	return nodes[0]
}

func (t *Tree) packLevel(nodes []int32, level int, keys []uint64) []int32 {
	centers := make([]float32, len(nodes)*t.dim)
	order := make([]int32, len(nodes))
	for i, n := range nodes {
		t.rect(n).Center(centers[i*t.dim : (i+1)*t.dim])
		order[i] = int32(i)
	}
	var out []int32
	group := make([]int32, 0, t.opts.MaxEntries)
	t.strTile(order, centers, 0, keys, t.opts.MaxEntries, func(chunk []int32) {
		group = group[:0]
		for _, i := range chunk {
			group = append(group, nodes[i])
		}
		parent := t.newNode(level)
		t.setEntries(parent, group...)
		rect := t.rect(parent)
		rect.set(t.rect(group[0]))
		for j, c := range group {
			rect.ExpandInPlace(t.rect(c))
			t.setBox(parent, j, t.rect(c))
		}
		padBlock(t.block(parent), t.stride, len(group))
		padBlock(t.block(parent+1), t.stride, len(group))
		out = append(out, parent)
	})
	return out
}
