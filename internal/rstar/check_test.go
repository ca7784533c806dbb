package rstar

import (
	"slices"

	"dblsh/internal/vec"
)

// BulkLoadIDs is Pack over a subset of data's rows, row id under id.
func BulkLoadIDs(data *vec.Matrix, ids []int, opts Options) *Tree {
	ids32 := make([]int32, len(ids))
	for i, id := range ids {
		ids32[i] = int32(id)
	}
	return pack(data, ids32, opts)
}

// newRect returns the zero rectangle at the origin, both corners carved from
// one allocation.
func newRect(dim int) Rect {
	buf := make([]float32, 2*dim)
	return Rect{Min: buf[:dim:dim], Max: buf[dim:]}
}

// CheckInvariants validates structural invariants and returns a description
// of the first violation found, or "" when the tree is consistent:
//
//   - every node's rect tightly bounds its entries,
//   - every non-root node has between 1 and MaxEntries entries,
//   - all leaves are at level 0 and levels decrease by one per step,
//   - Size() equals the number of leaf entries,
//   - every leaf's window-test block mirrors the rows of data its ids name,
//     a packed leaf's in sort-axis order, and every internal node's blocks
//     mirror its children's rects, lanes past the entries +Inf,
//   - the tail, when there is one, is a level-1 node whose leaves hold the
//     last TailLen() ids in arrival order, every leaf but the last full.
//
// data is the test's oracle: row id holds the point inserted under id.
func (t *Tree) CheckInvariants(data *vec.Matrix) string {
	total := 0
	var check func(n int32, tail bool) string
	check = func(n int32, tail bool) string {
		h, rect, entries := t.heads[n], t.rect(n), t.entries(n)
		want := newRect(t.dim)
		if h.level == 0 {
			total += len(entries)
			if int(h.sortAxis) >= t.dim {
				return "leaf sort axis out of range"
			}
			coords := t.block(n)
			if msg := t.checkBlock(coords, len(entries), func(j, d int) float32 { return data.Row(int(entries[j]))[d] }); msg != "" {
				return "leaf block: " + msg
			}
			keys := coords[int(h.sortAxis)*t.stride:]
			for j := 1; j < len(entries) && !tail; j++ {
				if keys[j-1] > keys[j] || (keys[j-1] == keys[j] && entries[j-1] > entries[j]) {
					return "leaf entries not sorted by sort axis"
				}
			}
			for j, id := range entries {
				if j == 0 {
					want.set(Rect{Min: data.Row(int(id)), Max: data.Row(int(id))})
				}
				want.ExpandPoint(data.Row(int(id)))
			}
		} else {
			if len(entries) == 0 {
				return "internal node with no children"
			}
			for j, c := range entries {
				if t.heads[c].level != h.level-1 {
					return "child level mismatch"
				}
				if !rect.ContainsRect(t.rect(c)) {
					return "child rect outside parent"
				}
				if msg := check(c, tail); msg != "" {
					return msg
				}
				if j == 0 {
					want.set(t.rect(c))
				}
				want.ExpandInPlace(t.rect(c))
			}
			if msg := t.checkBlock(t.block(n), len(entries), func(j, d int) float32 { return t.rect(entries[j]).Min[d] }); msg != "" {
				return "internal lower-face block: " + msg
			}
			if msg := t.checkBlock(t.block(n+1), len(entries), func(j, d int) float32 { return t.rect(entries[j]).Max[d] }); msg != "" {
				return "internal upper-face block: " + msg
			}
		}
		if len(entries) > t.opts.MaxEntries {
			return "node over capacity"
		}
		// Bulk loading can leave one trailing under-filled node per level;
		// tolerate under-fill but not emptiness.
		if n != t.root && len(entries) == 0 {
			return "empty non-root node"
		}
		if len(entries) > 0 && !(slices.Equal(want.Min, rect.Min) && slices.Equal(want.Max, rect.Max)) {
			return "node rect is not tight"
		}
		return ""
	}
	if msg := check(t.root, false); msg != "" {
		return msg
	}
	if t.tail >= 0 {
		if t.heads[t.tail].level != 1 {
			return "tail node off level 1"
		}
		if msg := check(t.tail, true); msg != "" {
			return "tail: " + msg
		}
		next := int32(t.size - t.TailLen())
		kids := t.entries(t.tail)
		for i, leaf := range kids {
			if i < len(kids)-1 && int(t.heads[leaf].count) != t.opts.MaxEntries {
				return "tail leaf short of capacity before the last"
			}
			for _, id := range t.entries(leaf) {
				if id != next {
					return "tail ids out of arrival order"
				}
				next++
			}
		}
	}
	if total != t.size {
		return "size mismatch"
	}
	return ""
}

// checkBlock compares one window-test block of a node holding used entries
// with what it must mirror: want(j, d) in lane j of row d, +Inf beyond.
func (t *Tree) checkBlock(block []float32, used int, want func(j, d int) float32) string {
	if used > t.stride {
		return "more entries than lanes"
	}
	for d := 0; d < t.dim; d++ {
		row := block[d*t.stride : (d+1)*t.stride]
		for j, v := range row[:used] {
			if v != want(j, d) {
				return "stale lane"
			}
		}
		for _, v := range row[used:] {
			if v != posInf {
				return "padding lane is not +Inf"
			}
		}
	}
	return ""
}
