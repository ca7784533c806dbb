package rstar

import (
	"container/heap"
	"slices"
)

// Window invokes visit for every indexed point inside rect w (faces
// inclusive). Traversal stops early when visit returns false. The visit order
// is deterministic for a given tree but otherwise unspecified.
//
// This is the index-based window query of the paper's Section IV-C: DB-LSH
// materializes a query-centric bucket W(G(q), w0·r) as a window query on the
// projected space.
func (t *Tree) Window(w Rect, visit func(id int) bool) {
	if t.size > 0 {
		t.window(t.root, w, visit)
	}
}

// window is Window below node n; it also returns how many nodes it
// examined, and whether visit let it finish.
func (t *Tree) window(n int32, w Rect, visit func(id int) bool) (int, bool) {
	nodes := 1
	if t.leaf(n) {
		coords := t.block(n)
		for j, id := range t.entries(n) {
			if t.entryInside(coords, j, w) && !visit(int(id)) {
				return nodes, false
			}
		}
		return nodes, true
	}
	for _, c := range t.entries(n) {
		if !w.Intersects(t.rect(c)) {
			continue
		}
		sub, ok := t.window(c, w, visit)
		nodes += sub
		if !ok {
			return nodes, false
		}
	}
	return nodes, true
}

// entryInside is Rect.Contains for a leaf's j-th entry, read from lane j of
// the leaf's block. One entry and one comparison at a time on purpose:
// Window is the oracle the cursor's whole-node kernels are tested against,
// so it shares none of their code.
func (t *Tree) entryInside(coords []float32, j int, w Rect) bool {
	for d := 0; d < t.dim; d++ {
		if v := coords[d*t.stride+j]; v < w.Min[d] || v > w.Max[d] {
			return false
		}
	}
	return true
}

// Covered reports whether the window of half-width half centred at center
// (the float32 rectangle WindowRect(center, 2·half) builds) contains the
// tree's entire bounding box — the ladder's natural end. An empty tree is
// trivially covered; its zero-rect bounds would otherwise pin the window
// to the origin. Allocation-free, unlike testing against Bounds.
func (t *Tree) Covered(center []float32, half float64) bool {
	if t.size == 0 {
		return true
	}
	h := float32(half)
	b := t.rect(t.root)
	for j, c := range center {
		if b.Min[j] < c-h || b.Max[j] > c+h {
			return false
		}
	}
	return true
}

// nnItem is a heap entry for best-first search: either a node or a point.
type nnItem struct {
	distSq float64
	ref    int32 // a node, or a row id when point is set
	point  bool
}

type nnHeap []nnItem

func (h nnHeap) Len() int            { return len(h) }
func (h nnHeap) Less(i, j int) bool  { return h[i].distSq < h[j].distSq }
func (h nnHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nnHeap) Push(x interface{}) { *h = append(*h, x.(nnItem)) }
func (h *nnHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// NearestVisit streams indexed points in ascending distance-from-q order,
// calling visit with each id and its squared distance, until visit returns
// false or the tree is exhausted. This incremental form is what the PM-LSH
// baseline uses for metric queries in the projected space.
func (t *Tree) NearestVisit(q []float32, visit func(id int, distSq float64) bool) {
	if t.size == 0 {
		return
	}
	h := &nnHeap{{distSq: t.rect(t.root).MinDistSq(q), ref: t.root}}
	for h.Len() > 0 {
		it := heap.Pop(h).(nnItem)
		if it.point {
			if !visit(int(it.ref), it.distSq) {
				return
			}
			continue
		}
		for _, e := range t.entries(it.ref) {
			if t.leaf(it.ref) {
				heap.Push(h, nnItem{distSq: pointDistSq(q, t.point(e)), ref: e, point: true})
			} else {
				heap.Push(h, nnItem{distSq: t.rect(e).MinDistSq(q), ref: e})
			}
		}
	}
}

// CheckInvariants validates structural invariants and returns a description
// of the first violation found, or "" when the tree is consistent:
//
//   - every node's rect tightly bounds its entries,
//   - every non-root node has between MinEntries and MaxEntries entries
//     (leaves packed by bulk loading may be under-filled only at the tail),
//   - all leaves are at level 0 and levels decrease by one per step,
//   - Size() equals the number of leaf entries,
//   - every leaf's window-test block mirrors the matrix rows of its ids, in
//     sort-axis order, and every internal node's blocks mirror its
//     children's rects, lanes past the entries +Inf.
//
// Intended for tests and debugging; it walks the whole tree.
func (t *Tree) CheckInvariants() string {
	total := 0
	var check func(n int32) string
	check = func(n int32) string {
		h, rect, entries := t.heads[n], t.rect(n), t.entries(n)
		want := newRect(t.dim)
		if h.level == 0 {
			total += len(entries)
			if int(h.sortAxis) >= t.dim {
				return "leaf sort axis out of range"
			}
			coords := t.block(n)
			if msg := t.checkBlock(coords, len(entries), func(j, d int) float32 { return t.point(entries[j])[d] }); msg != "" {
				return "leaf block: " + msg
			}
			keys := coords[int(h.sortAxis)*t.stride:]
			for j := 1; j < len(entries); j++ {
				if keys[j-1] > keys[j] || (keys[j-1] == keys[j] && entries[j-1] > entries[j]) {
					return "leaf entries not sorted by sort axis"
				}
			}
			for j, id := range entries {
				if j == 0 {
					want.set(Rect{Min: t.point(id), Max: t.point(id)})
				}
				want.ExpandPoint(t.point(id))
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
				if msg := check(c); msg != "" {
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
		if n != t.root {
			if len(entries) > t.opts.MaxEntries {
				return "node over capacity"
			}
			// Bulk loading can leave one trailing under-filled node per
			// level; tolerate under-fill but not emptiness.
			if len(entries) == 0 {
				return "empty non-root node"
			}
		}
		if len(entries) > 0 && !(slices.Equal(want.Min, rect.Min) && slices.Equal(want.Max, rect.Max)) {
			return "node rect is not tight"
		}
		return ""
	}
	if msg := check(t.root); msg != "" {
		return msg
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
