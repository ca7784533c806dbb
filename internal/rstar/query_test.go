package rstar

// The window query, the oracle the cursor is tested against, and its
// conveniences.

// Window invokes visit for every indexed point inside rect w (faces
// inclusive). Traversal stops early when visit returns false. The visit order
// is deterministic for a given tree but otherwise unspecified.
//
// This is the index-based window query of the paper's Section IV-C: DB-LSH
// materializes a query-centric bucket W(G(q), w0·r) as a window query on the
// projected space.
func (t *Tree) Window(w Rect, visit func(id int) bool) {
	t.WindowVisits(w, visit)
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

// WindowVisits is Window, additionally returning the number of tree nodes
// examined. It scans the packed tree, then the tail: the cursor's
// depth-first order.
func (t *Tree) WindowVisits(w Rect, visit func(id int) bool) int {
	nodes := 0
	for _, n := range [2]int32{t.root, t.tail} {
		if n < 0 || t.heads[n].count == 0 {
			continue
		}
		sub, ok := t.window(n, w, visit)
		nodes += sub
		if !ok {
			break
		}
	}
	return nodes
}

// WindowAll returns every id inside w.
func (t *Tree) WindowAll(w Rect) []int {
	var out []int
	t.Window(w, func(id int) bool {
		out = append(out, id)
		return true
	})
	return out
}

// Count returns the number of indexed points inside w.
func (t *Tree) Count(w Rect) int {
	n := 0
	t.Window(w, func(int) bool {
		n++
		return true
	})
	return n
}
