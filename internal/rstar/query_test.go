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

// WindowVisits is Window, additionally returning the number of tree nodes
// examined.
func (t *Tree) WindowVisits(w Rect, visit func(id int) bool) int {
	if t.size == 0 {
		return 0
	}
	nodes, _ := t.window(t.root, w, visit)
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
