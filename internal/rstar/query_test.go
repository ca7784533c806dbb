package rstar

// Window-query conveniences that only this package's tests call.

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
