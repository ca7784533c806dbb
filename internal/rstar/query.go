package rstar

// Covered reports whether the window of half-width half centred at center
// (the float32 rectangle WindowRect(center, 2·half) builds) contains the
// tree's entire bounding box — the ladder's natural end. An empty tree is
// trivially covered; its zero-rect bounds would otherwise pin the window
// to the origin. Allocation-free.
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
