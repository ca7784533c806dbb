package rstar

// Covered reports whether the window of half-width half centred at center
// (the float32 rectangle WindowRect(center, 2·half) builds) contains the
// tree's entire bounding box, the packed tree's and the tail's — the
// ladder's natural end. An empty tree is trivially covered; its zero-rect
// bounds would otherwise pin the window to the origin. Allocation-free.
func (t *Tree) Covered(center []float32, half float64) bool {
	h := float32(half)
	for _, n := range [2]int32{t.root, t.tail} {
		if n < 0 || t.heads[n].count == 0 {
			continue
		}
		b := t.rect(n)
		for j, c := range center {
			if b.Min[j] < c-h || b.Max[j] > c+h {
				return false
			}
		}
	}
	return true
}
