package rstar

import "slices"

// performSplit splits an overflowing node using the R*-tree topological
// split: choose the split axis by minimum total margin over all candidate
// distributions, then the distribution on that axis with minimum overlap
// (ties by minimum combined area). The node keeps the first group; the
// returned sibling, a new node at its level, holds the second.
func (t *Tree) performSplit(n int32) int32 {
	entries := t.entries(n)
	s := t.scratch
	// A leaf's entries are points, so both faces are one copy of them: the
	// rows insertPoint gathered (the overflowing leaf's own block is an
	// entry short).
	lo, hi, faces := s.over, s.over, 1
	if !t.leaf(n) {
		lo, hi, faces = s.split.lo, s.split.hi, 2
		for e, c := range entries {
			r := t.rect(c)
			copy(lo[e*t.dim:], r.Min)
			copy(hi[e*t.dim:], r.Max)
		}
	}
	pairs, cut := t.chooseSplit(lo, hi, len(entries), faces)
	for k, e := range pairs {
		// position → entry, before the list is rewritten
		pairs[k].idx, pairs[k].pos = entries[e.idx], e.idx
	}
	sibling := t.newNode(int(t.heads[n].level))
	t.fill(n, pairs[:cut])
	t.fill(sibling, pairs[cut:])
	return sibling
}

// splitScratch is chooseSplit's working memory, sized once for M+1 entries.
type splitScratch struct {
	lo, hi   []float32 // flat copies of an interior node's entry rectangles
	run      Rect      // the MBR a sweep is growing
	prefix   []float32 // MBR of pairs[:cut] for every candidate cut, Min then Max
	pre, suf []float64 // per cut: margin of the first / second group
	ov, area []float64 // per cut: overlap and combined area of the groups
}

func newSplitScratch(dim, total int) splitScratch {
	return splitScratch{
		lo:     make([]float32, total*dim),
		hi:     make([]float32, total*dim),
		run:    newRect(dim),
		prefix: make([]float32, (total+1)*2*dim),
		pre:    make([]float64, total+1),
		suf:    make([]float64, total+1),
		ov:     make([]float64, total+1),
		area:   make([]float64, total+1),
	}
}

// chooseSplit decides the R* split of total entries whose rectangles are
// lo[e·dim:(e+1)·dim] … hi[e·dim:(e+1)·dim] for e in stored order. faces is
// 1 for points (lo aliases hi, one sort per axis) and 2 for rectangles
// (sorted by lower, then by upper face). It returns the entries in split
// order as t.scratch.pairs and the cut: the first group is pairs[:cut].
//
// Each candidate order is swept once from either end with a running MBR, so
// the two group rectangles of every cut cost O(dim) instead of a rebuild;
// min and max are exact, so the rectangles — and the margins, overlaps and
// areas computed from them, in the same order as ever — are bit-identical
// to rebuilt ones. The sorts run in the original sequence (each axis and
// face from the order the previous one left, the winner once more at the
// end), because an unstable sort's placement of equal keys depends on its
// input order and decides which entry falls on which side of a cut.
func (t *Tree) chooseSplit(lo, hi []float32, total, faces int) ([]sortPair, int) {
	s := t.scratch
	sp := &s.split
	m := t.opts.MinEntries

	pairs := s.pairs[:0]
	for e := 0; e < total; e++ {
		pairs = append(pairs, sortPair{idx: int32(e)})
	}
	s.pairs = pairs

	bestAxis, bestFace := -1, lo
	var bestMargin float64
	for axis := 0; axis < t.dim; axis++ {
		face := lo
		for f := 0; f < faces; f++ {
			t.sortByFace(pairs, face, axis)
			t.sweep(pairs, lo, hi, false)
			margin := 0.0
			for cut := m; cut <= total-m; cut++ {
				margin += sp.pre[cut] + sp.suf[cut]
			}
			if bestAxis == -1 || margin < bestMargin {
				bestAxis, bestFace, bestMargin = axis, face, margin
			}
			face = hi
		}
	}

	t.sortByFace(pairs, bestFace, bestAxis)
	t.sweep(pairs, lo, hi, true)
	bestCut := -1
	var bestOverlap, bestArea float64
	for cut := m; cut <= total-m; cut++ {
		ov, area := sp.ov[cut], sp.area[cut]
		if bestCut == -1 || ov < bestOverlap || (ov == bestOverlap && area < bestArea) {
			bestCut, bestOverlap, bestArea = cut, ov, area
		}
	}
	return pairs, bestCut
}

// sortByFace sorts pairs by the entries' coordinate on one face and axis.
func (t *Tree) sortByFace(pairs []sortPair, face []float32, axis int) {
	for k := range pairs {
		pairs[k].key = float64(face[int(pairs[k].idx)*t.dim+axis])
	}
	slices.SortFunc(pairs, byKey)
}

// sweep fills the per-cut tables for the current order of pairs: pre and suf
// (group margins) when choosing the axis, ov and area when choosing the cut.
func (t *Tree) sweep(pairs []sortPair, lo, hi []float32, chooseCut bool) {
	sp := &t.scratch.split
	dim, m, total := t.dim, t.opts.MinEntries, len(pairs)
	run := sp.run
	entry := func(k int) Rect {
		off := int(pairs[k].idx) * dim
		return Rect{Min: lo[off : off+dim], Max: hi[off : off+dim]}
	}
	prefixAt := func(cut int) Rect {
		b := sp.prefix[cut*2*dim : (cut+1)*2*dim]
		return Rect{Min: b[:dim], Max: b[dim:]}
	}

	// Forward: run is the MBR of pairs[:k].
	run.set(entry(0))
	for k := 1; k <= total-m; k++ {
		if k >= m {
			if chooseCut {
				p := prefixAt(k)
				p.set(run)
			} else {
				sp.pre[k] = run.Margin()
			}
		}
		run.ExpandInPlace(entry(k))
	}
	// Backward: run is the MBR of pairs[k:].
	run.set(entry(total - 1))
	for k := total - 1; k >= m; k-- {
		if k <= total-m {
			if chooseCut {
				p := prefixAt(k)
				sp.ov[k] = p.OverlapArea(run)
				sp.area[k] = p.Area() + run.Area()
			} else {
				sp.suf[k] = run.Margin()
			}
		}
		run.ExpandInPlace(entry(k - 1))
	}
}

// fill makes the entries that pairs carry node n's entry list, in that
// order, tightens its rect around them and rebuilds its blocks. A leaf's
// points are the rows of s.over the pairs point at.
func (t *Tree) fill(n int32, pairs []sortPair) {
	if t.leaf(n) {
		t.fillLeaf(n, pairs, t.scratch.over)
		return
	}
	t.heads[n].count = int32(len(pairs))
	entries := t.entries(n)
	for j, e := range pairs {
		entries[j] = e.idx
	}
	t.recomputeRect(n)
	t.rebuildBoxes(n)
}
