package rstar

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"dblsh/internal/vec"
)

// Default node capacities. 32 entries per node is a good fit for in-memory
// trees over 10–12 dimensional points; maxCapacity is the width of a
// Cursor's per-node bitmask.
const (
	DefaultMaxEntries = 32
	maxCapacity       = 64
	reinsertFraction  = 0.3 // R* "p": share of entries force-reinserted on first overflow
)

// Options configures a Tree.
type Options struct {
	// MaxEntries is the node capacity M, clamped to [4, 64]. Defaults to
	// DefaultMaxEntries.
	MaxEntries int
	// MinEntries is the minimum fill m (2 ≤ m ≤ M/2). Defaults to 40% of M,
	// the value recommended in the R*-tree paper.
	MinEntries int
	// Quantize is ignored. It switched on an int8 twin of every leaf that
	// the whole-node window tests replaced; the field survives only because
	// benchmark/layers.go:105 sets it and a change that claims a gain may
	// not edit benchmark/. Remove it in the next PR that may.
	Quantize bool
}

// Resolved returns the options a tree built with o actually runs on:
// defaults filled in, capacities clamped to what the algorithm needs. It is
// idempotent, and what an index file records.
func (o Options) Resolved() Options { return o.withDefaults() }

func (o Options) withDefaults() Options {
	if o.MaxEntries == 0 {
		o.MaxEntries = DefaultMaxEntries
	}
	o.MaxEntries = min(max(o.MaxEntries, 4), maxCapacity)
	if o.MinEntries == 0 {
		o.MinEntries = o.MaxEntries * 2 / 5
	}
	if o.MinEntries < 2 {
		o.MinEntries = 2
	}
	if o.MinEntries > o.MaxEntries/2 {
		o.MinEntries = o.MaxEntries / 2
	}
	return o
}

// Tree is an R*-tree over points of a fixed dimension, each an int32 id
// and its coordinates. The coordinates live in the leaves' window-test
// blocks and nowhere else: InsertPoint and the bulk loads copy them in and
// keep no reference to what they were given.
//
// Tree is not safe for concurrent mutation; concurrent read-only queries are
// safe.
type Tree struct {
	opts Options
	root int32
	size int
	dim  int
	// stride is the lane count of every node's window-test block:
	// MaxEntries rounded up to a whole number of 8-lane vectors.
	stride   int
	blockLen int // dim·stride: floats per block
	ecap     int // MaxEntries+1: entry slots per node

	// The node arena (arena.go), indexed by slot.
	heads  []head
	rects  []float32
	ents   []int32
	blocks [][]float32

	// version counts structural mutations. Cursors pin a traversal snapshot
	// of the node graph; they compare versions to detect that the snapshot
	// went stale and must be re-armed (see Cursor.Synced).
	version uint64

	// reinserted has bit l set once level l did its forced reinsert during
	// the current InsertPoint (R* performs at most one per level; a tree over
	// int32 ids is far shallower than 64 levels).
	reinserted uint64

	// scratch holds every buffer the mutation path works in, so that an
	// insert allocates only when the arena itself grows.
	// Created on first use; never shared with queries.
	scratch *insertScratch

	// rows is the matrix BulkLoad was given, which Insert reads a row id's
	// coordinates from; nil for every other tree. See BulkLoad.
	rows *vec.Matrix
}

// insertScratch is the mutation path's working memory. One descent, sort, sweep
// or eviction is in flight per buffer at any time — insertion recurses
// (forced reinsertion re-enters insertPoint/insertSubtree), but every caller
// is done with path, pairs, order, area, grownArea, faces, gaps, center and
// over before it recurses, and the eviction lists are frames on one stack.
type insertScratch struct {
	path   []int32    // root-to-target path of the latest descent
	pairs  []sortPair // the entry sequence being sorted
	order  []sortPair // fillLeaf: a leaf's entries in sort-axis order
	center []float32  // forceReinsert: centre of the overflowing node
	// bestChild: every child's area and enlarged area, a float64 per lane;
	// a candidate's own and enlarged faces (lower and upper, dim each); the
	// gaps BoxMask writes, which nothing reads.
	area, grownArea []float64
	faces           []float32
	gaps            []float32
	// over holds the points of the leaf the latest insertPoint overflowed,
	// M+1 rows of dim in entry order: what its block cannot hold.
	over []float32
	// evicted is a stack of evicted entries, a frame per level; evictedPts
	// holds the coordinates of the evicted points, dim per point, for the
	// frames that evicted points.
	evicted    []int32
	evictedPts []float32
	split      splitScratch
}

// scr returns the scratch, creating it on first use. InsertPoint and the
// bulk loads call it; everything beneath them reads t.scratch directly.
func (t *Tree) scr() *insertScratch {
	if t.scratch == nil {
		total := t.opts.MaxEntries + 1
		t.scratch = &insertScratch{
			pairs:     make([]sortPair, 0, total),
			order:     make([]sortPair, 0, total),
			center:    make([]float32, t.dim),
			area:      make([]float64, t.stride),
			grownArea: make([]float64, t.stride),
			faces:     make([]float32, 4*t.dim),
			gaps:      make([]float32, t.stride),
			over:      make([]float32, total*t.dim),
			split:     newSplitScratch(t.dim, total),
		}
	}
	return t.scratch
}

// sortPair is one entry of a sequence being sorted: its sort key, which
// entry it is, and — for a leaf's points — which row of a point matrix
// holds its coordinates. Sorting extracted pairs instead of the entries
// themselves keeps the comparator free of pointer chasing and of
// sort.Slice's reflection swapper.
type sortPair struct {
	key float64 // float32 keys widen exactly, so comparisons are unchanged
	idx int32
	pos int32
}

// byKey orders pairs by key alone, for the two sorts of at most M+1 entries
// the insert path makes: a split's sort by face and forced reinsertion's by
// distance. slices.SortFunc and sort.Slice are instances of one pdqsort
// template that consults only "less", so sorting pairs under byKey applies
// the very permutation sort.Slice applied to the entries under
// "key[a] < key[b]" — including which of several equal keys lands where,
// which decides group membership at a split cut and eviction at a distance
// tie (TestSortPairsMatchesSortSlice pins this).
func byKey(a, b sortPair) int {
	if a.key < b.key {
		return -1
	}
	if a.key > b.key {
		return 1
	}
	return 0
}

// byKeyThenIdx is a total order (idx values are distinct), so any correct
// sort yields the same sequence.
func byKeyThenIdx(a, b sortPair) int {
	if c := byKey(a, b); c != 0 {
		return c
	}
	return int(a.idx) - int(b.idx)
}

// New creates an empty R*-tree over points of dimension dim. Add points with
// InsertPoint, or use Pack to build a populated tree directly.
func New(dim int, opts Options) *Tree {
	if dim < 1 {
		panic("rstar: points must have at least one dimension")
	}
	t := newTree(dim, opts)
	t.root = t.newNode(0)
	padBlock(t.block(t.root), t.stride, 0)
	return t
}

// newTree returns a tree over points of dimension dim with an empty arena
// and no root yet.
func newTree(dim int, opts Options) *Tree {
	opts = opts.withDefaults()
	t := &Tree{opts: opts, dim: dim, stride: (opts.MaxEntries + 7) &^ 7, ecap: opts.MaxEntries + 1}
	t.blockLen = t.dim * t.stride
	return t
}

// Size returns the number of indexed points.
func (t *Tree) Size() int { return t.size }

// Dim returns the dimensionality of indexed points.
func (t *Tree) Dim() int { return t.dim }

// Height returns the number of levels (1 for a tree that is just a leaf).
func (t *Tree) Height() int { return int(t.heads[t.root].level) + 1 }

// InsertPoint indexes point p under id using R* insertion (Beckmann et
// al.): ChooseSubtree by least overlap enlargement above the leaves and
// least area enlargement higher up, forced reinsertion of the 30 % of
// entries farthest from the centre on a level's first overflow, the
// topological split afterwards. p's coordinates are copied into the tree;
// p itself is not retained. id must be new to the tree: ids are not checked
// for duplicates, and a duplicate is returned by queries twice.
//
// Cost model: a descent reads each node on its path through the node's own
// blocks, one O(M·dim) sweep for the children's areas and enlargements; at
// the leaf-parent level every candidate also takes one vec.BoxMask call and
// an overlap sum over the siblings within its reach, abandoned once it
// exceeds the best so far (O(M²·dim) at worst, see bestChild). STR packing
// leaves ⌈M/16⌉ free slots in every leaf (Pack), so an insert into a
// freshly packed or loaded tree is usually that one descent. An insert that
// finds its leaf full overflows it and force-reinserts ⌊0.3·(M+1)+½⌋ = 10 of
// its entries (M = 32); each is a further descent, and one that lands in
// another full leaf splits it (level 0 having had its reinsertion): ~11
// descents and a few splits.
// Steady state allocates only when a split's new node is the one the arena
// has to grow for: a block chunk every 64 slots, never a copy of the blocks
// already there.
//
// Same-tree guarantee: every comparison the algorithm makes — chosen child,
// evicted entries and their order, split axis, face and cut, tie-breaks
// included — is decided on bit-identical values in the original order, so
// the tree is the one the straightforward O(M²·dim)-per-step formulation
// builds, node for node (TestTreeIdentityGolden). The guarantee assumes
// finite coordinates whose rectangle volumes do not overflow float64.
func (t *Tree) InsertPoint(id int, p []float32) {
	if id < 0 || id > math.MaxInt32 || len(p) != t.dim {
		panic(fmt.Sprintf("rstar: insert of id %d with %d coordinates into a tree of dimension %d", id, len(p), t.dim))
	}
	t.reinserted = 0
	t.scr()
	t.insertPoint(int32(id), p)
	t.size++
	t.version++
}

// Version returns the tree's structural mutation counter. It changes on
// every insert (splits and reinsertions rearrange nodes a cursor may hold),
// so a cursor created at one version must be re-armed before advancing once
// the versions disagree.
func (t *Tree) Version() uint64 { return t.version }

func (t *Tree) insertPoint(id int32, p []float32) {
	r := Rect{Min: p, Max: p} // read-only view of the point; never retained
	path := t.descend(r, 0)
	leafN := path[len(path)-1]
	h := &t.heads[leafN]
	n, S := int(h.count), t.stride
	ids := t.entries(leafN)[:n+1]
	coords := t.block(leafN)

	// Insert at the position that keeps the leaf sorted by its sort axis
	// (ties after equals, then by id — any stable deterministic rule works;
	// the cursor only needs the stored order to be non-decreasing). The
	// axis's own row of the block holds the keys.
	ax := int(h.sortAxis)
	keys := coords[ax*S : ax*S+n]
	v := p[ax]
	i, j := 0, n
	for i < j {
		m := int(uint(i+j) >> 1)
		if w := keys[m]; w < v || (w == v && ids[m] < id) {
			i = m + 1
		} else {
			j = m
		}
	}
	pos := i
	copy(ids[pos+1:], ids[pos:n])
	ids[pos] = id
	h.count++
	if n < t.opts.MaxEntries {
		for d, x := range p {
			row := coords[d*S : d*S+n+1]
			copy(row[pos+1:], row[pos:])
			row[pos] = x
		}
	} else {
		// The leaf overflows. Its block stays as it was, an entry short, and
		// its M+1 points are gathered in entry order for the reinsertion or
		// split below, which rebuilds it: lanes before pos, p at pos, the
		// lane one to the left after it.
		over := t.scratch.over
		for e := 0; e <= n; e++ {
			row, lane := over[e*t.dim:(e+1)*t.dim], e
			if e == pos {
				copy(row, p)
				continue
			}
			if e > pos {
				lane--
			}
			for d := range row {
				row[d] = coords[d*S+lane]
			}
		}
	}

	t.expandPath(path, r, n == 0)
	t.handleOverflow(path)
}

// fillLeaf makes the entries pairs carry, which must be at least one, leaf
// n's entry list and lays the leaf out for scanning. Pair p's point is row
// p.pos of pts, a matrix of dim columns. The rect is tightened around the
// points, in pairs' order; the sort axis becomes the rect's widest axis; the
// ids are stored sorted by that axis (ties by id), and the window-test block
// is written to match.
func (t *Tree) fillLeaf(n int32, pairs []sortPair, pts []float32) {
	dim := t.dim
	point := func(p sortPair) []float32 {
		o := int(p.pos) * dim
		return pts[o : o+dim : o+dim]
	}
	rect := t.rect(n)
	rect.set(Rect{Min: point(pairs[0]), Max: point(pairs[0])})
	for _, p := range pairs[1:] {
		rect.ExpandPoint(point(p))
	}
	axis, widest := 0, rect.Max[0]-rect.Min[0]
	for d := 1; d < dim; d++ {
		if e := rect.Max[d] - rect.Min[d]; e > widest {
			widest, axis = e, d
		}
	}
	s := t.scratch
	order := s.order[:0]
	for _, p := range pairs {
		order = append(order, sortPair{float64(point(p)[axis]), p.idx, p.pos})
	}
	s.order = order
	slices.SortFunc(order, byKeyThenIdx)
	t.heads[n].count, t.heads[n].sortAxis = int32(len(order)), uint16(axis)
	ids, S, coords := t.entries(n), t.stride, t.block(n)
	for j, p := range order {
		ids[j] = p.idx
		for d, v := range point(p) {
			coords[d*S+j] = v
		}
	}
	padBlock(coords, S, len(order))
}

// padBlock sets the lanes from used on, in every row of a block, to +Inf.
func padBlock(block []float32, stride, used int) {
	for lo := used; lo < len(block); lo += stride {
		pad := block[lo : lo+stride-used]
		for j := range pad {
			pad[j] = posInf
		}
	}
}

// setBox writes child j's rect into n's window-test blocks.
func (t *Tree) setBox(n int32, j int, r Rect) {
	cmin, cmax := t.block(n), t.block(n+1)
	for d := 0; d < t.dim; d++ {
		cmin[d*t.stride+j] = r.Min[d]
		cmax[d*t.stride+j] = r.Max[d]
	}
}

// syncBox refreshes the lane of parent's blocks that mirrors child's rect.
func (t *Tree) syncBox(parent, child int32) {
	t.setBox(parent, slices.Index(t.entries(parent), child), t.rect(child))
}

// rebuildBoxes rewrites an internal node's whole window-test blocks, padding
// included, from its child list. A node that overflows is skipped: the
// split or reinsertion that follows rebuilds it.
func (t *Tree) rebuildBoxes(n int32) {
	children := t.entries(n)
	if len(children) > t.opts.MaxEntries {
		return
	}
	for j, c := range children {
		t.setBox(n, j, t.rect(c))
	}
	padBlock(t.block(n), t.stride, len(children))
	padBlock(t.block(n+1), t.stride, len(children))
}

// push appends entry e to node n, which must have a free slot (its spare
// one included).
func (t *Tree) push(n, e int32) {
	t.ents[int(n)*t.ecap+int(t.heads[n].count)] = e
	t.heads[n].count++
}

func (t *Tree) insertSubtree(sub int32) {
	r := t.rect(sub)
	path := t.descend(r, int(t.heads[sub].level)+1)
	n := path[len(path)-1]
	count := int(t.heads[n].count)
	t.push(n, sub)
	if count < t.opts.MaxEntries {
		t.setBox(n, count, r)
	}
	t.expandPath(path, r, count == 0)
	t.handleOverflow(path)
}

// descend walks from the root to a node at targetLevel, choosing children by
// the R* ChooseSubtree criteria, and returns the root-to-target path.
func (t *Tree) descend(r Rect, targetLevel int) []int32 {
	s := t.scratch
	n := t.root
	path := append(s.path[:0], n)
	for int(t.heads[n].level) > targetLevel {
		n = t.bestChild(n, r)
		path = append(path, n)
	}
	s.path = path
	return path
}

// expandPath grows the rectangles along an insertion path to include r, and
// with them the lanes that mirror them in their parents' blocks (only the
// target can be overflowing here, never a parent). When the target node was
// empty before the insert, its rectangle is reset to r rather than expanded
// (the zero rect of an empty node must not leak in).
func (t *Tree) expandPath(path []int32, r Rect, targetWasEmpty bool) {
	last := len(path) - 1
	target := t.rect(path[last])
	if targetWasEmpty {
		target.set(r)
	} else {
		target.ExpandInPlace(r)
	}
	for i := last - 1; i >= 0; i-- {
		rect := t.rect(path[i])
		rect.ExpandInPlace(r)
		t.syncBox(path[i], path[i+1])
	}
}

// handleOverflow applies R* overflow treatment bottom-up along the insertion
// path: forced reinsertion once per level, splits afterwards.
func (t *Tree) handleOverflow(path []int32) {
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		if int(t.heads[n].count) <= t.opts.MaxEntries {
			return
		}
		level := int(t.heads[n].level)
		if bit := uint64(1) << uint(level); n != t.root && t.reinserted&bit == 0 {
			t.reinserted |= bit
			t.forceReinsert(n, path[:i+1])
			return
		}
		sibling := t.performSplit(n)
		if n == t.root {
			t.root = t.newNode(level + 1)
			t.setEntries(t.root, n, sibling)
			t.recomputeRect(t.root)
			t.rebuildBoxes(t.root)
			return
		}
		// The two halves hold what n held, so parent's rect — and its lane
		// in its own parent — stays as expandPath left it.
		parent := path[i-1]
		t.push(parent, sibling)
		t.recomputeRect(parent)
		t.rebuildBoxes(parent)
	}
}

// forceReinsert evicts the entries of n farthest from its centre, tightens
// the rectangles along the path, and re-inserts the evicted entries from the
// top (R* forced reinsertion). path is dead once the rectangles are tight;
// the reinsertions reuse its storage.
func (t *Tree) forceReinsert(n int32, path []int32) {
	p := int(float64(t.opts.MaxEntries+1)*reinsertFraction + 0.5)
	if p < 1 {
		p = 1
	}
	s := t.scratch
	center := t.rect(n).Center(s.center)
	entries := t.entries(n)

	// Farthest first: ascending on the negated distance is the same
	// comparison as descending on the distance. A leaf's points are the rows
	// insertPoint gathered in s.over, in entry order.
	pairs := s.pairs[:0]
	leaf := t.leaf(n)
	if leaf {
		for j, id := range entries {
			pairs = append(pairs, sortPair{-pointDistSq(center, s.over[j*t.dim:(j+1)*t.dim]), id, int32(j)})
		}
	} else {
		centerRect := Rect{Min: center, Max: center}
		for _, c := range entries {
			pairs = append(pairs, sortPair{key: -t.rect(c).CenterDistSq(centerRect), idx: c})
		}
	}
	s.pairs = pairs
	slices.SortFunc(pairs, byKey)
	// Reinsertions may evict in turn one level up, so this level's list is
	// a frame on a stack, addressed by index because the stack may move.
	// An evicted point takes its coordinates along: the reinsertions gather
	// over s.over.
	base, ptsBase := len(s.evicted), len(s.evictedPts)
	for _, e := range pairs[:p] {
		s.evicted = append(s.evicted, e.idx)
		if leaf {
			s.evictedPts = append(s.evictedPts, s.over[int(e.pos)*t.dim:int(e.pos+1)*t.dim]...)
		}
	}
	t.fill(n, pairs[p:])
	t.tightenPath(path)
	// Close reinsert: nearest evictions first.
	for i := p - 1; i >= 0; i-- {
		if leaf {
			o := ptsBase + i*t.dim
			t.insertPoint(s.evicted[base+i], s.evictedPts[o:o+t.dim:o+t.dim])
		} else {
			t.insertSubtree(s.evicted[base+i])
		}
	}
	s.evicted, s.evictedPts = s.evicted[:base], s.evictedPts[:ptsBase]
}

// tightenPath recomputes the rectangles of the interior nodes on a
// root-to-target path after entries were removed from the target (whose own
// rect the caller has recomputed), refreshing the lane of each rect that
// shrank in its parent's blocks on the way up.
func (t *Tree) tightenPath(path []int32) {
	for i := len(path) - 2; i >= 0; i-- {
		t.syncBox(path[i], path[i+1])
		t.recomputeRect(path[i])
	}
}

// recomputeRect tightens an interior node's rect around its children's.
func (t *Tree) recomputeRect(n int32) {
	children := t.entries(n)
	if len(children) == 0 {
		return
	}
	rect := t.rect(n)
	rect.set(t.rect(children[0]))
	for _, c := range children[1:] {
		rect.ExpandInPlace(t.rect(c))
	}
}

// bestChild picks the child of n to descend into when inserting rect r.
// For nodes whose children are leaves, R* minimizes overlap enlargement;
// higher up it minimizes area enlargement. Ties break by smaller area
// enlargement, then smaller area.
//
// It reads the children's faces from n's own window-test blocks, never from
// the children's rects: lane j of block(n) is child j's lower face and the
// same lane of block(n+1) its upper face. That holds on every node a descent
// reaches. The one node whose blocks may not mirror its children is one that
// overflows (M+1 children; rebuildBoxes leaves its blocks as they were), and
// handleOverflow and forceReinsert refill such a node before anything
// descends again.
//
// One sweep over both blocks, axis by axis, computes every child's area and
// the area it would grow to, each lane multiplying its factors in axis order
// like the textbook's per-rect loop, so the values are the same. The grown
// faces come from the builtin min and max, which differ from the textbook's
// "replace if smaller / larger" only when both operands are zeros, in the
// sign of the zero returned. A difference of faces is then the same number,
// or a zero of either sign where it is zero anyway; so is every product and
// enlargement built from it, and no comparison tells −0 from +0.
func (t *Tree) bestChild(n int32, r Rect) int32 {
	cnt, S := int(t.heads[n].count), t.stride
	if cnt == 0 {
		panic("rstar: bestChild on node without children")
	}
	lo, hi := t.block(n), t.block(n+1)
	s := t.scratch
	area, grown := s.area[:cnt], s.grownArea[:cnt]
	for j := range area {
		area[j], grown[j] = 1, 1
	}
	for d := 0; d < t.dim; d++ {
		rlo, rhi := r.Min[d], r.Max[d]
		dlo := lo[d*S : d*S+cnt]
		dhi := hi[d*S : d*S+cnt]
		for j, l := range dlo {
			h := dhi[j]
			area[j] *= float64(h - l)
			grown[j] *= float64(max(h, rhi) - min(l, rlo))
		}
	}
	best := 0
	bestEnl, bestArea := grown[0]-area[0], area[0]
	if t.heads[n].level > 1 {
		for j := 1; j < cnt; j++ {
			if enl := grown[j] - area[j]; enl < bestEnl || (enl == bestEnl && area[j] < bestArea) {
				best, bestEnl, bestArea = j, enl, area[j]
			}
		}
		return t.entries(n)[best]
	}
	bestOverlap, _ := t.overlapEnlargement(lo, hi, cnt, 0, r, math.Inf(1))
	for i := 1; i < cnt; i++ {
		ov, ok := t.overlapEnlargement(lo, hi, cnt, i, r, bestOverlap)
		if !ok {
			continue
		}
		if enl := grown[i] - area[i]; ov < bestOverlap || enl < bestEnl || (enl == bestEnl && area[i] < bestArea) {
			best, bestOverlap, bestEnl, bestArea = i, ov, enl, area[i]
		}
	}
	return t.entries(n)[best]
}

// overlapEnlargement computes how much the overlap between child i of a node
// and its cnt−1 siblings, whose faces are the lanes of the node's blocks lo
// and hi, grows if child i is enlarged to cover r — as long as the sum stays
// within bound; ok is false as soon as it exceeds it. Abandoning is exact, not approximate: the enlarged box contains the
// original, so on every axis its intersection with a sibling is at least as
// long, float subtraction, widening and multiplication of non-negative
// factors are monotone, and every term is therefore ≥ 0 — a partial sum
// above bound means the full sum is above bound.
//
// Only the siblings vec.BoxMask finds within reach of the enlarged box are
// visited. Its inclusive test misses a sibling only if, on some axis, the
// sibling lies strictly beyond a face of the enlarged box; both of its
// intersections are then empty and its term an exact zero, which the
// textbook sum skips too. Every sum therefore adds the same terms in the
// same order as the unbounded loop over all siblings, and is bit-identical.
func (t *Tree) overlapEnlargement(lo, hi []float32, cnt, i int, r Rect, bound float64) (delta float64, ok bool) {
	S, dim := t.stride, t.dim
	f := t.scratch.faces
	ownMin, ownMax, gMin, gMax := f[:dim], f[dim:2*dim], f[2*dim:3*dim], f[3*dim:4*dim]
	// out collects the sign bits of r.Min−l and h−r.Max: a float difference
	// keeps the sign of the exact one, so the bit stays clear when r is
	// inside the child. (−0 − (+0) = −0 sets it without cause; the sum below
	// then adds only x − x terms and returns the same 0.)
	var out uint32
	for d := range ownMin {
		l, h, rl, rh := lo[d*S+i], hi[d*S+i], r.Min[d], r.Max[d]
		ownMin[d], ownMax[d] = l, h
		gMin[d], gMax[d] = min(l, rl), max(h, rh)
		out |= math.Float32bits(rl-l) | math.Float32bits(h-rh)
	}
	if out>>31 == 0 {
		return 0, true // nothing grows: every term is x − x
	}
	// The window is the enlarged box; BoxMask's centre feeds only the gaps,
	// which are not read.
	reach, _ := vec.BoxMask(lo, hi, S, cnt, gMin, gMax, gMin, t.scratch.gaps)
	for m := reach &^ (1 << uint(i)); m != 0; m &= m - 1 {
		j := bits.TrailingZeros64(m)
		after := laneOverlap(gMin, gMax, lo, hi, S, j)
		if after == 0 {
			continue // the smaller intersection before is empty too
		}
		delta += after - laneOverlap(ownMin, ownMax, lo, hi, S, j)
		if delta > bound {
			return delta, false
		}
	}
	return delta, true
}

// laneOverlap returns the volume of the intersection of the box
// [aMin, aMax] with the box in lane j of the blocks lo and hi: Rect's
// OverlapArea, factor for factor. The builtin max and min may pick the other
// of two zeros than OverlapArea's comparisons do, but a factor is only taken
// when the faces differ, and a difference of distinct floats does not depend
// on the sign of a zero operand.
func laneOverlap(aMin, aMax, lo, hi []float32, S, j int) float64 {
	a := 1.0
	for d, l := range aMin {
		l = max(l, lo[d*S+j])
		h := min(aMax[d], hi[d*S+j])
		if h <= l {
			return 0
		}
		a *= float64(h - l)
	}
	return a
}

func pointDistSq(a, b []float32) float64 {
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return s
}

// Stats describes the shape of a tree, used by tests and the benchmark
// harness to report index size.
type Stats struct {
	Height      int
	Nodes       int
	Leaves      int
	Entries     int
	AvgFill     float64 // mean entries per node / MaxEntries
	BytesApprox int64   // rough in-memory footprint of the tree structure
}

// ComputeStats returns shape statistics: one pass over the arena's slots,
// every one of which is a node of the tree (or an interior node's second).
func (t *Tree) ComputeStats() Stats {
	s := Stats{Height: t.Height()}
	var totalFill float64
	for n := 0; n < len(t.heads); n++ {
		h := t.heads[n]
		s.Nodes++
		totalFill += float64(h.count) / float64(t.opts.MaxEntries)
		if h.level == 0 {
			s.Leaves++
			s.Entries += int(h.count)
		} else {
			n++ // its upper-face slot
		}
	}
	s.BytesApprox = int64(len(t.heads))*int64(8+4*(2*t.dim+t.ecap+t.blockLen)) + 64
	s.AvgFill = totalFill / float64(s.Nodes)
	return s
}
