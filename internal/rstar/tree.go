package rstar

import (
	"fmt"
	"math"
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

// Tree is an R*-tree over the rows of a point matrix. The matrix is owned by
// the caller and must not shrink while the tree is alive; rows appended after
// construction can be indexed with Insert.
//
// Tree is not safe for concurrent mutation; concurrent read-only queries are
// safe.
type Tree struct {
	data *vec.Matrix
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
	// the current Insert (R* performs at most one per level; a tree over
	// int32 ids is far shallower than 64 levels).
	reinserted uint64

	// scratch holds every buffer the mutation path works in, so that an
	// Insert allocates only when the arena itself grows.
	// Created on first use; never shared with queries.
	scratch *insertScratch
}

// insertScratch is the mutation path's working memory. One descent, sort, sweep
// or eviction is in flight per buffer at any time — insertion recurses
// (forced reinsertion re-enters insertPoint/insertSubtree), but every
// caller is done with path, pairs, rects, grown and center before it
// recurses, and the eviction lists are frames on one stack.
type insertScratch struct {
	path    []int32    // root-to-target path of the latest descent
	pairs   []sortPair // the entry sequence being sorted
	rects   []Rect     // bestChild: views of the children's rects
	grown   Rect       // bestChild: a candidate enlarged by the new entry
	center  []float32  // forceReinsert: centre of the overflowing node
	evicted []int32    // forceReinsert: a stack of evicted entries, a frame per level
	split   splitScratch
}

// scr returns the scratch, creating it on first use. Insert and
// finalizeLeaf (which bulk loading reaches without an Insert) call it;
// everything beneath them reads t.scratch directly.
func (t *Tree) scr() *insertScratch {
	if t.scratch == nil {
		t.scratch = &insertScratch{
			grown:  newRect(t.dim),
			center: make([]float32, t.dim),
			split:  newSplitScratch(t.dim, t.opts.MaxEntries+1),
		}
	}
	return t.scratch
}

// sortPair is one entry of a sequence being sorted: its sort key and which
// entry it is. Sorting extracted pairs instead of the entries themselves
// keeps the comparator free of pointer chasing and of sort.Slice's
// reflection swapper.
type sortPair struct {
	key float64 // float32 keys widen exactly, so comparisons are unchanged
	idx int32
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

// New creates an empty R*-tree over data's rows. No rows are indexed yet;
// call Insert per row, or use BulkLoad to build a populated tree directly.
func New(data *vec.Matrix, opts Options) *Tree {
	if data.Dim() < 1 {
		panic("rstar: data must have at least one dimension")
	}
	t := newTree(data, opts)
	t.root = t.newNode(0)
	padBlock(t.block(t.root), t.stride, 0)
	return t
}

// newTree returns a tree over data with an empty arena and no root yet.
func newTree(data *vec.Matrix, opts Options) *Tree {
	opts = opts.withDefaults()
	t := &Tree{data: data, opts: opts, dim: data.Dim(), stride: (opts.MaxEntries + 7) &^ 7, ecap: opts.MaxEntries + 1}
	t.blockLen = t.dim * t.stride
	return t
}

// Data returns the point matrix the tree indexes.
func (t *Tree) Data() *vec.Matrix { return t.data }

// Size returns the number of indexed points.
func (t *Tree) Size() int { return t.size }

// Dim returns the dimensionality of indexed points.
func (t *Tree) Dim() int { return t.dim }

// Height returns the number of levels (1 for a tree that is just a leaf).
func (t *Tree) Height() int { return int(t.heads[t.root].level) + 1 }

// Bounds returns the minimum bounding rectangle of all indexed points.
// For an empty tree the zero rectangle at the origin is returned.
func (t *Tree) Bounds() Rect { return t.rect(t.root).clone() }

// point returns the coordinates of entry id.
func (t *Tree) point(id int32) []float32 { return t.data.Row(int(id)) }

// Insert indexes row id of the data matrix using R* insertion (Beckmann et
// al.): ChooseSubtree by least overlap enlargement above the leaves and
// least area enlargement higher up, forced reinsertion of the 30 % of
// entries farthest from the centre on a level's first overflow, the
// topological split afterwards.
//
// Cost model: one descent is O(M²·dim) at worst at the leaf-parent level
// (bounded, see bestChild). STR packing leaves ⌈M/16⌉ free slots in every
// leaf (BulkLoad), so an Insert into a freshly packed or loaded tree is
// usually that one descent. An Insert that finds its leaf full overflows it
// and force-reinserts ⌊0.3·(M+1)+½⌋ = 10 of its entries (M = 32); each is a
// further descent, and one that lands in another full leaf splits it
// (level 0 having had its reinsertion): ~11 descents and a few splits.
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
func (t *Tree) Insert(id int) {
	if id < 0 || id >= t.data.Rows() {
		panic(fmt.Sprintf("rstar: insert id %d out of range [0,%d)", id, t.data.Rows()))
	}
	t.reinserted = 0
	t.scr()
	t.insertPoint(int32(id))
	t.size++
	t.version++
}

// Version returns the tree's structural mutation counter. It changes on
// every Insert (splits and reinsertions rearrange nodes a cursor may hold),
// so a cursor created at one version must be re-armed before advancing once
// the versions disagree.
func (t *Tree) Version() uint64 { return t.version }

func (t *Tree) insertPoint(id int32) {
	p := t.point(id)
	r := Rect{Min: p, Max: p} // read-only view of the row; never retained
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
	// A leaf this entry overflows keeps its block as it was: the
	// reinsertion or split below rebuilds it.
	if n < t.opts.MaxEntries {
		for d, x := range p {
			row := coords[d*S : d*S+n+1]
			copy(row[pos+1:], row[pos:])
			row[pos] = x
		}
	}

	t.expandPath(path, r, n == 0)
	t.handleOverflow(path)
}

// finalizeLeaf (re)establishes the leaf scan layout after its id set changed
// wholesale: the sort axis is re-chosen as the widest axis of the leaf's
// rect (which callers must have recomputed tightly first), the ids are
// sorted by that axis (ties by id), and the window-test block is rebuilt to
// match.
func (t *Tree) finalizeLeaf(n int32) {
	ids, rect := t.entries(n), t.rect(n)
	axis := 0
	if len(ids) > 0 {
		widest := rect.Max[0] - rect.Min[0]
		for d := 1; d < t.dim; d++ {
			if e := rect.Max[d] - rect.Min[d]; e > widest {
				widest, axis = e, d
			}
		}
	}
	t.heads[n].sortAxis = uint16(axis)
	s := t.scr()
	pairs := s.pairs[:0]
	for _, id := range ids {
		pairs = append(pairs, sortPair{float64(t.point(id)[axis]), id})
	}
	s.pairs = pairs
	slices.SortFunc(pairs, byKeyThenIdx)
	S, coords := t.stride, t.block(n)
	for j, p := range pairs {
		ids[j] = p.idx
		for d, v := range t.point(p.idx) {
			coords[d*S+j] = v
		}
	}
	padBlock(coords, S, len(ids))
}

// refresh re-establishes what a node derives from its entry list once that
// list (and the node's rect) has been rewritten wholesale: a leaf's sort
// order and block, an interior node's blocks.
func (t *Tree) refresh(n int32) {
	if t.leaf(n) {
		t.finalizeLeaf(n)
	} else {
		t.rebuildBoxes(n)
	}
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
	// comparison as descending on the distance.
	pairs := s.pairs[:0]
	if t.leaf(n) {
		for _, id := range entries {
			pairs = append(pairs, sortPair{-pointDistSq(center, t.point(id)), id})
		}
	} else {
		centerRect := Rect{Min: center, Max: center}
		for _, c := range entries {
			pairs = append(pairs, sortPair{-t.rect(c).CenterDistSq(centerRect), c})
		}
	}
	s.pairs = pairs
	slices.SortFunc(pairs, byKey)
	// Reinsertions may evict in turn one level up, so this level's list is
	// a frame on a stack, addressed by index because the stack may move.
	base := len(s.evicted)
	for _, e := range pairs[:p] {
		s.evicted = append(s.evicted, e.idx)
	}
	t.fill(n, pairs[p:])
	t.refresh(n)
	t.tightenPath(path)
	// Close reinsert: nearest evictions first.
	for i, leaf := p-1, t.leaf(n); i >= 0; i-- {
		if leaf {
			t.insertPoint(s.evicted[base+i])
		} else {
			t.insertSubtree(s.evicted[base+i])
		}
	}
	s.evicted = s.evicted[:base]
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

func (t *Tree) recomputeLeafRect(n int32) {
	ids, rect := t.entries(n), t.rect(n)
	if len(ids) == 0 {
		clear(rect.Min)
		clear(rect.Max)
		return
	}
	p := t.point(ids[0])
	rect.set(Rect{Min: p, Max: p})
	for _, id := range ids[1:] {
		rect.ExpandPoint(t.point(id))
	}
}

// bestChild picks the child of n to descend into when inserting rect r.
// For nodes whose children are leaves, R* minimizes overlap enlargement;
// higher up it minimizes area enlargement. Ties break by smaller area
// enlargement, then smaller area.
func (t *Tree) bestChild(n int32, r Rect) int32 {
	children := t.entries(n)
	if len(children) == 0 {
		panic("rstar: bestChild on node without children")
	}
	best := children[0]
	bestEnl, bestArea := t.rect(best).EnlargementArea(r)
	if t.heads[n].level > 1 {
		for _, c := range children[1:] {
			enl, area := t.rect(c).EnlargementArea(r)
			if enl < bestEnl || (enl == bestEnl && area < bestArea) {
				best, bestEnl, bestArea = c, enl, area
			}
		}
		return best
	}
	// Every child is compared with every other: take the M views once.
	s := t.scratch
	rects := s.rects[:0]
	for _, c := range children {
		rects = append(rects, t.rect(c))
	}
	s.rects = rects
	bestOverlap, _ := overlapEnlargement(rects, 0, r, s.grown, math.Inf(1))
	for i := 1; i < len(children); i++ {
		ov, ok := overlapEnlargement(rects, i, r, s.grown, bestOverlap)
		if !ok {
			continue
		}
		enl, area := rects[i].EnlargementArea(r)
		if ov < bestOverlap ||
			(enl < bestEnl) ||
			(enl == bestEnl && area < bestArea) {
			best, bestOverlap, bestEnl, bestArea = children[i], ov, enl, area
		}
	}
	return best
}

// overlapEnlargement computes how much the overlap between rects[i] and its
// siblings grows if rects[i] is enlarged to cover r — as long as the
// sum stays within bound; ok is false as soon as it exceeds it. Abandoning
// is exact, not approximate: the enlarged rect contains the original, so on
// every axis its intersection with a sibling is at least as long, float
// subtraction, widening and multiplication of non-negative factors are
// monotone, and every term is therefore ≥ 0 — a partial sum above bound
// means the full sum is above bound. Sums that are not abandoned add the
// same terms in the same order as the unbounded loop (skipped terms are
// exact zeros), so they are bit-identical. grown is scratch for the
// enlarged rect.
func overlapEnlargement(rects []Rect, i int, r Rect, grown Rect, bound float64) (delta float64, ok bool) {
	own := rects[i]
	if own.ContainsRect(r) {
		return 0, true // nothing grows: every term is x − x
	}
	grown.set(own)
	grown.ExpandInPlace(r)
	for j, sib := range rects {
		if j == i {
			continue
		}
		after := grown.OverlapArea(sib)
		if after == 0 {
			continue // the smaller intersection before is empty too
		}
		delta += after - own.OverlapArea(sib)
		if delta > bound {
			return delta, false
		}
	}
	return delta, true
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
