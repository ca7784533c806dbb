package rstar

import (
	"fmt"
	"math"
	"slices"

	"dblsh/internal/vec"
)

// Default node capacities. 32 entries per node is a good fit for in-memory
// trees over 10–12 dimensional points.
const (
	DefaultMaxEntries = 32
	reinsertFraction  = 0.3 // R* "p": share of entries force-reinserted on first overflow
)

// Options configures a Tree.
type Options struct {
	// MaxEntries is the node capacity M (≥ 4). Defaults to DefaultMaxEntries.
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

func (o Options) withDefaults() Options {
	if o.MaxEntries == 0 {
		o.MaxEntries = DefaultMaxEntries
	}
	if o.MaxEntries < 4 {
		o.MaxEntries = 4
	}
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

type node struct {
	rect     Rect
	children []*node // internal nodes only
	ids      []int32 // leaf entries: row indices into the tree's data matrix
	// coords is a leaf's window-test block (vec.WindowMask): entry j's
	// coordinate on axis d is coords[d·stride+j], lanes ≥ len(ids) hold +Inf.
	// Entries are stored in sort-axis order, the order ids has. The block
	// has exactly Tree.stride lanes per axis, so a leaf that transiently
	// overflows (MaxEntries+1 ids, until its reinsertion or split) does not
	// fit: its block is left as it was and rebuilt by what follows.
	coords []float32
	// cmin and cmax are an internal node's window-test blocks
	// (vec.BoxMask): child j's rect on axis d is cmin[d·stride+j] …
	// cmax[d·stride+j], lanes ≥ len(children) hold +Inf. Every mutation that
	// changes a child's rect or the child list rewrites the lanes it
	// touched, under the caller's write lock; queries only read them. Like a
	// leaf's, the blocks sit out a transient overflow.
	cmin, cmax []float32
	leaf       bool
	level      int // 0 = leaf
	// sortAxis is the axis the leaf's entries are kept sorted by (ascending,
	// ties by id) — chosen as the leaf rect's widest axis whenever the id set
	// is rebuilt wholesale, and preserved by in-place sorted insertion.
	sortAxis uint16
}

func (n *node) entryCount() int {
	if n.leaf {
		return len(n.ids)
	}
	return len(n.children)
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
	root *node
	size int
	dim  int
	// stride is the lane count of every node's window-test block:
	// MaxEntries rounded up to a whole number of 8-lane vectors.
	stride int

	// version counts structural mutations. Cursors pin a traversal snapshot
	// of the node graph; they compare versions to detect that the snapshot
	// went stale and must be re-armed (see Cursor.Synced).
	version uint64

	// reinserted has bit l set once level l did its forced reinsert during
	// the current Insert (R* performs at most one per level; a tree over
	// int32 ids is far shallower than 64 levels).
	reinserted uint64

	// scratch holds every buffer the mutation path works in, so that an
	// Insert allocates only for nodes it creates and slices it grows.
	// Created on first use; never shared with queries.
	scratch *insertScratch
}

// insertScratch is the mutation path's working memory. One descent, sort, sweep
// or eviction is in flight per buffer at any time — insertion recurses
// (forced reinsertion re-enters insertPoint/insertSubtree), but every
// caller is done with path, pairs, grown and center before it recurses, and
// the eviction lists are a stack (evictedNodes) or written once per Insert
// (evictedIDs, by the single leaf-level reinsertion).
type insertScratch struct {
	path         []*node    // root-to-target path of the latest descent
	pairs        []sortPair // the entry sequence being sorted
	grown        Rect       // bestChild: a candidate enlarged by the new entry
	center       []float32  // forceReinsert: centre of the overflowing node
	evictedIDs   []int32
	evictedNodes []*node
	nodes        []*node // regrouped children
	split        splitScratch
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

// byKey orders pairs by key alone. slices.SortFunc and sort.Slice are
// instances of one pdqsort template that consults only "less", so sorting
// pairs under byKey applies the very permutation sort.Slice applied to the
// entries under "key[a] < key[b]" — including which of several equal keys
// lands where, which decides group membership at a split cut and eviction
// at a distance tie (TestSortPairsMatchesSortSlice pins this).
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
	opts = opts.withDefaults()
	t := &Tree{
		data:   data,
		opts:   opts,
		dim:    data.Dim(),
		stride: (opts.MaxEntries + 7) &^ 7,
		root:   &node{leaf: true, rect: newRect(data.Dim())},
	}
	t.rebuildLeafBlock(t.root)
	return t
}

// Size returns the number of indexed points.
func (t *Tree) Size() int { return t.size }

// Dim returns the dimensionality of indexed points.
func (t *Tree) Dim() int { return t.dim }

// Height returns the number of levels (1 for a tree that is just a leaf).
func (t *Tree) Height() int { return t.root.level + 1 }

// Bounds returns the minimum bounding rectangle of all indexed points.
// For an empty tree the zero rectangle at the origin is returned.
func (t *Tree) Bounds() Rect { return t.root.rect.clone() }

// point returns the coordinates of entry id.
func (t *Tree) point(id int32) []float32 { return t.data.Row(int(id)) }

// Insert indexes row id of the data matrix using R* insertion (Beckmann et
// al.): ChooseSubtree by least overlap enlargement above the leaves and
// least area enlargement higher up, forced reinsertion of the 30 % of
// entries farthest from the centre on a level's first overflow, the
// topological split afterwards.
//
// Cost model: one descent is O(M²·dim) at worst at the leaf-parent level
// (bounded, see bestChild), and an Insert is rarely one descent. STR
// packing leaves every leaf full, so the first Insert that touches a packed
// leaf overflows it and force-reinserts ⌊0.3·(M+1)+½⌋ = 10 of its entries
// (M = 32); each is a further descent that usually lands in another full
// leaf, which — level 0 having had its reinsertion — splits. An Insert
// into a freshly packed tree is therefore ~11 descents and a few splits;
// the cost falls as inserts loosen the leaves. Steady state allocates only
// for the nodes a split creates and the slices of a leaf grown past its
// packed capacity.
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
	n, S := len(leafN.ids), t.stride

	// Insert at the position that keeps the leaf sorted by its sort axis
	// (ties after equals, then by id — any stable deterministic rule works;
	// the cursor only needs the stored order to be non-decreasing). The
	// axis's own row of the block holds the keys.
	ax := int(leafN.sortAxis)
	keys := leafN.coords[ax*S : ax*S+n]
	v := p[ax]
	i, j := 0, n
	for i < j {
		h := int(uint(i+j) >> 1)
		if w := keys[h]; w < v || (w == v && leafN.ids[h] < id) {
			i = h + 1
		} else {
			j = h
		}
	}
	pos := i
	leafN.ids = append(leafN.ids, 0)
	copy(leafN.ids[pos+1:], leafN.ids[pos:])
	leafN.ids[pos] = id
	// A leaf this entry overflows keeps its block as it was: the
	// reinsertion or split below rebuilds it.
	if n < t.opts.MaxEntries {
		for d, x := range p {
			row := leafN.coords[d*S : d*S+n+1]
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
func (t *Tree) finalizeLeaf(n *node) {
	axis := 0
	if len(n.ids) > 0 {
		widest := n.rect.Max[0] - n.rect.Min[0]
		for d := 1; d < t.dim; d++ {
			if e := n.rect.Max[d] - n.rect.Min[d]; e > widest {
				widest, axis = e, d
			}
		}
	}
	n.sortAxis = uint16(axis)
	s := t.scr()
	pairs := s.pairs[:0]
	for _, id := range n.ids {
		pairs = append(pairs, sortPair{float64(t.point(id)[axis]), id})
	}
	s.pairs = pairs
	slices.SortFunc(pairs, byKeyThenIdx)
	for j, p := range pairs {
		n.ids[j] = p.idx
	}
	t.rebuildLeafBlock(n)
}

var posInf = float32(math.Inf(1))

// rebuildLeafBlock rewrites a leaf's whole window-test block, padding
// included, from its id list (at most MaxEntries ids).
func (t *Tree) rebuildLeafBlock(n *node) {
	S := t.stride
	if n.coords == nil {
		n.coords = make([]float32, t.dim*S)
	}
	for j, id := range n.ids {
		for d, v := range t.point(id) {
			n.coords[d*S+j] = v
		}
	}
	padBlock(n.coords, S, len(n.ids))
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
func (t *Tree) setBox(n *node, j int, r Rect) {
	for d := 0; d < t.dim; d++ {
		n.cmin[d*t.stride+j] = r.Min[d]
		n.cmax[d*t.stride+j] = r.Max[d]
	}
}

// syncBox refreshes the lane of parent's blocks that mirrors child's rect.
func (t *Tree) syncBox(parent, child *node) {
	t.setBox(parent, slices.Index(parent.children, child), child.rect)
}

// rebuildBoxes rewrites an internal node's whole window-test blocks, padding
// included, from its child list. A node that overflows is skipped: the
// split or reinsertion that follows rebuilds it.
func (t *Tree) rebuildBoxes(n *node) {
	if len(n.children) > t.opts.MaxEntries {
		return
	}
	S := t.stride
	if n.cmin == nil {
		buf := make([]float32, 2*t.dim*S)
		n.cmin, n.cmax = buf[:t.dim*S:t.dim*S], buf[t.dim*S:]
	}
	for j, c := range n.children {
		t.setBox(n, j, c.rect)
	}
	padBlock(n.cmin, S, len(n.children))
	padBlock(n.cmax, S, len(n.children))
}

func (t *Tree) insertSubtree(sub *node) {
	path := t.descend(sub.rect, sub.level+1)
	n := path[len(path)-1]
	wasEmpty := len(n.children) == 0
	n.children = append(n.children, sub)
	if len(n.children) <= t.opts.MaxEntries {
		t.setBox(n, len(n.children)-1, sub.rect)
	}
	t.expandPath(path, sub.rect, wasEmpty)
	t.handleOverflow(path)
}

// descend walks from the root to a node at targetLevel, choosing children by
// the R* ChooseSubtree criteria, and returns the root-to-target path.
func (t *Tree) descend(r Rect, targetLevel int) []*node {
	s := t.scratch
	n := t.root
	path := append(s.path[:0], n)
	for n.level > targetLevel {
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
func (t *Tree) expandPath(path []*node, r Rect, targetWasEmpty bool) {
	last := len(path) - 1
	if targetWasEmpty {
		path[last].rect.set(r)
	} else {
		path[last].rect.ExpandInPlace(r)
	}
	for i := last - 1; i >= 0; i-- {
		path[i].rect.ExpandInPlace(r)
		t.syncBox(path[i], path[i+1])
	}
}

// handleOverflow applies R* overflow treatment bottom-up along the insertion
// path: forced reinsertion once per level, splits afterwards.
func (t *Tree) handleOverflow(path []*node) {
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		if n.entryCount() <= t.opts.MaxEntries {
			return
		}
		if bit := uint64(1) << uint(n.level); n != t.root && t.reinserted&bit == 0 {
			t.reinserted |= bit
			t.forceReinsert(n, path[:i+1])
			return
		}
		sibling := t.performSplit(n)
		if n == t.root {
			newRoot := &node{
				level:    n.level + 1,
				children: []*node{n, sibling},
			}
			recomputeRect(newRoot)
			t.rebuildBoxes(newRoot)
			t.root = newRoot
			return
		}
		// The two halves hold what n held, so parent's rect — and its lane
		// in its own parent — stays as expandPath left it.
		parent := path[i-1]
		parent.children = append(parent.children, sibling)
		recomputeRect(parent)
		t.rebuildBoxes(parent)
	}
}

// forceReinsert evicts the entries of n farthest from its centre, tightens
// the rectangles along the path, and re-inserts the evicted entries from the
// top (R* forced reinsertion). path is dead once the rectangles are tight;
// the reinsertions reuse its storage.
func (t *Tree) forceReinsert(n *node, path []*node) {
	p := int(float64(t.opts.MaxEntries+1)*reinsertFraction + 0.5)
	if p < 1 {
		p = 1
	}
	s := t.scratch
	center := n.rect.Center(s.center)

	// Farthest first: ascending on the negated distance is the same
	// comparison as descending on the distance.
	pairs := s.pairs[:0]
	if n.leaf {
		for _, id := range n.ids {
			pairs = append(pairs, sortPair{-pointDistSq(center, t.point(id)), id})
		}
	} else {
		centerRect := Rect{Min: center, Max: center}
		for j, c := range n.children {
			pairs = append(pairs, sortPair{-c.rect.CenterDistSq(centerRect), int32(j)})
		}
	}
	s.pairs = pairs
	slices.SortFunc(pairs, byKey)

	if n.leaf {
		s.evictedIDs = s.evictedIDs[:0]
		for _, e := range pairs[:p] {
			s.evictedIDs = append(s.evictedIDs, e.idx)
		}
		n.ids = n.ids[:0]
		for _, e := range pairs[p:] {
			n.ids = append(n.ids, e.idx)
		}
		t.recomputeLeafRect(n)
		t.finalizeLeaf(n)
		t.tightenPath(path)
		// Close reinsert: nearest evictions first.
		for i := p - 1; i >= 0; i-- {
			t.insertPoint(s.evictedIDs[i])
		}
		return
	}

	// Reinsertions one level up may evict in turn, so this level's list is
	// a frame on a stack, addressed by index because the stack may move.
	base := len(s.evictedNodes)
	for _, e := range pairs[:p] {
		s.evictedNodes = append(s.evictedNodes, n.children[e.idx])
	}
	s.nodes = s.nodes[:0]
	for _, e := range pairs[p:] {
		s.nodes = append(s.nodes, n.children[e.idx])
	}
	n.children = append(n.children[:0], s.nodes...)
	recomputeRect(n)
	t.rebuildBoxes(n)
	t.tightenPath(path)
	for i := p - 1; i >= 0; i-- {
		t.insertSubtree(s.evictedNodes[base+i])
	}
	s.evictedNodes = s.evictedNodes[:base]
}

// tightenPath recomputes the rectangles of the interior nodes on a
// root-to-target path after entries were removed from the target (whose own
// rect the caller has recomputed), refreshing the lane of each rect that
// shrank in its parent's blocks on the way up.
func (t *Tree) tightenPath(path []*node) {
	for i := len(path) - 2; i >= 0; i-- {
		t.syncBox(path[i], path[i+1])
		recomputeRect(path[i])
	}
}

func recomputeRect(n *node) {
	if n.leaf || len(n.children) == 0 {
		return
	}
	n.rect.set(n.children[0].rect)
	for _, c := range n.children[1:] {
		n.rect.ExpandInPlace(c.rect)
	}
}

func (t *Tree) recomputeLeafRect(n *node) {
	if len(n.ids) == 0 {
		n.rect = newRect(t.dim)
		return
	}
	p := t.point(n.ids[0])
	n.rect.set(Rect{Min: p, Max: p})
	for _, id := range n.ids[1:] {
		n.rect.ExpandPoint(t.point(id))
	}
}

// bestChild picks the child of n to descend into when inserting rect r.
// For nodes whose children are leaves, R* minimizes overlap enlargement;
// higher up it minimizes area enlargement. Ties break by smaller area
// enlargement, then smaller area.
func (t *Tree) bestChild(n *node, r Rect) *node {
	children := n.children
	if len(children) == 0 {
		panic("rstar: bestChild on node without children")
	}
	best := children[0]
	bestEnl, bestArea := best.rect.EnlargementArea(r)
	if !best.leaf {
		for _, c := range children[1:] {
			enl, area := c.rect.EnlargementArea(r)
			if enl < bestEnl || (enl == bestEnl && area < bestArea) {
				best, bestEnl, bestArea = c, enl, area
			}
		}
		return best
	}
	grown := t.scratch.grown
	bestOverlap, _ := overlapEnlargement(children, 0, r, grown, math.Inf(1))
	for i := 1; i < len(children); i++ {
		ov, ok := overlapEnlargement(children, i, r, grown, bestOverlap)
		if !ok {
			continue
		}
		c := children[i]
		enl, area := c.rect.EnlargementArea(r)
		if ov < bestOverlap ||
			(enl < bestEnl) ||
			(enl == bestEnl && area < bestArea) {
			best, bestOverlap, bestEnl, bestArea = c, ov, enl, area
		}
	}
	return best
}

// overlapEnlargement computes how much the overlap between children[i] and
// its siblings grows if children[i] is enlarged to cover r — as long as the
// sum stays within bound; ok is false as soon as it exceeds it. Abandoning
// is exact, not approximate: the enlarged rect contains the original, so on
// every axis its intersection with a sibling is at least as long, float
// subtraction, widening and multiplication of non-negative factors are
// monotone, and every term is therefore ≥ 0 — a partial sum above bound
// means the full sum is above bound. Sums that are not abandoned add the
// same terms in the same order as the unbounded loop (skipped terms are
// exact zeros), so they are bit-identical. grown is scratch for the
// enlarged rect.
func overlapEnlargement(children []*node, i int, r Rect, grown Rect, bound float64) (delta float64, ok bool) {
	own := children[i].rect
	if own.ContainsRect(r) {
		return 0, true // nothing grows: every term is x − x
	}
	grown.set(own)
	grown.ExpandInPlace(r)
	for j, c := range children {
		if j == i {
			continue
		}
		after := grown.OverlapArea(c.rect)
		if after == 0 {
			continue // the smaller intersection before is empty too
		}
		delta += after - own.OverlapArea(c.rect)
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

// ComputeStats walks the tree and returns shape statistics.
func (t *Tree) ComputeStats() Stats {
	var s Stats
	s.Height = t.Height()
	var totalFill float64
	var walk func(n *node)
	walk = func(n *node) {
		s.Nodes++
		totalFill += float64(n.entryCount()) / float64(t.opts.MaxEntries)
		s.BytesApprox += int64(len(n.rect.Min)+len(n.rect.Max))*4 + 64
		if n.leaf {
			s.Leaves++
			s.Entries += len(n.ids)
			s.BytesApprox += int64(len(n.ids))*4 + int64(len(n.coords))*4
			return
		}
		s.BytesApprox += int64(len(n.children))*8 + int64(len(n.cmin)+len(n.cmax))*4
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	if s.Nodes > 0 {
		s.AvgFill = totalFill / float64(s.Nodes)
	}
	return s
}
