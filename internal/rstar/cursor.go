package rstar

import (
	"math/bits"

	"dblsh/internal/vec"
)

// Cursor is a persistent incremental frontier over one tree for one query
// center. DB-LSH's radius ladder runs the same window query W(G(q), w0·r)
// at geometrically growing widths; re-running each window from the root
// re-walks the entire already-covered region every round — re-testing
// every covered point against the window — just to find the thin
// newly-exposed shell. A Cursor instead keeps the not-yet-exhausted
// remainder of the tree as a frontier: a depth-first-ordered list of
// subtrees, each carrying an activation threshold (once shaved, a certain
// lower bound on the window half-width that could surface anything new
// from it) and, for leaves, a bitmask of already-reported entries. Each
// round walks the list; an item below its threshold costs one float
// compare, an interior node is entered at most once per query, a reported
// point is never re-examined, and only the leaves straddling the window
// boundary are re-scanned.
//
// A node is tested whole, not entry by entry: entering a leaf is one
// vec.WindowMask call over its axis-major coordinate block, entering an
// interior node one vec.BoxMask call over its children's rects (the blocks
// of the tree's arena, addressed by the node's index alone), each
// answering with bitmasks over the entries and, for what the window
// misses, its distance from the center. That distance is the threshold
// the leaf or the unreached child parks with, raw, as vec.GapKeys keys it:
// each round computes one reach key from its half-width, and an item
// whose key is at or below it is exactly one whose gap, shaved by
// vec.ShaveGap, the half-width has reached. The shaved gap is a certain
// lower bound and, on the avx2 kernel row, a near-exact one, so a parked
// item whose threshold the window has reached is simply entered: a box
// the window still misses by an ulp yields nothing and parks again. The
// bound is an accelerator only; everything observable is decided by the
// kernels' masks.
//
// Equivalence with Window: a round at half-width half uses the exact
// float32 window rectangle WindowRect(center, 2·half) builds, the kernels
// make the very comparisons Rect.Intersects and Rect.Contains make against
// it (vec/mask.go), and the frontier list is maintained in depth-first
// tree order, so a round's emissions stream in exactly the order a Window
// re-scan over the same rectangle would visit them, except that
// already-reported points are not re-reported. Callers deduplicate
// re-reports with a visited set anyway (the re-scan ladder relies on it),
// so the caller-observable candidate stream of a ladder of rounds is
// identical to the window re-scan ladder's, point for point and in order —
// the property the query layer's differential tests pin down, under every
// kernel row. Emission is pull-based and batched (NextBatch), so a caller
// that stops mid-round pays nothing for the part of the window it never
// asked for, exactly like an aborted re-scan.
//
// A round is: BeginRound(half), then NextBatch until it reports 0 or the
// caller decides to stop, then EndRound — or Abandon when the query is
// over and the frontier's future is irrelevant.
//
// The frontier starts as the packed root followed by the tail node, so
// depth-first order is the packed tree's, then the tail's leaves in arrival
// order. A Cursor holds positions in the tree's node graph as of its Reset,
// and the tree must not change until its query's last round: an insert
// widens a tail leaf a parked item's threshold was computed from, and a
// repack replaces every node. The query layer keeps mutations out for the
// whole query. A cursor only reads the tree, so any number may run beside
// each other; one Cursor is not safe for concurrent use.
type Cursor struct {
	t      *Tree
	center []float32
	keys   vec.GapKeys // turns gaps into thresholds, for the center
	reach  float32     // current round's key: an item with thresh ≤ reach is entered
	wlo    []float32   // current round's window bounds, exactly as WindowRect
	whi    []float32   // would build them: center[d] ∓ h in float32

	cur   []cItem // the frontier, in depth-first tree order
	next  []cItem // the frontier being rebuilt by the current round's walk
	stack []frame // in-progress descents of the current round
	pos   int     // walk position in cur

	// gaps holds vec.BoxMask's per-child distances for the interior frames
	// on the stack: frame i owns gaps[i·stride:(i+1)·stride]. Children are
	// walked one at a time with whole descents in between, so a frame's
	// distances must outlive the kernel call.
	gaps []float32

	// Emission log of the current round, for Unpop. Valid until the next
	// BeginRound/Reset.
	emitted  []emitRec
	returned []int32 // ascending emission ordinals handed back by Unpop

	nodes int // nodes entered since Reset
}

// cItem is one frontier element, 16 bytes: a subtree the rounds so far have
// not exhausted. For leaves, mask bit j set means entry j has been reported.
// thresh is the subtree's gap as vec.GapKeys.Key stores it: once a round's
// reach key is at or above it, the subtree could surface something new.
// Zero means "enter it next round".
type cItem struct {
	n      int32
	thresh float32
	mask   uint64
}

// frame is one level of an in-progress descent, holding what the node's
// kernel call answered. A leaf walks rem, its unreported entries inside the
// window, bit by bit in ascending — depth-first — order, marking them in
// mask; gap is the distance of the nearest entry left outside. An interior
// node walks its children by idx: those in reach are entered (as contained,
// when in inside: every point below is a member with no test at all), the
// others park. pos is where in the frontier a leaf parks, or would splice
// back into.
type frame struct {
	n, count      int32 // the node and its entry count
	idx           int32
	leaf          bool
	rem, mask     uint64
	reach, inside uint64
	gap           float32
	pos           int32
}

// emitRec records one emission: the leaf, the entry's index within it,
// and the leaf's frontier position, so Unpop can clear the mask bit — in
// place if the leaf survived, through a splice if it was dropped.
type emitRec struct {
	n, pos int32
	idx    uint16
}

// frontierAhead is how far down the frontier the walk looks for a node to
// prefetch: an item that many positions on, if the round will enter it, has
// its block and its ids requested while the items before it are compared or
// entered. A node's block and ids sit at addresses computed from its index,
// so the request costs no load of its own. It is a measured constant, not an
// option: with the next reached sibling (NextBatch) it cut the benchmark's
// overlap-128 search_p50_us by 8 %, 10 of 10 paired runs, when it fetched
// blocks alone; the ids joined it without re-tuning the distance.
const frontierAhead = 4

// fullMask returns the mask with the low n bits set (n ≤ 64).
func fullMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(n) - 1
}

// NewCursor returns an unseeded cursor over t; every node fits the per-node
// bitmasks, since Options clamps the capacity to 64. Call Reset with a query
// center before the first round.
func NewCursor(t *Tree) *Cursor { return &Cursor{t: t} }

// Reset seeds the frontier for a new query center, discarding all prior
// state. It is O(1) plus the center copy: traversal happens lazily as
// rounds advance. The cursor reuses its internal buffers, so steady-state
// queries through a pooled searcher allocate nothing.
func (c *Cursor) Reset(center []float32) {
	c.center = append(c.center[:0], center...)
	var maxAbs float32
	for _, v := range center {
		if v < 0 {
			v = -v
		}
		if v > maxAbs {
			maxAbs = v
		}
	}
	c.keys = vec.NewGapKeys(maxAbs)
	c.cur = c.cur[:0]
	c.next = c.next[:0]
	c.stack = c.stack[:0]
	c.emitted = c.emitted[:0]
	c.returned = c.returned[:0]
	c.pos = 0
	c.nodes = 0
	if c.t.heads[c.t.root].count > 0 {
		c.cur = append(c.cur, cItem{n: c.t.root})
	}
	if c.t.tail >= 0 {
		c.cur = append(c.cur, cItem{n: c.t.tail})
	}
}

// BeginRound opens a round over the window of half-width half centred at
// the cursor's center — the float32 rectangle WindowRect(center, 2·half)
// builds. Subsequent NextBatch calls stream the window's not-yet-reported
// points in depth-first tree order. Entries handed back by Unpop since the
// previous round rejoin the frontier here.
func (c *Cursor) BeginRound(half float64) {
	c.mergeReturned()
	h := float32(half)
	c.reach = c.keys.Reach(h)
	c.wlo = c.wlo[:0]
	c.whi = c.whi[:0]
	for _, v := range c.center {
		c.wlo = append(c.wlo, v-h)
		c.whi = append(c.whi, v+h)
	}
	c.pos = 0
}

// NextBatch fills buf with the next not-yet-reported points inside the
// current round's window, in depth-first tree order, and returns how many
// it wrote. Zero means the round is exhausted. The walk is lazy: stopping
// early (calling EndRound or Abandon without draining) costs nothing for
// the unseen remainder, and a caller that consumed too far hands the
// excess back with Unpop.
func (c *Cursor) NextBatch(buf []int32) int {
	out := 0
	for {
		// The descent stack holds subtrees the walk has entered but not
		// finished; their remaining items precede everything at cur[pos:].
		for len(c.stack) > 0 {
			depth := len(c.stack) - 1
			f := &c.stack[depth]
			entries := c.t.ents[int(f.n)*c.t.ecap:][:f.count]
			if f.leaf {
				for f.rem != 0 {
					j := bits.TrailingZeros64(f.rem)
					f.rem &= f.rem - 1
					f.mask |= 1 << uint(j)
					c.emitted = append(c.emitted, emitRec{n: f.n, pos: f.pos, idx: uint16(j)})
					buf[out] = entries[j]
					out++
					if out == len(buf) {
						return out
					}
				}
				// Leaf exhausted for this round: drop it once every entry
				// has been reported, else park it until the window can reach
				// the nearest entry still outside.
				if f.mask != fullMask(int(f.count)) {
					c.next = append(c.next, cItem{n: f.n, mask: f.mask, thresh: c.keys.Key(f.gap)})
				}
				c.stack = c.stack[:depth]
				continue
			}
			// Park the run of children the window does not reach, up to the
			// next one it does, in one loop.
			i, reached := int(f.idx), int(f.count)
			if rest := f.reach >> uint(i); rest != 0 {
				reached = i + bits.TrailingZeros64(rest)
			}
			next := c.next
			for ; i < reached; i++ {
				next = append(next, c.parked(entries[i], depth, i))
			}
			c.next = next
			if i == int(f.count) {
				c.stack = c.stack[:depth]
				continue
			}
			f.idx = int32(i + 1)
			// The next child the window reaches is entered when this one's
			// subtree is done: ask for it now.
			bit := uint64(1) << uint(i)
			if rest := f.reach &^ (bit<<1 - 1); rest != 0 {
				c.t.prefetch(entries[bits.TrailingZeros64(rest)])
			}
			c.enter(cItem{n: entries[i]}, f.inside&bit != 0)
		}
		if c.pos >= len(c.cur) {
			return out
		}
		it := c.cur[c.pos]
		c.pos++
		if la := c.pos - 1 + frontierAhead; la < len(c.cur) && c.cur[la].thresh <= c.reach {
			c.t.prefetch(c.cur[la].n)
		}
		if it.thresh > c.reach {
			c.next = append(c.next, it) // certainly out of reach: one compare
			continue
		}
		c.enter(it, false)
	}
}

// prefetch requests the lines a visit to node n reads first: its block and
// its entry ids, neither addressed beyond its own slot.
func (t *Tree) prefetch(n int32) {
	vec.PrefetchBlock(t.block(n))
	vec.PrefetchIDs(t.ents[int(n)*t.ecap:][:t.ecap])
}

// parked returns the frontier item for child i of the interior frame at
// depth, which the window does not reach.
func (c *Cursor) parked(ch int32, depth, i int) cItem {
	return cItem{n: ch, thresh: c.keys.Key(c.gaps[depth*c.t.stride+i])}
}

// enter pushes a frame for a subtree and tests the node whole against the
// round's window; a contained subtree needs no test. A leaf's test is
// restricted to its unreported entries.
func (c *Cursor) enter(it cItem, contained bool) {
	c.nodes++
	t, n := c.t, it.n
	h := t.heads[n]
	count, S, depth := int(h.count), t.stride, len(c.stack)
	c.stack = append(c.stack, frame{n: n, count: h.count, leaf: h.level == 0, mask: it.mask, pos: int32(len(c.next))})
	f := &c.stack[depth]
	switch {
	case f.leaf:
		f.rem = fullMask(count) &^ it.mask
		if !contained {
			f.rem, f.gap = vec.WindowMask(t.block(n), S, count, f.rem, c.wlo, c.whi, c.center)
		}
	case contained:
		f.reach = fullMask(count)
		f.inside = f.reach
	default:
		if len(c.gaps) < (depth+1)*S {
			c.gaps = append(c.gaps, make([]float32, (depth+1)*S-len(c.gaps))...)
		}
		f.reach, f.inside = vec.BoxMask(t.block(n), t.block(n+1), S, count, c.wlo, c.whi, c.center, c.gaps[depth*S:(depth+1)*S])
	}
}

// EndRound closes the current round, whether drained or abandoned early:
// in-progress descents unwind into the frontier (their unexamined
// remainders, in depth-first order) followed by the unexamined tail of
// the old frontier, so an early stop leaves every unreported point
// discoverable by the next round — exactly the state an aborted window
// re-scan leaves.
func (c *Cursor) EndRound() {
	for depth := len(c.stack) - 1; depth >= 0; depth-- {
		f := c.stack[depth]
		if f.leaf {
			// Entries inside the window remain unreported (rem): the next
			// round must enter the leaf whatever its width.
			if f.mask != fullMask(int(f.count)) {
				c.next = append(c.next, cItem{n: f.n, mask: f.mask})
			}
			continue
		}
		children := c.t.entries(f.n)
		for i := int(f.idx); i < len(children); i++ {
			if f.reach>>uint(i)&1 != 0 {
				c.next = append(c.next, cItem{n: children[i]})
			} else {
				c.next = append(c.next, c.parked(children[i], depth, i))
			}
		}
	}
	c.stack = c.stack[:0]
	c.next = append(c.next, c.cur[c.pos:]...)
	c.cur, c.next = c.next, c.cur[:0]
	c.pos = len(c.cur) // no further NextBatch until BeginRound
}

// Abandon discards the current round without rebuilding the frontier — the
// O(1) exit for a query that stops mid-round and will not advance this
// cursor again. The frontier is left incoherent: Reset the cursor before
// its next round.
func (c *Cursor) Abandon() {
	c.stack = c.stack[:0]
	c.emitted = c.emitted[:0]
	c.returned = c.returned[:0]
	c.pos = len(c.cur) // no further NextBatch
}

// Unpop hands the i-th point emitted by the current round (0-based
// emission ordinal) back to the frontier; a later round reports it again,
// at its depth-first position. The query layer uses it for candidates
// that were gathered into a verification block but not consumed before a
// stop condition fired: those must remain discoverable, exactly as an
// aborted window re-scan leaves them unvisited. Valid until the next
// BeginRound/Reset; each ordinal at most once.
func (c *Cursor) Unpop(i int) { c.returned = append(c.returned, int32(i)) }

// mergeReturned reconciles the entries handed back by Unpop with the
// frontier, in one pass over both (returned ordinals are ascending, so
// their frontier positions are non-decreasing): an entry whose leaf is
// still on the frontier gets its mask bit cleared in place — the leaf's
// next scan re-reports it, at its depth-first position among the leaf's
// entries — and an entry whose leaf was dropped as fully reported has the
// leaf spliced back in at its old position with exactly the handed-back
// bits clear.
func (c *Cursor) mergeReturned() {
	if len(c.returned) == 0 {
		c.emitted = c.emitted[:0]
		return
	}
	out := c.next[:0]
	prev := 0
	for gi := 0; gi < len(c.returned); {
		first := c.emitted[c.returned[gi]]
		p, n := int(first.pos), first.n
		var clear uint64
		for gi < len(c.returned) {
			rec := c.emitted[c.returned[gi]]
			if int(rec.pos) != p || rec.n != n {
				break
			}
			clear |= uint64(1) << uint(rec.idx)
			gi++
		}
		out = append(out, c.cur[prev:p]...)
		if p < len(c.cur) && c.cur[p].n == n {
			it := c.cur[p]
			it.mask &^= clear
			it.thresh = 0 // the cleared entries are in-window already
			out = append(out, it)
			prev = p + 1
		} else {
			out = append(out, cItem{n: n, mask: fullMask(int(c.t.heads[n].count)) &^ clear})
			prev = p
		}
	}
	out = append(out, c.cur[prev:]...)
	c.cur, c.next = out, c.cur[:0]
	c.emitted = c.emitted[:0]
	c.returned = c.returned[:0]
}

// FrontierLen returns the number of frontier items (parked subtrees), the
// residual-traversal gauge surfaced in query statistics. Meaningful
// between rounds.
func (c *Cursor) FrontierLen() int { return len(c.cur) }

// NodesVisited returns the number of node visits since Reset.
// Interior nodes are visited once per query; leaves straddling the window
// boundary are revisited when the window reaches another of their entries
// until every entry is reported.
func (c *Cursor) NodesVisited() int { return c.nodes }
