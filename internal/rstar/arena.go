package rstar

import (
	"fmt"
	"math"
	"slices"
)

// The node arena.
//
// A node is an int32 slot index, not a pointer. Slot n owns heads[n], the
// 2·dim floats of rects at n·2·dim, the MaxEntries+1 entry slots of ents at
// n·(MaxEntries+1) — a leaf's row ids or an interior node's child indices,
// and one spare slot that nothing fills, kept because the index file lays
// entries out that way — and
// one window-test block of dim·stride floats. An interior node needs two
// blocks (its children's lower and upper faces), so it takes slot n+1 as
// well: the upper-face block is slot n+1's, whose head, rect and entries go
// unused (3 % of nodes are interior). A block's address is therefore a
// function of the index alone, nodes are never freed, and the whole tree is
// five pointer-free slices that Snapshot copies and Load adopts as they are.
//
// A packed tree takes slots in the order Pack made them; the tail, when
// there is one, follows: its level-1 node at the first slot the packed tree
// does not reach, its leaves after that in arrival order. That is how Load
// finds it, so the file needs no field of its own for it.
//
// Blocks live in chunks of chunkSlots that are never moved or copied when
// the tree grows; heads, rects and ents are plain slices that append may
// move, so a view into them (rect, entries) must not be held across newNode.
const (
	chunkShift = 6
	chunkSlots = 1 << chunkShift
	maxLevels  = 64 // the deepest tree Load accepts, far past any over int32 ids
)

// head is a node's fixed-size header.
type head struct {
	count    int32  // entries in use
	sortAxis uint16 // leaves: the axis the entries are sorted by, ties by id
	level    uint8  // 0 = leaf
}

func (t *Tree) leaf(n int32) bool { return t.heads[n].level == 0 }

// rect returns node n's MBR as a view into the arena.
func (t *Tree) rect(n int32) Rect {
	r := t.rects[int(n)*2*t.dim : (int(n)+1)*2*t.dim]
	return Rect{Min: r[:t.dim:t.dim], Max: r[t.dim:]}
}

// entries returns node n's entries in stored order, as a view with room for
// the node's spare slot.
func (t *Tree) entries(n int32) []int32 {
	base := int(n) * t.ecap
	return t.ents[base : base+int(t.heads[n].count) : base+t.ecap]
}

// setEntries overwrites node n's entry list.
func (t *Tree) setEntries(n int32, es ...int32) {
	t.heads[n].count = int32(copy(t.ents[int(n)*t.ecap:(int(n)+1)*t.ecap], es))
}

// block returns slot n's window-test block: a leaf's entry coordinates
// (vec.WindowMask), an interior node's children's lower faces, and at n+1
// their upper faces (vec.BoxMask). Entry j's value on axis d is lane
// block[d·stride+j]; lanes from the entry count on hold +Inf.
func (t *Tree) block(n int32) []float32 {
	off := int(n&(chunkSlots-1)) * t.blockLen
	return t.blocks[n>>chunkShift][off : off+t.blockLen : off+t.blockLen]
}

// newNode appends an empty node at the given level and returns its slot. Its
// blocks are whatever the chunk held: every caller pads or fills them before
// it returns.
func (t *Tree) newNode(level int) int32 {
	n := len(t.heads)
	slots := 1
	if level > 0 {
		slots = 2
	}
	for slot := n; slot < n+slots; slot++ {
		t.heads = append(t.heads, head{level: uint8(level)})
		if c := slot >> chunkShift; c == len(t.blocks) {
			t.blocks = append(t.blocks, make([]float32, chunkSlots*t.blockLen))
		} else if len(t.blocks[c]) < (slot&(chunkSlots-1)+1)*t.blockLen {
			// A loaded arena's last chunk ends with its last block; the first
			// node added after a load gives it the room of a whole chunk.
			full := make([]float32, chunkSlots*t.blockLen)
			copy(full, t.blocks[c])
			t.blocks[c] = full
		}
	}
	t.rects = appendZeros(t.rects, slots*2*t.dim)
	t.ents = appendZeros(t.ents, slots*t.ecap)
	return int32(n)
}

// appendZeros extends s by n zero elements.
func appendZeros[T any](s []T, n int) []T {
	s = slices.Grow(s, n)[:len(s)+n]
	clear(s[len(s)-n:])
	return s
}

// reserve sizes the per-slot slices for exactly the given number of slots,
// so that a bulk load neither regrows them nor leaves append's slack behind.
func (t *Tree) reserve(slots int) {
	t.heads = make([]head, 0, slots)
	t.rects = make([]float32, 0, slots*2*t.dim)
	t.ents = make([]int32, 0, slots*t.ecap)
}

// Arena is a tree's entire state as flat slices — the arena itself, with
// the block chunks laid end to end and the heads packed two int32 a slot
// (entry count, then level<<16 | sort axis). It is what the index file
// stores per tree: Snapshot copies it out of a live tree, Load builds a
// tree around one without copying it back.
type Arena struct {
	Root   int32
	Heads  []int32   // 2 per slot
	Ents   []int32   // MaxEntries+1 per slot
	Rects  []float32 // 2·dim per slot
	Blocks []float32 // dim·stride per slot
}

// Snapshot returns a copy of the tree's arena: five memcpys, no walk. The
// caller must hold off mutations for the duration, as for any read.
func (t *Tree) Snapshot() Arena {
	a := Arena{
		Root:   t.root,
		Heads:  make([]int32, 0, 2*len(t.heads)),
		Ents:   append([]int32(nil), t.ents...),
		Rects:  append([]float32(nil), t.rects...),
		Blocks: make([]float32, 0, len(t.heads)*t.blockLen),
	}
	for _, h := range t.heads {
		a.Heads = append(a.Heads, h.count, int32(h.level)<<16|int32(h.sortAxis))
	}
	for _, c := range t.blocks {
		a.Blocks = append(a.Blocks, c[:min(len(c), cap(a.Blocks)-len(a.Blocks))]...)
	}
	return a
}

// Load builds a tree around a, which it takes ownership of, indexing the
// ids [0, rows) — the points are in the leaf blocks already, so nothing is
// projected, sorted, packed or copied.
//
// The arena is untrusted: it comes from a file. Load checks everything a
// traversal or an insertion relies on to terminate and stay in bounds —
// slice lengths against the slot count, every child index in range, the
// node graph a tree that one walk from the root, and one from the tail's
// level-1 node at the first slot the root does not reach, cover slot for
// slot (so no cycle can hang a cursor), levels falling by one to leaves at 0,
// entry counts within [1, MaxEntries], every row id in [0, rows) exactly
// once, +Inf in every padding lane (the kernels test whole vectors) — and
// returns an error for anything else. It does not check geometry: wrong
// rectangles in a file that passes make wrong answers, not crashes.
func Load(a Arena, rows, dim int, opts Options) (*Tree, error) {
	if dim < 1 || rows < 0 {
		return nil, fmt.Errorf("rstar: arena over %d rows of dimension %d", rows, dim)
	}
	t := newTree(dim, opts)
	slots := len(a.Heads) / 2
	if slots < 1 || len(a.Heads) != slots*2 || len(a.Ents) != slots*t.ecap ||
		len(a.Rects) != slots*2*dim || len(a.Blocks) != slots*t.blockLen {
		return nil, fmt.Errorf("rstar: arena slices do not hold %d slots", slots)
	}
	t.heads = make([]head, slots)
	for n := range t.heads {
		count, packed := a.Heads[2*n], a.Heads[2*n+1]
		if count < 0 || count > int32(t.opts.MaxEntries) || packed < 0 || packed>>16 >= maxLevels || int(packed&0xffff) >= t.dim {
			return nil, fmt.Errorf("rstar: slot %d has a malformed head", n)
		}
		t.heads[n] = head{count: count, level: uint8(packed >> 16), sortAxis: uint16(packed)}
	}
	t.ents, t.rects = a.Ents, a.Rects
	for lo := 0; lo < len(a.Blocks); lo += chunkSlots * t.blockLen {
		hi := min(lo+chunkSlots*t.blockLen, len(a.Blocks))
		t.blocks = append(t.blocks, a.Blocks[lo:hi:hi])
	}
	t.root, t.size = a.Root, rows
	if err := t.adopt(); err != nil {
		return nil, err
	}
	return t, nil
}

// adopt is Load's walk: it validates the node graph from the root down,
// then the tail's from the first slot the root's walk left.
func (t *Tree) adopt() error {
	slots, S := len(t.heads), t.stride
	if t.root < 0 || int(t.root) >= slots {
		return fmt.Errorf("rstar: root %d outside %d slots", t.root, slots)
	}
	reached := make([]bool, slots)
	seen := make([]bool, t.size)
	covered, rows := 0, 0
	padded := func(n int32, used int) bool {
		b := t.block(n)
		for lo := used; lo < len(b); lo += S {
			for _, v := range b[lo : lo+S-used] {
				if v != posInf {
					return false
				}
			}
		}
		return true
	}
	walk := func(top int32) error {
		stack := []int32{top}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			h := t.heads[n]
			width := 1
			if h.level > 0 {
				width = 2
			}
			if int(n)+width > slots || reached[n] || reached[int(n)+width-1] {
				return fmt.Errorf("rstar: slot %d is reached twice or runs past the arena", n)
			}
			reached[n], reached[int(n)+width-1] = true, true
			covered += width
			if h.count == 0 && !(n == t.root && h.level == 0) {
				return fmt.Errorf("rstar: node %d is empty", n)
			}
			if !padded(n, int(h.count)) || (width == 2 && !padded(n+1, int(h.count))) {
				return fmt.Errorf("rstar: node %d has a padding lane that is not +Inf", n)
			}
			if h.level > 0 {
				for _, c := range t.entries(n) {
					if c < 0 || int(c) >= slots || t.heads[c].level != h.level-1 {
						return fmt.Errorf("rstar: node %d has a child outside the arena or off its level", n)
					}
					stack = append(stack, c)
				}
				continue
			}
			for _, id := range t.entries(n) {
				if id < 0 || int(id) >= t.size || seen[id] {
					return fmt.Errorf("rstar: leaf %d holds row %d, which is out of range or held twice", n, id)
				}
				seen[id] = true
				rows++
			}
		}
		return nil
	}
	if err := walk(t.root); err != nil {
		return err
	}
	if covered < slots {
		t.tail = int32(slices.Index(reached, false))
		if t.heads[t.tail].level != 1 {
			return fmt.Errorf("rstar: slot %d, which the root does not reach, is no tail node", t.tail)
		}
		if err := walk(t.tail); err != nil {
			return err
		}
	}
	if covered != slots || rows != t.size {
		return fmt.Errorf("rstar: the tree covers %d of %d slots and %d of %d rows", covered, slots, rows, t.size)
	}
	return nil
}

var posInf = float32(math.Inf(1))
