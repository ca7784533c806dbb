package rstar

import (
	"strings"
	"testing"

	"dblsh/internal/vec"
)

// reload saves tr, which indexes rows [0, rows) of data, and loads it back:
// the loaded tree must pass the invariants — its leaf blocks holding data's
// rows bit for bit among them — and digest equal to the saved one.
func reload(t *testing.T, name string, tr *Tree, data *vec.Matrix, rows int, opts Options) *Tree {
	t.Helper()
	loaded, err := Load(tr.Snapshot(), rows, tr.Dim(), opts)
	if err != nil {
		t.Fatalf("%s: load: %v", name, err)
	}
	if msg := loaded.CheckInvariants(data); msg != "" {
		t.Fatalf("%s: loaded tree violates an invariant: %s", name, msg)
	}
	if got, want := loaded.digest(), tr.digest(); got != want {
		t.Fatalf("%s: loaded tree digests %s, saved one %s", name, got, want)
	}
	return loaded
}

// TestLoadRejectsMalformedArenas feeds Load arenas a hostile file could
// carry — each one a valid tree's with one thing wrong — and requires an
// error naming it: the structural validator, not a checksum, is what stands
// between such a file and a cursor that never returns.
func TestLoadRejectsMalformedArenas(t *testing.T) {
	const rows, dim = 700, 3
	opts := Options{MaxEntries: 8}
	data := randomMatrix(rows, dim, 77)
	packed := make([]int, 500)
	for i := range packed {
		packed[i] = i
	}
	tr := BulkLoadIDs(data, packed, opts)
	for i := len(packed); i < rows; i++ {
		tr.InsertPoint(i, data.Row(i))
	}
	if tr.Height() < 3 || tr.TailLen() == 0 {
		t.Fatalf("height %d, tail of %d: the cases below need two interior levels and a tail", tr.Height(), tr.TailLen())
	}
	// An interior node below the root, and a leaf with a free lane.
	inner, leaf := tr.entries(tr.root)[0], int32(-1)
	var find func(n int32)
	find = func(n int32) {
		for _, c := range tr.entries(n) {
			if !tr.leaf(n) {
				find(c)
			}
		}
		if tr.leaf(n) && int(tr.heads[n].count) < opts.MaxEntries {
			leaf = n
		}
	}
	find(tr.root)
	ents := func(a *Arena, n int32) []int32 { return a.Ents[int(n)*tr.ecap:] }
	cases := []struct {
		name, want string
		corrupt    func(a *Arena)
	}{
		{"child index out of range", "child outside the arena", func(a *Arena) { ents(a, tr.root)[0] = int32(len(tr.heads)) }},
		{"negative child index", "child outside the arena", func(a *Arena) { ents(a, tr.root)[0] = -1 }},
		{"cycle through the root", "off its level", func(a *Arena) { ents(a, inner)[0] = tr.root }},
		{"a subtree shared by two parents", "reached twice", func(a *Arena) { ents(a, tr.root)[1] = ents(a, tr.root)[0] }},
		{"a level skipped", "off its level", func(a *Arena) { a.Heads[2*inner+1] += 1 << 16 }},
		{"root outside the arena", "root", func(a *Arena) { a.Root = int32(len(tr.heads)) }},
		{"a tail node off level 1", "no tail node", func(a *Arena) { a.Heads[2*tr.tail+1] = 2 << 16 }},
		{"a tail node holding no leaf", "is empty", func(a *Arena) { a.Heads[2*tr.tail] = 0 }},
		{"over-capacity count", "malformed head", func(a *Arena) { a.Heads[2*leaf] = int32(opts.MaxEntries) + 1 }},
		{"negative count", "malformed head", func(a *Arena) { a.Heads[2*leaf] = -3 }},
		{"empty node", "is empty", func(a *Arena) { a.Heads[2*leaf] = 0 }},
		{"sort axis out of range", "malformed head", func(a *Arena) { a.Heads[2*leaf+1] = dim }},
		{"level beyond the reinsertion mask", "malformed head", func(a *Arena) { a.Heads[2*tr.root+1] = maxLevels << 16 }},
		{"row held twice", "held twice", func(a *Arena) { ents(a, leaf)[0] = ents(a, leaf)[1] }},
		{"row out of range", "out of range", func(a *Arena) { ents(a, leaf)[0] = rows }},
		{"a row missing", "rows", func(a *Arena) {
			a.Heads[2*leaf]--
			for d := 0; d < dim; d++ { // its lane padded, so that only the row is amiss
				a.Blocks[int(leaf)*tr.blockLen+d*tr.stride+int(a.Heads[2*leaf])] = posInf
			}
		}},
		{"padding lane not +Inf", "padding lane", func(a *Arena) { a.Blocks[int(leaf)*tr.blockLen+tr.stride-1] = 0 }},
		{"truncated block slab", "do not hold", func(a *Arena) { a.Blocks = a.Blocks[:len(a.Blocks)-tr.blockLen] }},
		{"truncated entry slab", "do not hold", func(a *Arena) { a.Ents = a.Ents[:len(a.Ents)-1] }},
		{"truncated rect slab", "do not hold", func(a *Arena) { a.Rects = a.Rects[:len(a.Rects)-2*dim] }},
		{"odd head slab", "do not hold", func(a *Arena) { a.Heads = a.Heads[:len(a.Heads)-1] }},
		{"no slots", "do not hold", func(a *Arena) { *a = Arena{} }},
	}
	for _, c := range cases {
		a := tr.Snapshot()
		c.corrupt(&a)
		if _, err := Load(a, rows, dim, opts); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Load returned %v, want an error mentioning %q", c.name, err, c.want)
		}
	}
	if _, err := Load(tr.Snapshot(), rows, dim, Options{MaxEntries: 16}); err == nil {
		t.Error("an arena of capacity-8 nodes loaded as a capacity-16 tree")
	}
	if _, err := Load(tr.Snapshot(), rows+1, dim, opts); err == nil {
		t.Error("an arena over 700 rows loaded as a tree over 701")
	}
}

// TestLoadedTreeGrowsLikeTheSavedOne saves a growing tree every time its
// arena ends at a new offset within a block chunk — a loaded arena's last
// chunk is cut where its last block ends — and grows each loaded copy by
// the inserts the original saw next: leaf splits, interior splits and root
// growth must leave the same tree wherever the first new node falls.
func TestLoadedTreeGrowsLikeTheSavedOne(t *testing.T) {
	const packed, rows, more = 100, 700, 60
	opts := Options{MaxEntries: 4}
	data := randomMatrix(rows, 3, 55)
	ids := make([]int, packed)
	for i := range ids {
		ids[i] = i
	}
	tr := BulkLoadIDs(data, ids, opts)
	saved := map[int]Arena{} // rows indexed when saved → the arena then
	ends := map[int]bool{}
	digests := make([]string, rows+1) // by rows indexed
	for i := packed; ; i++ {
		digests[i] = tr.digest()
		if end := len(tr.heads) % chunkSlots; !ends[end] && i+more <= rows {
			ends[end], saved[i] = true, tr.Snapshot()
		}
		if i == rows {
			break
		}
		tr.InsertPoint(i, data.Row(i))
	}
	if len(ends) != chunkSlots {
		t.Fatalf("arenas ended at %d of %d chunk offsets", len(ends), chunkSlots)
	}
	for at, arena := range saved {
		loaded, err := Load(arena, at, 3, opts)
		if err != nil {
			t.Fatalf("saved at %d rows: %v", at, err)
		}
		for i := at; i < at+more; i++ {
			loaded.InsertPoint(i, data.Row(i))
		}
		if msg := loaded.CheckInvariants(data); msg != "" {
			t.Fatalf("saved at %d rows: after %d inserts: %s", at, more, msg)
		}
		if loaded.digest() != digests[at+more] {
			t.Fatalf("saved at %d rows: the loaded tree and the saved one diverge under the same %d inserts", at, more)
		}
	}
}
