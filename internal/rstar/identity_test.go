package rstar

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"dblsh/internal/vec"
)

// digest is a structural fingerprint of the tree: a depth-first walk hashing
// every node's level, MBR bits, entry count, and — for leaves — the sort
// axis and the ids in stored order, over the packed tree and then, when
// there is one, the tail. Children are walked in stored order, so two trees
// share a digest only if they are the same tree node for node.
func (t *Tree) digest() string {
	h := sha256.New()
	var buf [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(buf[:], v)
		h.Write(buf[:])
	}
	var walk func(n int32)
	walk = func(n int32) {
		put(uint32(t.heads[n].level))
		for _, v := range t.rect(n).Min {
			put(math.Float32bits(v))
		}
		for _, v := range t.rect(n).Max {
			put(math.Float32bits(v))
		}
		put(uint32(t.heads[n].count))
		if t.leaf(n) {
			put(uint32(t.heads[n].sortAxis))
			for _, id := range t.entries(n) {
				put(uint32(id))
			}
			return
		}
		for _, c := range t.entries(n) {
			walk(c)
		}
	}
	walk(t.root)
	if t.tail >= 0 {
		walk(t.tail)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// gridMatrix draws points on a coarse integer grid and repeats every point
// three times, so sort keys tie, rectangles degenerate and whole entries
// coincide — the cases where an unstable sort's permutation and a
// tie-breaking comparison decide the tree.
func gridMatrix(n, d int, seed int64) *vec.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := vec.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		if i%3 != 0 {
			copy(m.Row(i), m.Row(i-1))
			continue
		}
		for j := 0; j < d; j++ {
			m.Row(i)[j] = float32(rng.Intn(7))
		}
	}
	return m
}

// identityScripts are the seeded scripts whose trees goldenDigests pins:
// bulk rows are STR-packed, the rest added in row order (through the tail,
// and through the inline repacks a full tail makes), and the tree is then
// repacked.
var identityScripts = []struct {
	name string
	data func() *vec.Matrix
	bulk int
	opts Options
}{
	{"bulk/M4/quant", func() *vec.Matrix { return randomMatrix(3000, 3, 104) }, 1500, Options{MaxEntries: 4, Quantize: true}},
	{"bulk/M8/quant", func() *vec.Matrix { return randomMatrix(5000, 5, 105) }, 3000, Options{MaxEntries: 8, Quantize: true}},
	{"bulk/M32/quant", func() *vec.Matrix { return randomMatrix(22000, 10, 106) }, 20000, Options{Quantize: true}},
	{"grid/bulk/M32/quant", func() *vec.Matrix { return gridMatrix(9000, 6, 109) }, 6000, Options{Quantize: true}},
}

// goldenDigests pin the repacked trees node for node: a repack is Pack over
// the same rows, and Pack depends on the data alone. They are the digests
// of Pack over every row of each script; a change to packing re-records
// them only as the verify notes' rule for goldens says.
var goldenDigests = map[string]string{
	"bulk/M4/quant":       "275941c38f312aab6e63ee61539e3b45bc684c70c9f392f54e787193012e83cf",
	"bulk/M8/quant":       "d47c46c924137c5517e1cfb097bcb775140a7152f5b1e6eed647fa8444374b0c",
	"bulk/M32/quant":      "89f2c3122c0d08a74721385c18ae42c5052ecf6aef833f19027b4438618b7681",
	"grid/bulk/M32/quant": "bcdb86a1ea2007a6cef8ff59ee5a393aca6645b483a1241b11922c3e3cd2f8cd",
}

// TestTreeIdentityGolden grows each script's pack by its adds, saved and
// loaded at both ends, and requires every copy to repack into the golden
// tree, which Pack over all the rows builds too.
func TestTreeIdentityGolden(t *testing.T) {
	for _, sc := range identityScripts {
		data := sc.data()
		tr := Pack(data.Slice(0, sc.bulk), sc.opts)
		loaded := reload(t, sc.name+" as packed", tr, data, sc.bulk, sc.opts)
		for i := sc.bulk; i < data.Rows(); i++ {
			tr.InsertPoint(i, data.Row(i))
			loaded.InsertPoint(i, data.Row(i))
		}
		if tr.TailLen() == 0 || loaded.digest() != tr.digest() {
			t.Fatalf("%s: tail of %d points; the loaded tree grew into another tree", sc.name, tr.TailLen())
		}
		want := goldenDigests[sc.name]
		for name, tree := range map[string]*Tree{
			"built":                tr,
			"loaded, then grown":   loaded,
			"grown, saved, loaded": reload(t, sc.name+" as grown", tr, data, data.Rows(), sc.opts),
			"packed outright":      Pack(data, sc.opts),
		} {
			tree.Repack()
			if msg := tree.CheckInvariants(data); msg != "" {
				t.Fatalf("%s (%s): invariant violated: %s", sc.name, name, msg)
			}
			if got := tree.digest(); got != want {
				t.Errorf("%s (%s): digest %s, want %s (height %d)", sc.name, name, got, want, tree.Height())
			}
		}
	}
}
