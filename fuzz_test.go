package dblsh

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"
)

// readSeeds returns the valid index files FuzzRead starts from: v4 files
// of a single-shard index, a sharded one with a tombstone, and one whose
// trees took adds after they were packed.
func readSeeds(t testing.TB) (v4 [][]byte) {
	data, _ := clusteredData(50, 4, 91)
	for _, opts := range []Options{
		{K: 4, L: 2, Seed: 91},
		{K: 4, L: 2, Seed: 91, Shards: 3},
		{K: 4, L: 2, Seed: 91},
	} {
		idx, err := New(data, opts)
		if err != nil {
			t.Fatal(err)
		}
		switch len(v4) {
		case 1:
			del(t, idx, 1)
		case 2:
			for _, v := range data { // a tail in every tree
				if _, err := idx.Add(v); err != nil {
					t.Fatal(err)
				}
			}
		}
		var buf bytes.Buffer
		if _, err := idx.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		v4 = append(v4, buf.Bytes())
	}
	return v4
}

// treeless returns the single-shard v4 file raw as the first v4 writers
// emitted it: the shard's tree count 0 and no arenas behind it.
func treeless(raw []byte) []byte {
	dim := uint64(binary.LittleEndian.Uint32(raw[20:]))
	rows := binary.LittleEndian.Uint64(raw[v4HeaderLen:])
	at := v4HeaderLen + 16 + 8*rows + (rows+7)/8 + 4*rows*dim
	return restamp(append(raw[:at:at], make([]byte, 4+4)...)) // count, CRC
}

// restamp returns raw with its last four bytes replaced by the checksum of
// what precedes them: the file a writer with raw's opinions would produce.
func restamp(raw []byte) []byte {
	out := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(out[:len(out)-4]))
	return out
}

// mustBeUsable is what anything the parser accepts has to be: an index that
// answers a query and takes an Add without panicking or hanging. Len 0 is
// legitimate (fully deleted and compacted).
func mustBeUsable(t *testing.T, loaded *Index) {
	if loaded.Len() < 0 || loaded.Dim() <= 0 {
		t.Fatalf("accepted index with shape %d×%d", loaded.Len(), loaded.Dim())
	}
	q := make([]float32, loaded.Dim())
	live := loaded.Len() - loaded.Deleted()
	res := search(t, loaded, q, 1)
	if live > 0 && len(res) != 1 {
		t.Fatalf("accepted index with %d live points cannot answer queries", live)
	}
	if live <= 0 && len(res) != 0 {
		t.Fatalf("index with no live points returned %d results", len(res))
	}
	if loaded.Metric() == Euclidean {
		if _, err := loaded.Add(q); err != nil {
			t.Fatalf("accepted index refuses an Add: %v", err)
		}
	}
}

// FuzzRead hardens the index-file parser: arbitrary bytes must produce an
// error, never a panic, a hang or a runaway allocation. Every input is read
// twice. As it is, the checksum turns nearly every mutation away at the
// door; so the input is read again with the checksum recomputed over
// whatever the fuzzer made of it — the header words, which the shared
// plausibility limits bound (checkConfig), and the shards and tree arenas
// behind them, which are for the structural validation to catch: child
// indices out of range or in a cycle, duplicated and missing leaf ids,
// over-capacity counts, truncated slabs. Run with `go test -fuzz=FuzzRead`;
// without -fuzz the seed corpus below runs as a regular test.
func FuzzRead(f *testing.F) {
	v4 := readSeeds(f)
	for _, seed := range v4 {
		f.Add(seed)
	}
	f.Add(v4[0][:40])
	flipped := append([]byte(nil), v4[0]...)
	flipped[20] ^= 0x40
	f.Add(flipped)
	f.Add(treeless(v4[0]))
	f.Add([]byte("DBLSHv1\n garbage"))
	f.Add([]byte("DBLSHv2\n garbage"))
	f.Add([]byte("DBLSHv3\n garbage"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, raw []byte) {
		if loaded, err := Read(bytes.NewReader(raw)); err == nil {
			mustBeUsable(t, loaded)
		}
		if len(raw) > len(magicV4)+4 {
			if loaded, err := Read(bytes.NewReader(restamp(raw))); err == nil {
				mustBeUsable(t, loaded)
			}
		}
	})
}

// TestReadSurvivesRestampedCorruption is FuzzRead's second reading made
// exhaustive on one small file: every byte behind the magic — header words
// included — is, in turn, inverted (small counts turn huge, indices
// negative) and set to 0x7f (a NaN's top byte, an index far out of range),
// the checksum is recomputed, and the file read. None may panic or hang;
// what loads must work.
func TestReadSurvivesRestampedCorruption(t *testing.T) {
	// Small enough to try every byte, deep enough to have interior nodes.
	data, _ := clusteredData(70, 2, 93)
	idx, err := New(data[:40], Options{K: 2, L: 1, Seed: 93})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range data[40:] {
		if _, err := idx.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	raw := save(t, idx)
	accepted, tried := 0, 0
	for at := len(magicV4); at < len(raw)-4; at++ {
		for _, v := range []byte{raw[at] ^ 0xff, 0x7f} {
			bad := append([]byte(nil), raw...)
			bad[at] = v
			tried++
			if loaded, err := Read(bytes.NewReader(restamp(bad))); err == nil {
				mustBeUsable(t, loaded)
				accepted++
			}
		}
	}
	// Vector bytes, rectangle bytes and lanes of live coordinates are data,
	// not structure: corruptions of them load. Structure must not.
	t.Logf("%d of %d corrupted files loaded", accepted, tried)
}

// FuzzSearch hardens the public query path against arbitrary (well-shaped)
// vectors, including extreme values: a finite query is answered, a query
// with a NaN or infinite coordinate is refused with an error and no result.
func FuzzSearch(f *testing.F) {
	data, _ := clusteredData(200, 4, 92)
	idx, err := New(data, Options{K: 4, L: 2, T: 10, Seed: 92})
	if err != nil {
		f.Fatal(err)
	}
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	f.Add(float32(0), float32(0), float32(0), float32(0))
	f.Add(float32(1e30), float32(-1e30), float32(1e-30), float32(0))
	f.Add(nan, float32(0), float32(0), float32(0))
	f.Add(float32(0), float32(0), inf, float32(0))
	f.Add(float32(1), -inf, float32(1), nan)
	f.Fuzz(func(t *testing.T, a, b, c, d float32) {
		q := []float32{a, b, c, d}
		res, err := idx.SearchOpts(q, 3)
		if firstNonFinite(q) >= 0 {
			if err == nil || res != nil {
				t.Fatalf("non-finite query %v answered: %v, %v", q, res, err)
			}
			return
		}
		if err != nil || len(res) == 0 || len(res) > 3 {
			t.Fatalf("got %d results, err %v", len(res), err)
		}
	})
}
