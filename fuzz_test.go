package dblsh

import (
	"bytes"
	"math"
	"testing"
)

// FuzzRead hardens the index-file parser: arbitrary bytes must produce an
// error, never a panic or a runaway allocation. Run with
// `go test -fuzz=FuzzRead`; without -fuzz the seed corpus below runs as a
// regular test.
func FuzzRead(f *testing.F) {
	// Seed corpus: a valid file, a truncation, a bit flip, and junk.
	data, _ := clusteredData(50, 4, 91)
	idx, err := New(data, Options{K: 4, L: 2, Seed: 91})
	if err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if _, err := idx.WriteTo(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:40])
	flipped := append([]byte(nil), valid.Bytes()...)
	flipped[20] ^= 0x40
	f.Add(flipped)
	f.Add([]byte("DBLSHv1\n garbage"))
	f.Add([]byte("DBLSHv2\n garbage"))
	f.Add([]byte{})
	// A sharded index with tombstones exercises the v2 id-map and bitmap
	// sections, and a legacy v1 file exercises the compatibility path.
	sharded, err := New(data, Options{K: 4, L: 2, Seed: 91, Shards: 3})
	if err != nil {
		f.Fatal(err)
	}
	sharded.Delete(1)
	var validSharded bytes.Buffer
	if _, err := sharded.WriteTo(&validSharded); err != nil {
		f.Fatal(err)
	}
	f.Add(validSharded.Bytes())
	f.Add(writeV1File(data, 4, 2, 10, 1.5, 9, 1, 91))

	f.Fuzz(func(t *testing.T, raw []byte) {
		loaded, err := Read(bytes.NewReader(raw))
		if err != nil {
			return
		}
		// Anything the parser accepts must be a usable index. Len 0 is
		// legitimate for a v2 file (fully deleted and compacted), but the
		// index must still answer queries without panicking.
		if loaded.Len() < 0 || loaded.Dim() <= 0 {
			t.Fatalf("accepted index with shape %d×%d", loaded.Len(), loaded.Dim())
		}
		q := make([]float32, loaded.Dim())
		live := loaded.Len() - loaded.Deleted()
		res := loaded.Search(q, 1)
		if live > 0 && len(res) != 1 {
			t.Fatalf("accepted index with %d live points cannot answer queries", live)
		}
		if live <= 0 && len(res) != 0 {
			t.Fatalf("index with no live points returned %d results", len(res))
		}
	})
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
			if err == nil || res != nil || idx.Search(q, 3) != nil {
				t.Fatalf("non-finite query %v answered: %v, %v", q, res, err)
			}
			return
		}
		if err != nil || len(res) == 0 || len(res) > 3 {
			t.Fatalf("got %d results, err %v", len(res), err)
		}
	})
}
