package dblsh

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"dblsh/internal/wal"
)

// v4HeaderLen is the size of a v4 file's fixed header, magic included: what
// precedes the part.
const v4HeaderLen = 8 + 4 + 8 + 4 + 4 + 8 + 3*4 + 2*8 + 8 + 2*4

func buildSmall(t *testing.T) (*Index, [][]float32, [][]float32) {
	t.Helper()
	data, queries := clusteredData(2000, 24, 31)
	idx, err := New(data, Options{K: 8, L: 4, T: 40, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	return idx, data, queries
}

func TestPersistRoundTrip(t *testing.T) {
	idx, _, queries := buildSmall(t)
	var buf bytes.Buffer
	n, err := idx.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) != n {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}

	loaded, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != idx.Len() || loaded.Dim() != idx.Dim() {
		t.Fatalf("shape changed: %d×%d vs %d×%d", loaded.Len(), loaded.Dim(), idx.Len(), idx.Dim())
	}
	if loaded.Params() != idx.Params() {
		t.Fatalf("params changed: %+v vs %+v", loaded.Params(), idx.Params())
	}
	// Determinism: the reloaded index must answer identically.
	for _, q := range queries {
		a := search(t, idx, q, 10)
		b := search(t, loaded, q, 10)
		if len(a) != len(b) {
			t.Fatalf("result sizes differ: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("results diverge at rank %d: %+v vs %+v", i, a[i], b[i])
			}
		}
	}
}

func TestPersistRejectsCorruption(t *testing.T) {
	idx, _, _ := buildSmall(t)
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Flip one byte in the vector payload.
	corrupted := append([]byte(nil), raw...)
	corrupted[len(corrupted)/2] ^= 0xff
	if _, err := Read(bytes.NewReader(corrupted)); err == nil {
		t.Fatal("corrupted payload must fail the checksum")
	} else if !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("unexpected error: %v", err)
	}

	// Wrong magic.
	wrongMagic := append([]byte(nil), raw...)
	wrongMagic[0] = 'X'
	if _, err := Read(bytes.NewReader(wrongMagic)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic must be rejected, got %v", err)
	}

	// Truncated file.
	if _, err := Read(bytes.NewReader(raw[:len(raw)/3])); err == nil {
		t.Fatal("truncated file must fail")
	}
}

func TestPersistEmptyReaderFails(t *testing.T) {
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty reader must fail")
	}
}

func TestAddThenSearch(t *testing.T) {
	idx, data, _ := buildSmall(t)
	before := idx.Len()

	// Add a point far from everything, then query next to it.
	novel := make([]float32, idx.Dim())
	for j := range novel {
		novel[j] = 500
	}
	id, err := idx.Add(novel)
	if err != nil {
		t.Fatal(err)
	}
	if id != before {
		t.Fatalf("Add returned id %d, want %d", id, before)
	}
	if idx.Len() != before+1 {
		t.Fatalf("Len = %d", idx.Len())
	}
	hits := search(t, idx, novel, 1)
	if len(hits) != 1 || hits[0].ID != id || hits[0].Dist != 0 {
		t.Fatalf("search for added point returned %+v", hits)
	}

	// Old points still found.
	hits = search(t, idx, data[0], 1)
	if len(hits) != 1 || hits[0].Dist != 0 {
		t.Fatalf("pre-existing point lost after Add: %+v", hits)
	}

	// Dim mismatch errors.
	if _, err := idx.Add(novel[:3]); err == nil {
		t.Fatal("Add with wrong dim must error")
	}
}

func TestAddManyKeepsTreeInvariants(t *testing.T) {
	data, _ := clusteredData(500, 16, 33)
	idx, err := New(data, Options{K: 6, L: 3, T: 20, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	// Pre-existing searcher must survive index growth.
	s := idx.NewSearcher()
	for i := 0; i < 500; i++ {
		v := make([]float32, 16)
		for j := range v {
			v[j] = data[i%500][j] + 0.01
		}
		if _, err := idx.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	if idx.Len() != 1000 {
		t.Fatalf("Len = %d", idx.Len())
	}
	res := search(t, s, data[0], 5)
	if len(res) != 5 {
		t.Fatalf("stale searcher returned %d results", len(res))
	}
	if res[0].Dist != 0 {
		t.Fatalf("nearest to data[0] should be itself, got %+v", res[0])
	}
}

// failingWriter errors after n bytes, for write-path failure injection.
type failingWriter struct {
	n int
}

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errWriteFailed
	}
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, errWriteFailed
	}
	f.n -= len(p)
	return len(p), nil
}

var errWriteFailed = errors.New("injected write failure")

func TestWriteToSurfacesWriterErrors(t *testing.T) {
	idx, _, _ := buildSmall(t)
	for _, budget := range []int{0, 4, 100, 5000} {
		if _, err := idx.WriteTo(&failingWriter{n: budget}); err == nil {
			t.Fatalf("budget %d: expected an error from a failing writer", budget)
		}
	}
}

// countingFailWriter accepts up to limit bytes, then errors, and records
// exactly how many bytes it accepted.
type countingFailWriter struct {
	limit    int
	accepted int
}

func (w *countingFailWriter) Write(p []byte) (int, error) {
	if w.accepted+len(p) > w.limit {
		n := w.limit - w.accepted
		w.accepted = w.limit
		return n, errWriteFailed
	}
	w.accepted += len(p)
	return len(p), nil
}

// TestWriteToReportsFlushedBytes pins the io.WriterTo contract on failure:
// the returned count must be the bytes the destination actually accepted,
// not bytes parked in WriteTo's internal 1 MiB buffer that never reached
// the writer.
func TestWriteToReportsFlushedBytes(t *testing.T) {
	idx, _, _ := buildSmall(t)
	var full bytes.Buffer
	total, err := idx.WriteTo(&full)
	if err != nil {
		t.Fatal(err)
	}
	if total != int64(full.Len()) {
		t.Fatalf("success path reported %d bytes, wrote %d", total, full.Len())
	}
	for _, limit := range []int{0, 1, 37, 4096} {
		w := &countingFailWriter{limit: limit}
		n, err := idx.WriteTo(w)
		if err == nil {
			t.Fatalf("limit %d: expected an error", limit)
		}
		if n != int64(w.accepted) {
			t.Fatalf("limit %d: WriteTo reported %d bytes, destination accepted %d", limit, n, w.accepted)
		}
	}
}

// slowReader returns one byte at a time, exercising partial-read handling in
// the load path.
type slowReader struct {
	data []byte
	pos  int
}

func (s *slowReader) Read(p []byte) (int, error) {
	if s.pos >= len(s.data) {
		return 0, io.EOF
	}
	p[0] = s.data[s.pos]
	s.pos++
	return 1, nil
}

func TestReadHandlesPartialReads(t *testing.T) {
	idx, _, queries := buildSmall(t)
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(&slowReader{data: buf.Bytes()})
	if err != nil {
		t.Fatal(err)
	}
	a := search(t, idx, queries[0], 5)
	b := search(t, loaded, queries[0], 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("byte-at-a-time load diverges")
		}
	}
}

// save returns idx's WriteTo bytes.
func save(t *testing.T, idx *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadedIndexIsTheSavedIndex is the v4 format's contract on an index
// with a history — grown by Adds into its trees' tails, tombstoned,
// compacted and grown again: what Read returns
// is not an equivalent index but the same one. Every query does the same
// work for the same answer, the same further mutations leave the two
// identical again, and either saves to the same bytes.
func TestLoadedIndexIsTheSavedIndex(t *testing.T) {
	data, queries := clusteredData(3000, 16, 71)
	more, moreQueries := clusteredData(900, 16, 72)
	queries = append(queries, moreQueries...)
	idx, err := New(data, Options{K: 6, L: 3, T: 40, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(on *Index, adds [][]float32, deleteEvery int) {
		for _, v := range adds {
			if _, err := on.Add(v); err != nil {
				t.Fatal(err)
			}
		}
		for g := 1; g < on.NextID(); g += deleteEvery {
			del(t, on, g)
		}
	}
	mutate(idx, more[:600], 7)
	// The adds scheduled a background repack, which may not have run yet;
	// Close waits it out and schedules none after, so nothing but this
	// test changes the index from here on.
	idx.Close()
	idx.Compact()
	mutate(idx, more[600:750], 11)
	if idx.ShardStats()[0].Unpacked == 0 {
		t.Fatal("the index holds no tail: the file must carry tails")
	}

	saved := save(t, idx)
	loaded, err := Read(bytes.NewReader(saved))
	if err != nil {
		t.Fatal(err)
	}
	same := func(stage string) {
		t.Helper()
		if loaded.Len() != idx.Len() || loaded.Deleted() != idx.Deleted() || loaded.NextID() != idx.NextID() {
			t.Fatalf("%s: loaded len/deleted/next %d/%d/%d, saved %d/%d/%d", stage,
				loaded.Len(), loaded.Deleted(), loaded.NextID(), idx.Len(), idx.Deleted(), idx.NextID())
		}
		a, b := idx.NewSearcher(), loaded.NewSearcher()
		for qi, q := range queries {
			var sa, sb Stats
			ra, err := a.SearchOpts(q, 10, WithStats(&sa))
			if err != nil {
				t.Fatal(err)
			}
			rb, err := b.SearchOpts(q, 10, WithStats(&sb))
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(ra, rb) {
				t.Fatalf("%s, query %d: loaded answers %v, saved %v", stage, qi, rb, ra)
			}
			if sa != sb {
				t.Fatalf("%s, query %d: loaded did the work %+v, saved %+v", stage, qi, sb, sa)
			}
		}
		if !bytes.Equal(save(t, idx), save(t, loaded)) {
			t.Fatalf("%s: the loaded index saves to different bytes than the one it was loaded from", stage)
		}
	}
	same("as loaded")
	mutate(idx, more[750:], 13)
	mutate(loaded, more[750:], 13)
	same("after the same further adds and deletes")
}

// writerFunc adapts a function to io.Writer.
type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestWriteToWhileAdding pins what a snapshot taken beside a writer holds:
// the index as it stood when WriteTo copied it, rows, trees and id bound
// together. Vectors are added when WriteTo first touches its writer — after
// the copy — so the file holds none of them. Once they are replayed the way
// the op log replays them, the loaded index must save to the live index's
// bytes: the stored trees were loaded and grown, not rebuilt.
func TestWriteToWhileAdding(t *testing.T) {
	const n, dim, extras = 8000, 16, 4
	data, _ := clusteredData(n, dim, 91)
	extra, _ := clusteredData(extras, dim, 92)
	idx, err := New(data, Options{K: 6, L: 3, T: 40, Seed: 91})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	added := false
	if _, err := idx.WriteTo(writerFunc(func(p []byte) (int, error) {
		if !added {
			added = true
			for _, v := range extra {
				if _, err := idx.Add(v); err != nil {
					t.Fatal(err)
				}
			}
		}
		return buf.Write(p)
	})); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NextID() != n || loaded.Len() != n || idx.NextID() != n+extras {
		t.Fatalf("loaded NextID %d Len %d: want the index as copied, %d rows", loaded.NextID(), loaded.Len(), n)
	}
	for i, v := range extra {
		loaded.set.Replay([]wal.Record{{Op: wal.OpAdd, ID: uint64(n + i), Row: v}})
	}
	if !bytes.Equal(save(t, loaded), save(t, idx)) {
		t.Fatal("loaded index, caught up, does not save to the live index's bytes")
	}
}

// TestAddsBeforeRepackKeepTheRows: the rows Read loads and the rows a
// compaction gathers have room for a full tail of adds, so none of the adds
// before the next repack copies every row under the write lock: the rows'
// backing array stays where it is. (NewFromFlat's zero-copy rows pay that
// copy once, at the first Add.)
func TestAddsBeforeRepackKeepTheRows(t *testing.T) {
	const n, dim = 3000, 16
	data, _ := clusteredData(n, dim, 43)
	more := randVecs(4000, dim, 43)
	idx, err := New(data, Options{K: 6, L: 3, T: 40, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(bytes.NewReader(save(t, idx)))
	if err != nil {
		t.Fatal(err)
	}
	m := loaded.set.Params().Tree.Resolved().MaxEntries
	tail := m * m // core.Index.UnpackedCap
	rows := func() *float32 { return &loaded.set.Snapshot().Flat[0] }
	// Replayed adds schedule no repack, so nothing but the adds touches the
	// rows.
	fill := func(stage string) {
		t.Helper()
		before := rows()
		recs := make([]wal.Record, tail-1)
		for i := range recs {
			g := loaded.NextID() + i
			recs[i] = wal.Record{Op: wal.OpAdd, ID: uint64(g), Row: more[g-n]}
		}
		loaded.set.Replay(recs)
		if loaded.ShardStats()[0].Unpacked != tail-1 || rows() != before {
			t.Fatalf("%s: %d adds moved the rows", stage, tail-1)
		}
	}
	fill("after Read")
	loaded.Compact()
	fill("after Compact")
}

// TestReadChecksGlobalIDs: the header's nextID is a floor, so an id above it
// loads and raises the bound — but every id must still be allocatable and
// the ids must ascend, so none appears twice.
func TestReadChecksGlobalIDs(t *testing.T) {
	const n = 40
	data, _ := clusteredData(n, 4, 94)
	idx, err := New(data, Options{K: 2, L: 1, Seed: 94})
	if err != nil {
		t.Fatal(err)
	}
	raw := save(t, idx)
	// The part follows the header: rows, r0, then its ids 0, 1, 2, …
	first := v4HeaderLen + 8 + 8
	last := first + 8*(n-1)
	if got := binary.LittleEndian.Uint64(raw[last:]); got != n-1 {
		t.Fatalf("the last id reads %d: the layout this test patches moved", got)
	}
	for _, c := range []struct {
		at   int
		id   uint64
		want string // "" loads
	}{
		{last, 1000, ""},
		{last, maxVectors, "outside the id space"},
		{first + 8, 0, "global id 0 follows 0"},
		{first + 8, 7, "global id 2 follows 7"},
	} {
		bad := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint64(bad[c.at:], c.id)
		loaded, err := Read(bytes.NewReader(restamp(bad)))
		switch {
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Fatalf("id %d: err %v, want %q", c.id, err, c.want)
		case c.want == "" && (err != nil || loaded.NextID() != int(c.id)+1):
			t.Fatalf("id %d above the header's bound: err %v, NextID %d", c.id, err, loaded.NextID())
		}
	}
}

// TestReadBoundsHeaderWords forges the header words a load used to
// believe — K, L, T, C, W0, the layout behind the hash family, and a
// part's initial radius — re-stamps the checksum, and requires an error
// naming the word, not a panic, a runaway allocation or a ladder of 10¹⁵
// rounds. Values at the limits load and work.
func TestReadBoundsHeaderWords(t *testing.T) {
	data, _ := clusteredData(60, 4, 96)
	idx, err := New(data, Options{K: 4, L: 2, Seed: 96})
	if err != nil {
		t.Fatal(err)
	}
	raw := save(t, idx)
	// Offsets in the v4 header (see persist.go), then the part's r0.
	const partsAt, dimAt, kAt, lAt, tAt, cAt, w0At, r0At = 8, 20, 36, 40, 44, 48, 56, v4HeaderLen + 8
	u32 := func(at int, v uint32) func([]byte) {
		return func(b []byte) { binary.LittleEndian.PutUint32(b[at:], v) }
	}
	f64 := func(at int, v float64) func([]byte) {
		return func(b []byte) { binary.LittleEndian.PutUint64(b[at:], math.Float64bits(v)) }
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name  string
		forge func([]byte)
		want  string // "" loads
	}{
		{"no parts", u32(partsAt, 0), "holds 0"},
		{"dim = 0", u32(dimAt, 0), "implausible dim 0"},
		{"K = 0", u32(kAt, 0), "K = 0"},
		{"K = 65", u32(kAt, 65), "K = 65"},
		{"L = 2³²−1", u32(lAt, math.MaxUint32), "L = 4294967295"},
		{"a 2³²-float hash family", func(b []byte) { u32(kAt, 64)(b); u32(lAt, 64)(b); u32(dimAt, 1<<20)(b) }, "hash coefficients"},
		{"T = 0", u32(tAt, 0), "T = 0"},
		{"T = 2²⁰+1", u32(tAt, maxT+1), "T = 1048577"},
		{"T = 2²⁰", u32(tAt, maxT), ""},
		{"C = 1+10⁻¹⁵", f64(cAt, 1+1e-15), "approximation ratio"},
		{"C = 1.009", f64(cAt, 1.009), "approximation ratio"},
		{"C = 65", f64(cAt, 65), "approximation ratio"},
		{"C = NaN", f64(cAt, nan), "approximation ratio"},
		{"C = +Inf", f64(cAt, inf), "approximation ratio"},
		{"C = 1.01", f64(cAt, minC), ""},
		{"C = 64", f64(cAt, maxC), ""},
		{"W0 = 0", f64(w0At, 0), "W0"},
		{"W0 = NaN", f64(w0At, nan), "W0"},
		{"W0 = +Inf", f64(w0At, inf), "W0"},
		{"W0 = −Inf", f64(w0At, -inf), "W0"},
		{"r0 = 0", f64(r0At, 0), "initial radius"},
		{"r0 = NaN", f64(r0At, nan), "initial radius"},
		{"r0 = +Inf", f64(r0At, inf), "initial radius"},
		{"r0 = −1", f64(r0At, -1), "initial radius"},
	} {
		bad := append([]byte(nil), raw...)
		c.forge(bad)
		loaded, err := Read(bytes.NewReader(restamp(bad)))
		switch {
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: Read returned %v, want an error mentioning %q", c.name, err, c.want)
		case c.want == "" && err != nil:
			t.Errorf("%s: a value at the limit was refused: %v", c.name, err)
		case c.want == "":
			mustBeUsable(t, loaded)
		}
	}
	// A header is all a file needs to reach the hash family: 80 bytes asking
	// for 64·64·2¹⁸ coefficients (4 GiB).
	header := append([]byte(nil), raw[:v4HeaderLen]...)
	u32(kAt, maxKL)(header)
	u32(lAt, maxKL)(header)
	u32(dimAt, 1<<18)(header)
	if _, err := Read(bytes.NewReader(header)); err == nil || !strings.Contains(err.Error(), "hash coefficients") {
		t.Errorf("a v4 header asking for a 4 GiB hash family: Read returned %v", err)
	}
}

// TestOptionsWithinFileLimits: New refuses what Read would refuse, so every
// index it builds saves to a file that loads — here at the limits.
func TestOptionsWithinFileLimits(t *testing.T) {
	data, queries := clusteredData(80, 4, 97)
	for _, c := range []struct {
		opts Options
		want string // "" builds
	}{
		{Options{K: 65}, "K = 65"},
		{Options{L: 65}, "L = 65"},
		{Options{T: maxT + 1}, "T = 1048577"},
		{Options{C: 1.005}, "approximation ratio"},
		{Options{C: 65}, "approximation ratio"},
		{Options{C: math.NaN()}, "approximation ratio"},
		{Options{W0: math.NaN()}, "W0"},
		{Options{W0: math.Inf(1)}, "W0"},
		{Options{K: 64, L: 1, T: maxT, C: maxC, W0: 1e-3, Seed: 97}, ""},
		{Options{K: 1, L: 64, T: 1, C: minC, Seed: 97}, ""},
	} {
		idx, err := New(data, c.opts)
		if c.want != "" {
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%+v: New returned %v, want an error mentioning %q", c.opts, err, c.want)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%+v: %v", c.opts, err)
		}
		loaded, err := Read(bytes.NewReader(save(t, idx)))
		if err != nil {
			t.Fatalf("%+v: the index saves to a file Read refuses: %v", c.opts, err)
		}
		for _, q := range queries[:10] {
			if a, b := search(t, idx, q, 3), search(t, loaded, q, 3); !slices.Equal(a, b) {
				t.Fatalf("%+v: loaded index answers %v, saved one %v", c.opts, b, a)
			}
		}
	}
}

// TestOptionsSurviveReload holds every field of Options to one of two
// lists. A persisted field is in the file: an index built with a
// non-default value for each of them reloads with the same parameters and
// answers bit for bit as it did. An operational or inert field shapes only
// the running process (durability, compaction) or nothing at all, so a
// reload has nothing to keep. A field in neither list is a build-time knob
// a save would drop without a word.
func TestOptionsSurviveReload(t *testing.T) {
	persisted := []string{"C", "W0", "K", "L", "T", "Seed", "Metric", "NormBound"}
	operational := []string{"CompactFraction", "Dim", "Sync", "SyncEvery", "CheckpointEvery", "Parallelism", "Shards"}
	opts := Options{C: 2, W0: 7, K: 6, L: 3, T: 20, Seed: 101, Metric: InnerProduct, NormBound: 1000}
	v := reflect.ValueOf(opts)
	for i := range v.NumField() {
		switch name := v.Type().Field(i).Name; {
		case slices.Contains(operational, name):
		case !slices.Contains(persisted, name):
			t.Errorf("Options.%s is neither persisted nor operational: a reload drops it", name)
		case v.Field(i).IsZero():
			t.Errorf("Options.%s is persisted but the test builds with its default", name)
		}
	}
	data, queries := clusteredData(600, 16, 101)
	idx, err := New(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(bytes.NewReader(save(t, idx)))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Params() != idx.Params() {
		t.Fatalf("reloaded %+v, built %+v", loaded.Params(), idx.Params())
	}
	for _, q := range append(queries, data[:40]...) {
		if a, b := search(t, idx, q, 10), search(t, loaded, q, 10); !slices.Equal(a, b) {
			t.Fatalf("reloaded index answers %v, built one %v", b, a)
		}
	}
}

// TestReadSizesArraysByBytesPresent: a count is a claim. A file that
// announces a terabyte of vectors, or of tree slots, and then ends must cost
// an error and a bounded allocation, not the announced one.
func TestReadSizesArraysByBytesPresent(t *testing.T) {
	data, _ := clusteredData(40, 4, 5)
	idx, err := New(data, Options{K: 4, L: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	raw := save(t, idx)
	const rowsAt = v4HeaderLen // the part's row count
	headsAt := v4HeaderLen + 16 + 40*8 + 5 + 40*4*4 + 4 + 4
	for name, at := range map[string]int{"rows": rowsAt, "tree slots": headsAt} {
		hostile := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint64(hostile[at:], 1<<38)
		if name == "rows" {
			binary.LittleEndian.PutUint64(hostile[12:], 1<<39) // nextID, so that the rows fit the id space
		}
		// Once from a reader that knows its length (the count is refused
		// against it), once from one that does not (the array grows only as
		// bytes arrive).
		for _, in := range []io.Reader{bytes.NewReader(hostile), io.MultiReader(bytes.NewReader(hostile))} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Read(in)
			runtime.ReadMemStats(&after)
			if err == nil || !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("%s: a file announcing 2^38 elements and ending: %v, want an unexpected EOF", name, err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
				t.Fatalf("%s: reading a %d-byte file allocated %d MB", name, len(hostile), grew>>20)
			}
		}
	}
}

// TestCodecByteCopyMatchesElementLoops holds the byte copy that moves the
// file's float32 and int32 arrays on a little-endian host to the
// per-element loops a big-endian host runs: both write the same bytes, and
// either reads them back, from any kind of source, to the same bits. The
// values include every float32 class the conversion could disturb and
// both int32 extremes; the lengths include the empty array, one element, an
// odd count, and arrays longer than an encoder buffer-full and than the
// decoder's 1 MB read buffer, so both directions handle arrays in pieces
// that split them.
func TestCodecByteCopyMatchesElementLoops(t *testing.T) {
	special := []uint32{
		0x7fc00000, 0xffc00000, 0x7fc12345, // quiet NaNs, one with a payload
		0x7f800001, 0xff800123, 0x7fbfffff, // signalling NaNs
		0x00000000, 0x80000000, // ±0; as an int32, 0 and MinInt32
		0x00000001, 0x007fffff, 0x80000001, // subnormals
		0x7f800000, 0xff800000, // ±Inf
		0x7f7fffff, 0x3f800000, 0xbf800000,
		0x7fffffff, // a NaN; as an int32, MaxInt32
	}
	rng := rand.New(rand.NewSource(35))
	for _, n := range []int{0, 1, 7, ioChunk/4 + 1, 1<<18 + 3} {
		words := make([]uint32, n)
		for i := range words {
			words[i] = rng.Uint32()
			if i < len(special) {
				words[i] = special[i]
			}
		}
		fs := make([]float32, n)
		is := make([]int32, n)
		for i, w := range words {
			fs[i] = math.Float32frombits(w)
			is[i] = int32(w)
		}

		var files [2][]byte
		var crcs [2]uint32
		for i, raw := range []bool{false, true} {
			var buf bytes.Buffer
			e := &encoder{w: &buf, buf: make([]byte, 0, ioChunk), raw: raw}
			e.u32(0xfeedface)
			e.floatArray(fs)
			e.intArray(is)
			e.flush()
			if e.err != nil {
				t.Fatal(e.err)
			}
			files[i], crcs[i] = buf.Bytes(), e.crc
		}
		if !bytes.Equal(files[0], files[1]) || crcs[0] != crcs[1] {
			t.Fatalf("n = %d: the byte copy writes other bytes than the element loops", n)
		}
		file := files[0]

		sources := map[string]func() io.Reader{
			"sized":      func() io.Reader { return bytes.NewReader(file) },
			"unsized":    func() io.Reader { return io.MultiReader(bytes.NewReader(file)) },
			"slowReader": func() io.Reader { return &slowReader{data: file} },
		}
		for name, src := range sources {
			for _, raw := range []bool{false, true} {
				d := newDecoder(src())
				d.raw = raw
				var marker uint32
				var counts [2]uint64
				d.fixed(&marker, &counts[0])
				gotF := d.floats(counts[0], 0)
				d.fixed(&counts[1])
				gotI := d.ints(counts[1])
				if d.err != nil || marker != 0xfeedface || d.crc != crcs[0] {
					t.Fatalf("n = %d, %s, raw %v: marker %x crc %08x (want %08x), err %v", n, name, raw, marker, d.crc, crcs[0], d.err)
				}
				if len(gotF) != n || len(gotI) != n {
					t.Fatalf("n = %d, %s, raw %v: read %d floats and %d ints", n, name, raw, len(gotF), len(gotI))
				}
				for i := range n {
					if math.Float32bits(gotF[i]) != math.Float32bits(fs[i]) || gotI[i] != is[i] {
						t.Fatalf("n = %d, %s, raw %v, element %d: read %08x and %d, wrote %08x and %d",
							n, name, raw, i, math.Float32bits(gotF[i]), gotI[i], math.Float32bits(fs[i]), is[i])
					}
				}
			}
		}
	}
}

// benchIndex is BenchmarkReadIndex's and BenchmarkWriteTo's index, at the
// overlap-128 workload's shape: 100 000 Gaussian rows of dimension 128,
// K×L = 10×5, one shard, built once per process (~1 s).
var benchIndex = sync.OnceValues(func() (*Index, error) {
	const n, dim = 100_000, 128
	rng := rand.New(rand.NewSource(128))
	flat := make([]float32, n*dim)
	for i := range flat {
		flat[i] = float32(rng.NormFloat64())
	}
	return NewFromFlat(flat, n, dim, Options{K: 10, L: 5, Seed: 128})
})

// BenchmarkReadIndex times Read of a 100k × 128 index file (51 MB of rows,
// 27 MB of trees) from the file itself, which tells Read its length, and
// through a 1 MB bufio.Reader, which does not — the benchmark's reopen.
func BenchmarkReadIndex(b *testing.B) {
	idx, err := benchIndex()
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "index.dblsh")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := idx.WriteTo(f); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		wrap func(*os.File) io.Reader
	}{
		{"sized", func(f *os.File) io.Reader { return f }},
		{"unsized", func(f *os.File) io.Reader { return bufio.NewReaderSize(f, 1<<20) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			for b.Loop() {
				f, err := os.Open(path)
				if err != nil {
					b.Fatal(err)
				}
				loaded, err := Read(c.wrap(f))
				f.Close()
				if err != nil || loaded.Len() != idx.Len() {
					b.Fatalf("loaded %v, err %v", loaded, err)
				}
			}
		})
	}
}

// BenchmarkWriteTo times WriteTo of the same index into io.Discard: the
// snapshot and the encoding, without the disk.
func BenchmarkWriteTo(b *testing.B) {
	idx, err := benchIndex()
	if err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		if _, err := idx.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
