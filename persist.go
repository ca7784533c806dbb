package dblsh

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"unsafe"

	"dblsh/internal/core"
	"dblsh/internal/metric"
	"dblsh/internal/rstar"
	"dblsh/internal/shard"
)

// Index persistence.
//
// The file holds the index, not a recipe for it: the configuration, every
// shard's vectors, id map and tombstones, and every shard's L R*-trees as
// the flat arenas they live in (internal/rstar). Loading is a read — the
// arenas go straight into the slices a tree runs on, and nothing is
// projected, sorted or packed. A reopened index is therefore the index
// that was saved, trees grown by Adds included, and answers and grows
// exactly as that one would have. It is also most of what starting up used
// to cost: at 100 000 × 128, rebuilding the trees from the vectors was 92 %
// of a load. The price is bytes: the projected coordinates are L·K/d of the
// vectors (+45 % at d = 128 with K×L = 10×5, +6 % at d = 960).
//
// The stored vectors are the *internal* (transformed) representation —
// unit-normalized under Cosine, norm-bound-scaled and augmented by one
// dimension under InnerProduct — and the norm bound is all the state the
// boundary transform needs to keep accepting Adds and mapping scores after
// a round-trip.
//
// v4 layout (little-endian), followed by a CRC-32 (IEEE) of everything
// before it. An array is its element count as a uint64, then the elements.
//
//	magic   [8]byte  "DBLSHv4\n"
//	shards  uint32
//	nextID  uint64   global-id-space bound when the write began; a floor
//	dim     uint32   internal dimensionality (user dim + 1 under ip)
//	metric  uint32   0 euclidean, 1 cosine, 2 inner product
//	bound   float64  inner-product norm bound M; 0 otherwise
//	K, L, T uint32
//	C, W0   float64
//	seed    int64    base seed (shard i hashes with seed+i)
//	M, m    uint32   R*-tree node capacity and minimum fill
//	then per shard:
//	  rows    uint64
//	  r0      float64
//	  globals rows × uint64   local id → global id
//	  deleted ⌈rows/8⌉ bytes  tombstone bitmap, LSB-first
//	  data    rows·dim × float32
//	  trees   uint32          L
//	  then per tree (rstar.Arena; S slots, stride = M rounded up to 8):
//	    root   uint32
//	    heads  array of int32    2 per slot: entry count, level<<16 | sort axis
//	    ents   array of int32    M+1 per slot: row ids (leaf) or child slots
//	    rects  array of float32  2·K per slot: the node's MBR, min then max
//	    blocks array of float32  K·stride per slot: the window-test blocks
//	crc     uint32
//
// Each shard is written as it stood at its turn, rows and trees together, so
// a file written while vectors were being added can hold ids at or above the
// header's nextID: the id-space bound of the loaded index is the larger of
// the header's and one past the largest id in the file.
//
// A file is outside input and its checksum is not a signature, so a load
// trusts none of it. Arrays are sized by what has actually been read, never
// by a count alone; the shape limits, id routing and duplicate-id checks
// below apply to every shard; and rstar.Load proves every arena a tree over
// exactly its shard's rows before anything can traverse it.
//
// This is the one format a build reads. Files of earlier versions (v1–v3,
// and v4 files whose shards hold no trees) are refused with an error that
// names the version or the missing trees; an earlier build re-saves them.

var magicV4 = [8]byte{'D', 'B', 'L', 'S', 'H', 'v', '4', '\n'}

// ioChunk is the size of the one buffer each direction encodes and decodes
// through: large enough that a 50 MB payload is a few hundred calls, small
// enough to stay in cache between the copy, the checksum and the codec.
const ioChunk = 256 << 10

// nativeLE is true when this host lays out a float32 or an int32 in memory
// as the file does, least significant byte first. The codec then moves those
// arrays as the bytes they already are; a big-endian host converts them one
// element at a time, and those loops are the oracle the tests hold the byte
// copy to.
var nativeLE = binary.NativeEndian.Uint32([]byte{1, 0, 0, 0}) == 1

// byteView returns the memory of v as bytes, aliasing it. It is the
// package's one use of unsafe.
func byteView[T float32 | int32](v []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 4*len(v))
}

// encoder buffers, checksums and writes the file. The first write error
// sticks and turns every later call into a no-op. n counts the bytes w
// actually accepted — the io.WriterTo contract — not bytes merely parked in
// the buffer, which on an error path may never reach w at all. raw selects
// the byte copy for 32-bit arrays (nativeLE).
type encoder struct {
	w   io.Writer
	buf []byte
	crc uint32
	n   int64
	err error
	raw bool
}

// flush checksums the buffered bytes and hands them to w.
func (e *encoder) flush() {
	if e.err == nil {
		e.crc = crc32.Update(e.crc, crc32.IEEETable, e.buf)
		var n int
		n, e.err = e.w.Write(e.buf)
		e.n += int64(n)
	}
	e.buf = e.buf[:0]
}

// room returns n bytes of buffer to encode into, flushing first if needed.
func (e *encoder) room(n int) []byte {
	if len(e.buf)+n > cap(e.buf) {
		e.flush()
	}
	e.buf = e.buf[:len(e.buf)+n]
	return e.buf[len(e.buf)-n:]
}

func (e *encoder) bytes(b []byte) {
	for len(b) > 0 {
		n := min(len(b), ioChunk)
		copy(e.room(n), b[:n])
		b = b[n:]
	}
}

func (e *encoder) u32(v uint32)  { binary.LittleEndian.PutUint32(e.room(4), v) }
func (e *encoder) u64(v uint64)  { binary.LittleEndian.PutUint64(e.room(8), v) }
func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }

// floats and ints encode 32-bit elements: as their bytes when raw, else a
// buffer-full at a time; the Array forms put the element count first.
func (e *encoder) floats(v []float32) {
	if e.raw {
		e.bytes(byteView(v))
		return
	}
	for len(v) > 0 {
		n := min(len(v), ioChunk/4)
		b := e.room(4 * n)
		for i, f := range v[:n] {
			binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(f))
		}
		v = v[n:]
	}
}

func (e *encoder) ints(v []int32) {
	if e.raw {
		e.bytes(byteView(v))
		return
	}
	for len(v) > 0 {
		n := min(len(v), ioChunk/4)
		b := e.room(4 * n)
		for i, x := range v[:n] {
			binary.LittleEndian.PutUint32(b[4*i:], uint32(x))
		}
		v = v[n:]
	}
}

func (e *encoder) floatArray(v []float32) { e.u64(uint64(len(v))); e.floats(v) }
func (e *encoder) intArray(v []int32)     { e.u64(uint64(len(v))); e.ints(v) }

// WriteTo serializes the index in the v4 format: configuration, shard
// layout, vectors, tombstones and trees. It implements io.WriterTo and is
// safe to call while the index serves concurrent traffic: each shard is
// snapshotted under its own read lock, briefly, before being serialized with
// no locks held — searches and mutations proceed throughout. The file holds
// every row resident when the call started; rows added and tombstones laid
// while it runs are included if they reach their shard before its turn.
func (idx *Index) WriteTo(w io.Writer) (int64, error) {
	e := &encoder{w: w, buf: make([]byte, 0, ioChunk), raw: nativeLE}
	cfg := idx.set.Params()
	tree := cfg.Tree.Resolved()

	e.bytes(magicV4[:])
	e.u32(uint32(idx.set.Shards()))
	e.u64(uint64(idx.set.NextID()))
	e.u32(uint32(idx.set.Dim())) // internal dim: the stored rows are transformed
	e.u32(uint32(cfg.Metric))
	e.f64(cfg.MetricNormBound)
	e.u32(uint32(cfg.K))
	e.u32(uint32(cfg.L))
	e.u32(uint32(cfg.T))
	e.f64(cfg.C)
	e.f64(cfg.W0)
	e.u64(uint64(cfg.Seed))
	e.u32(uint32(tree.MaxEntries))
	e.u32(uint32(tree.MinEntries))
	for s := 0; s < idx.set.Shards() && e.err == nil; s++ {
		// One shard at a time: the snapshot holds only this shard's read
		// lock, and the disk writes below hold no lock at all.
		part := idx.set.SnapshotShard(s)
		e.u64(uint64(part.Rows))
		e.f64(part.R0)
		for _, g := range part.Globals {
			e.u64(uint64(g))
		}
		bitmap := make([]byte, (part.Rows+7)/8)
		for i, dead := range part.Deleted {
			if dead && i < part.Rows {
				bitmap[i/8] |= 1 << (i % 8)
			}
		}
		e.bytes(bitmap)
		e.floats(part.Flat)
		e.u32(uint32(len(part.Trees)))
		for _, a := range part.Trees {
			e.u32(uint32(a.Root))
			e.intArray(a.Heads)
			e.intArray(a.Ents)
			e.floatArray(a.Rects)
			e.floatArray(a.Blocks)
		}
	}
	e.flush()
	crc := e.crc
	e.u32(crc)
	e.flush()
	if e.err != nil {
		return e.n, fmt.Errorf("dblsh: write index: %w", e.err)
	}
	return e.n, nil // everything, CRC trailer included, has reached w
}

// Read deserializes an index previously written with WriteTo. The file is
// loaded as it is — trees adopted, nothing projected or packed — after being
// checked from the checksum down to every node of every tree. Files of
// earlier versions are refused.
func Read(r io.Reader) (*Index, error) {
	d := newDecoder(r)
	var magic [8]byte
	d.take(8, 8, func(b []byte) { copy(magic[:], b) })
	if d.err != nil {
		return nil, d.err
	}
	switch m := string(magic[:]); {
	case m == "DBLSHv1\n", m == "DBLSHv2\n", m == "DBLSHv3\n":
		return nil, fmt.Errorf("dblsh: this build no longer reads %s index files: re-save with an earlier build", m[5:7])
	case magic != magicV4:
		return nil, fmt.Errorf("dblsh: bad magic %q (not a DB-LSH index file?)", magic)
	}
	var (
		shards, dim, mk, k, l, t uint32
		maxEntries, minEntries   uint32
		rows, nextID, seed       uint64
		r0                       float64
		cfg                      core.Config
	)
	d.fixed(&shards, &nextID, &dim, &mk, &cfg.MetricNormBound, &k, &l, &t, &cfg.C, &cfg.W0, &seed, &maxEntries, &minEntries)
	if d.err != nil {
		return nil, d.err
	}
	cfg.Tree = rstar.Options{MaxEntries: int(maxEntries), MinEntries: int(minEntries)}
	// Resolved clamps the capacity to the cursor's 64-entry bitmasks.
	if cfg.Tree.Resolved() != cfg.Tree {
		return nil, fmt.Errorf("dblsh: implausible tree node capacity %d (minimum fill %d)", maxEntries, minEntries)
	}
	if !metric.Kind(mk).Valid() {
		return nil, fmt.Errorf("dblsh: unknown metric id %d (file from a newer version?)", mk)
	}
	if nextID > maxVectors {
		return nil, fmt.Errorf("dblsh: implausible layout: %d ids", nextID)
	}
	cfg.Metric, cfg.K, cfg.L, cfg.T, cfg.Seed = metric.Kind(mk), int(k), int(l), int(t), int64(seed)
	if err := checkConfig(int(shards), int(dim), cfg); err != nil {
		return nil, err
	}
	met, err := metric.New(cfg.Metric, cfg.MetricNormBound)
	if err != nil {
		return nil, fmt.Errorf("dblsh: bad metric state: %w", err)
	}
	udim := met.UserDim(int(dim)) // dim is the internal dimensionality
	if udim <= 0 {
		return nil, fmt.Errorf("dblsh: internal dim %d leaves no user dimensions under %s", dim, cfg.Metric)
	}

	parts := make([]shard.Part, shards)
	var total uint64
	for i := range parts {
		part := &parts[i]
		d.what = "shard header"
		d.fixed(&rows, &r0)
		part.Globals = d.globals(rows, i, int(shards))
		if len(part.Globals) > 0 {
			// The header's bound was written before the shards were
			// copied; Adds that landed meanwhile are in the file.
			nextID = max(nextID, uint64(slices.Max(part.Globals))+1)
		}
		part.Deleted = d.tombstones(rows)
		// The ladder starts every query at r0.
		if d.err == nil && (!(r0 > 0) || math.IsInf(r0, 1)) { // NaN fails too
			return nil, fmt.Errorf("dblsh: shard %d of %d rows has initial radius %v", i, rows, r0)
		}
		part.Rows, part.R0 = int(rows), r0
		total += rows
		d.what = "vectors"
		part.Flat = d.floats(rows * uint64(dim))
		d.what = fmt.Sprintf("trees of shard %d", i)
		part.Trees = d.trees(cfg.L)
		if d.err != nil {
			return nil, d.err
		}
	}
	d.what = "checksum"
	want, got := d.crc, uint32(0)
	if d.fixed(&got); d.err != nil {
		return nil, d.err
	}
	if got != want {
		return nil, fmt.Errorf("dblsh: checksum mismatch (file corrupted): got %08x want %08x", got, want)
	}
	if total > nextID {
		return nil, fmt.Errorf("dblsh: shard rows exceed the id space (%d > %d)", total, nextID)
	}
	// total == 0 is legitimate: an index whose every vector was deleted and
	// compacted away still round-trips (its id space and layout survive).
	set, err := shard.Restore(int(dim), int(nextID), 0, cfg, parts)
	if err != nil {
		return nil, fmt.Errorf("dblsh: malformed index file: %w", err)
	}
	return &Index{set: set, dim: udim, met: met}, nil
}

// Plausibility limits on an index's shape and structural parameters.
const (
	maxVectors = 1 << 40
	maxDim     = 1 << 20
	maxShards  = 1 << 16
	maxKL      = 64
	maxT       = 1 << 20
	minC       = 1.01
	maxC       = 64
	maxHash    = 1 << 28 // hash-family coefficients over all shards: 1 GiB of float32
)

// checkConfig is the one plausibility check on an index's shape and
// resolved structural parameters. newIndex applies it to Options and Read
// to a file's header, so every file this build writes also loads, and no
// header word can make a load allocate or a query loop without bound: each
// shard samples a hash family of L·K·dim floats, and the radius ladder
// climbs by a factor of C a round.
func checkConfig(shards, dim int, cfg core.Config) error {
	switch {
	case shards < 1 || shards > maxShards || dim < 1 || dim > maxDim:
		return fmt.Errorf("dblsh: implausible layout: %d shards of dim %d (limits %d, %d)", shards, dim, maxShards, maxDim)
	case cfg.K < 1 || cfg.K > maxKL || cfg.L < 1 || cfg.L > maxKL:
		return fmt.Errorf("dblsh: K = %d and L = %d must lie in [1, %d]", cfg.K, cfg.L, maxKL)
	case cfg.T < 1 || cfg.T > maxT:
		return fmt.Errorf("dblsh: candidate constant T = %d outside [1, %d]", cfg.T, maxT)
	case !(cfg.C >= minC && cfg.C <= maxC): // NaN fails too
		return fmt.Errorf("dblsh: approximation ratio C = %v outside [%v, %v]", cfg.C, minC, float64(maxC))
	case !(cfg.W0 > 0) || math.IsInf(cfg.W0, 1):
		return fmt.Errorf("dblsh: initial bucket width W0 = %v is not positive and finite", cfg.W0)
	case uint64(shards)*uint64(cfg.L)*uint64(cfg.K)*uint64(dim) > maxHash:
		return fmt.Errorf("dblsh: %d shards × L·K·dim = %d·%d·%d hash coefficients exceed %d", shards, cfg.L, cfg.K, dim, maxHash)
	}
	return nil
}

// decoder reads and checksums the file through one bufio.Reader, whose
// buffer is the only copy between the source and the decoded values: a
// 32-bit array is copied out of it as bytes when raw (nativeLE), and
// converted element by element otherwise. The first failure sticks, named
// after the part of the file being read, and turns every later read into a
// no-op that returns nothing.
type decoder struct {
	br    *bufio.Reader
	crc   uint32
	sized bool   // the input told its length:
	left  uint64 // what of it take has not consumed yet
	raw   bool
	what  string
	err   error
}

// newDecoder returns a decoder over r, asking r how much it holds if it is
// the kind of reader that can say (an *os.File, a bytes.Reader).
func newDecoder(r io.Reader) *decoder {
	d := &decoder{br: bufio.NewReaderSize(r, 1<<20), raw: nativeLE, what: "header"}
	if s, ok := r.(io.Seeker); ok {
		if at, err := s.Seek(0, io.SeekCurrent); err == nil {
			if end, err := s.Seek(0, io.SeekEnd); err == nil && end >= at {
				d.sized, d.left = true, uint64(end-at)
			}
			if _, err := s.Seek(at, io.SeekStart); err != nil {
				d.fail(err)
			}
		}
	}
	return d
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = fmt.Errorf("dblsh: read %s: %w", d.what, err)
	}
}

// take hands fn the next n bytes, checksummed, in pieces that are multiples
// of unit (which must divide n) — whatever the reader has buffered, so fn
// decodes them, or copies them into their array, straight from the buffer.
func (d *decoder) take(n uint64, unit int, fn func(b []byte)) {
	for n > 0 && d.err == nil {
		if d.br.Buffered() < unit {
			if _, err := d.br.Peek(unit); err != nil {
				if err == io.EOF {
					err = io.ErrUnexpectedEOF
				}
				d.fail(err)
				return
			}
		}
		b, _ := d.br.Peek(int(min(n, uint64(d.br.Buffered()/unit*unit))))
		d.crc = crc32.Update(d.crc, crc32.IEEETable, b)
		fn(b)
		n -= uint64(len(b))
		d.left -= min(d.left, uint64(len(b)))
		_, _ = d.br.Discard(len(b)) // cannot fail: b was buffered
	}
}

// fixed reads fixed-size little-endian fields.
func (d *decoder) fixed(vs ...interface{}) {
	for _, v := range vs {
		switch p := v.(type) {
		case *uint32:
			d.take(4, 4, func(b []byte) { *p = binary.LittleEndian.Uint32(b) })
		case *uint64:
			d.take(8, 8, func(b []byte) { *p = binary.LittleEndian.Uint64(b) })
		case *float64:
			d.take(8, 8, func(b []byte) { *p = math.Float64frombits(binary.LittleEndian.Uint64(b)) })
		}
	}
}

// firstAlloc caps what an array may allocate on the strength of its count
// alone when the input's length is unknown: 4 M elements. Past that it grows
// sixteenfold at a time, and only once the bytes to fill what it has have
// really arrived, so a short stream with a huge count costs a bounded
// allocation and an honest one a single copy of its first 16 MB. An input
// that can tell its length (a file) is taken at its word instead: an array
// is allocated once, at its size, and a count the file cannot back is a
// truncation.
const firstAlloc = 1 << 22

// array reads n elements of size bytes each; fill decodes the bytes of b
// into dst, one element per size bytes.
func array[T any](d *decoder, n uint64, size int, fill func(dst []T, b []byte)) []T {
	room := uint64(firstAlloc)
	if d.sized {
		room = d.left / uint64(size)
	}
	out := make([]T, 0, min(n, room))
	for uint64(len(out)) < n && d.err == nil {
		if len(out) == cap(out) {
			if d.sized {
				d.fail(io.ErrUnexpectedEOF)
				break
			}
			out = append(make([]T, 0, min(n, 16*uint64(cap(out)))), out...)
		}
		d.take(min(n-uint64(len(out)), uint64(cap(out)-len(out)))*uint64(size), size, func(b []byte) {
			k := len(out) + len(b)/size
			fill(out[len(out):k], b)
			out = out[:k]
		})
	}
	return out
}

func (d *decoder) floats(n uint64) []float32 {
	return array(d, n, 4, func(dst []float32, b []byte) {
		if d.raw {
			copy(byteView(dst), b)
			return
		}
		for i := range dst {
			dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
		}
	})
}

func (d *decoder) ints(n uint64) []int32 {
	return array(d, n, 4, func(dst []int32, b []byte) {
		if d.raw {
			copy(byteView(dst), b)
			return
		}
		for i := range dst {
			dst[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
		}
	})
}

// globals reads shard i's local-id → global-id map. Every id must be one an
// index can allocate (below maxVectors: the header's nextID is a floor, not
// a bound), route to the shard that holds it (g mod S == shard; Delete
// depends on it) and appear once: routing makes ids unique across shards
// and the check below within one, so a crafted file cannot yield undeletable
// vectors or duplicate result ids.
func (d *decoder) globals(rows uint64, i, shards int) []int {
	d.what = "id map"
	globals := array(d, rows, 8, func(dst []int, b []byte) {
		for j := range dst {
			// An id past the int range comes out negative and fails below.
			dst[j] = int(binary.LittleEndian.Uint64(b[8*j:]))
		}
	})
	if d.err != nil {
		return nil
	}
	ascending := true
	for j, g := range globals {
		if g < 0 || g >= maxVectors {
			d.err = fmt.Errorf("dblsh: global id %d outside the id space %d", uint64(g), uint64(maxVectors))
		} else if g%shards != i {
			d.err = fmt.Errorf("dblsh: global id %d does not route to shard %d of %d", g, i, shards)
		}
		ascending = ascending && (j == 0 || globals[j-1] < g)
	}
	// Ids are handed out in order, so a shard's map ascends unless Adds
	// raced each other into it; only then is there anything to search for.
	if !ascending && d.err == nil {
		sorted := slices.Clone(globals)
		slices.Sort(sorted)
		for j := 1; j < len(sorted); j++ {
			if sorted[j-1] == sorted[j] {
				d.err = fmt.Errorf("dblsh: duplicate global id %d in shard %d", sorted[j], i)
			}
		}
	}
	return globals
}

// tombstones reads a shard's tombstone bitmap; nil when nothing is dead.
func (d *decoder) tombstones(rows uint64) []bool {
	d.what = "tombstones"
	var deleted []bool
	local := uint64(0)
	d.take((rows+7)/8, 1, func(b []byte) {
		for _, bits := range b {
			for j := local; bits != 0 && j < rows; j, bits = j+1, bits>>1 {
				if bits&1 != 0 {
					if deleted == nil {
						deleted = make([]bool, rows)
					}
					deleted[j] = true
				}
			}
			local += 8
		}
	})
	return deleted
}

// trees reads a shard's tree arenas, exactly one per projected space.
func (d *decoder) trees(l int) []rstar.Arena {
	var n uint32
	d.fixed(&n)
	if int(n) != l {
		d.fail(fmt.Errorf("%d trees for L = %d (an earlier build wrote files without trees: re-save with it)", n, l))
	}
	var trees []rstar.Arena // grown as they arrive: n is only a claim
	for ; n > 0 && d.err == nil; n-- {
		var root uint32
		var counts [4]uint64
		d.fixed(&root, &counts[0])
		heads := d.ints(counts[0])
		d.fixed(&counts[1])
		ents := d.ints(counts[1])
		d.fixed(&counts[2])
		rects := d.floats(counts[2])
		d.fixed(&counts[3])
		trees = append(trees, rstar.Arena{Root: int32(root), Heads: heads, Ents: ents, Rects: rects, Blocks: d.floats(counts[3])})
	}
	return trees
}
