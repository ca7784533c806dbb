// Package lsh implements the p-stable locality-sensitive hash families used
// by DB-LSH and its baselines.
//
// Two families are provided:
//
//   - Projection — the dynamic family h(o) = a·o of Eq. 3, where a is drawn
//     from the standard (2-stable) normal distribution. Two points collide
//     when their projections differ by at most w/2; the bucket is chosen at
//     query time, which is what makes DB-LSH's query-centric bucketing
//     possible.
//   - Bucketed — the static E2LSH family h(o) = ⌊(a·o+b)/w⌋ of Eq. 1 with a
//     fixed width w and a random offset b ∈ [0,w).
//
// A Compound bundles K independent projections into one K-dimensional hash
// G(o) = (h1(o),…,hK(o)) (Eq. 6); a Family holds L independent compounds
// (Eq. 7). All randomness is drawn from a caller-seeded source so index
// construction is reproducible.
package lsh

import (
	"fmt"
	"math/rand"

	"dblsh/internal/vec"
)

// Projection is a single dynamic LSH function h(o) = a·o.
type Projection struct {
	a []float32
}

// NewProjection draws a projection vector of dimension d with entries from
// N(0,1) using rng.
func NewProjection(d int, rng *rand.Rand) Projection {
	a := make([]float32, d)
	for i := range a {
		a[i] = float32(rng.NormFloat64())
	}
	return Projection{a: a}
}

// Dim returns the input dimensionality.
func (p Projection) Dim() int { return len(p.a) }

// Hash returns h(o) = a·o.
func (p Projection) Hash(o []float32) float64 { return vec.Dot(p.a, o) }

// Bucketed is a static E2LSH function h(o) = ⌊(a·o+b)/w⌋.
type Bucketed struct {
	proj Projection
	b    float64
	w    float64
}

// NewBucketed draws a static hash function for dimension d and width w.
func NewBucketed(d int, w float64, rng *rand.Rand) Bucketed {
	if w <= 0 {
		panic(fmt.Sprintf("lsh: bucket width must be positive, got %v", w))
	}
	return Bucketed{proj: NewProjection(d, rng), b: rng.Float64() * w, w: w}
}

// Hash returns the bucket index of o.
func (h Bucketed) Hash(o []float32) int64 {
	v := (h.proj.Hash(o) + h.b) / h.w
	// Floor toward −∞ for negatives.
	iv := int64(v)
	if v < 0 && float64(iv) != v {
		iv--
	}
	return iv
}

// Width returns the bucket width w.
func (h Bucketed) Width() float64 { return h.w }

// Compound is a K-dimensional compound hash G(o) = (h1(o),…,hK(o)) over the
// dynamic family. The projection vectors are stored contiguously so hashing
// one point touches one cache-friendly block.
type Compound struct {
	k, d int
	a    []float32 // k rows of d entries each
}

// NewCompound draws K independent projections of dimension d.
func NewCompound(k, d int, rng *rand.Rand) *Compound {
	if k <= 0 || d <= 0 {
		panic(fmt.Sprintf("lsh: invalid compound shape K=%d d=%d", k, d))
	}
	return &Compound{k: k, d: d, a: drawNormal(k*d, rng)}
}

// drawNormal returns n float32 entries drawn from N(0,1) with rng, in order.
func drawNormal(n int, rng *rand.Rand) []float32 {
	a := make([]float32, n)
	for i := range a {
		a[i] = float32(rng.NormFloat64())
	}
	return a
}

// K returns the number of component hash functions.
func (g *Compound) K() int { return g.k }

// Dim returns the input dimensionality.
func (g *Compound) Dim() int { return g.d }

// Hash computes G(o), appending the K projected coordinates to dst and
// returning the extended slice. Pass dst = nil to allocate. The K dot
// products go through vec.DotRows, hashChunk rows per call, into a buffer
// on Hash's own stack.
func (g *Compound) Hash(dst []float32, o []float32) []float32 {
	if len(o) != g.d {
		panic(fmt.Sprintf("lsh: point dim %d, compound expects %d", len(o), g.d))
	}
	var buf [hashChunk]float64
	for lo := 0; lo < g.k; lo += hashChunk {
		out := buf[:min(hashChunk, g.k-lo)]
		vec.DotRows(out, g.a[lo*g.d:(lo+len(out))*g.d], o)
		for _, v := range out {
			dst = append(dst, float32(v))
		}
	}
	return dst
}

// hashChunk is how many rows of a compound Hash passes to one DotRows call:
// all of them at the K the index accepts (at most 64).
const hashChunk = 64

// Project maps an entire dataset into this compound's K-dimensional space,
// returning an n×K matrix.
func (g *Compound) Project(data *vec.Matrix) *vec.Matrix {
	if data.Dim() != g.d {
		panic(fmt.Sprintf("lsh: data dim %d, compound expects %d", data.Dim(), g.d))
	}
	n := data.Rows()
	out := vec.NewMatrix(n, g.k)
	for i := 0; i < n; i++ {
		row := out.Row(i)[:0]
		g.Hash(row, data.Row(i))
	}
	return out
}

// Family is L independent compound hashes G1,…,GL (Eq. 7). Their K·L
// projection vectors are the rows of one (K·L)×d matrix, compound after
// compound, and each Compound is a view of its K rows, so Hash reads a
// point once for all L of them.
type Family struct {
	a         []float32 // K·L rows of d entries each
	compounds []*Compound
}

// NewFamily draws L independent compounds with K functions of dimension d,
// all from the given seed. The same seed always yields the same family: the
// K·L·d entries are drawn in the order L calls of NewCompound on one rng
// would draw them, and have the same values.
func NewFamily(l, k, d int, seed int64) *Family {
	if l <= 0 || k <= 0 || d <= 0 {
		panic(fmt.Sprintf("lsh: invalid family shape L=%d K=%d d=%d", l, k, d))
	}
	f := &Family{
		a:         drawNormal(l*k*d, rand.New(rand.NewSource(seed))),
		compounds: make([]*Compound, l),
	}
	for i := range f.compounds {
		f.compounds[i] = &Compound{k: k, d: d, a: f.a[i*k*d : (i+1)*k*d : (i+1)*k*d]}
	}
	return f
}

// L returns the number of compounds.
func (f *Family) L() int { return len(f.compounds) }

// K returns the per-compound hash count.
func (f *Family) K() int { return f.compounds[0].k }

// Dim returns the input dimensionality.
func (f *Family) Dim() int { return f.compounds[0].d }

// Compound returns the i-th compound hash Gi.
func (f *Family) Compound(i int) *Compound { return f.compounds[i] }

// Hash computes G1(o),…,GL(o) with one vec.DotRows call over all K·L
// projection rows and writes them to out, which must hold K·L entries:
// out[i·K:(i+1)·K] is Gi+1(o), whose float32 narrowing is what
// Compound(i).Hash returns, bit for bit.
func (f *Family) Hash(out []float64, o []float32) {
	if len(o) != f.Dim() || len(out) != len(f.a)/f.Dim() {
		panic(fmt.Sprintf("lsh: hash of a dim-%d point into %d outputs, family is %d×%d over dim %d",
			len(o), len(out), f.L(), f.K(), f.Dim()))
	}
	vec.DotRows(out, f.a, o)
}
