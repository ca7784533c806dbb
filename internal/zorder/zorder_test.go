package zorder

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEncodeSimple2D(t *testing.T) {
	e := NewEncoder(2, 2)
	// coords (x=0b10, y=0b01): interleave MSB-first: x1 y1 x0 y0 = 1 0 0 1.
	// Stored left-aligned in a 64-bit word.
	code := e.Encode([]uint32{0b10, 0b01})
	want := uint64(0b1001) << 60
	if code[0] != want {
		t.Fatalf("code = %064b, want %064b", code[0], want)
	}
}

func TestCompare(t *testing.T) {
	e := NewEncoder(3, 4)
	a := e.Encode([]uint32{1, 2, 3})
	b := e.Encode([]uint32{1, 2, 4})
	if Compare(a, a) != 0 {
		t.Fatal("Compare(a,a) != 0")
	}
	if Compare(a, b) == 0 {
		t.Fatal("distinct coords compare equal")
	}
	if Compare(a, b)+Compare(b, a) != 0 {
		t.Fatal("Compare not antisymmetric")
	}
}

func TestLLCPSelf(t *testing.T) {
	e := NewEncoder(4, 8)
	c := e.Encode([]uint32{10, 20, 30, 40})
	if got := e.LLCP(c, c); got != e.Bits() {
		t.Fatalf("LLCP(c,c) = %d, want %d", got, e.Bits())
	}
}

func TestLLCPNeighbors(t *testing.T) {
	e := NewEncoder(2, 8)
	// Coordinates that differ only in the lowest bit of one dim share all
	// but the last interleaving round.
	a := e.Encode([]uint32{0b10101010, 0b01010101})
	b := e.Encode([]uint32{0b10101010, 0b01010100})
	llcp := e.LLCP(a, b)
	if llcp != e.Bits()-1 {
		t.Fatalf("LLCP = %d, want %d", llcp, e.Bits()-1)
	}
}

func TestLLCPDisjoint(t *testing.T) {
	e := NewEncoder(2, 4)
	a := e.Encode([]uint32{0b1000, 0})
	b := e.Encode([]uint32{0b0000, 0})
	if got := e.LLCP(a, b); got != 0 {
		t.Fatalf("LLCP = %d, want 0", got)
	}
}

func TestMultiWordCodes(t *testing.T) {
	// 12 dims × 10 bits = 120 bits = 2 words.
	e := NewEncoder(12, 10)
	if words := len(e.Encode(make([]uint32, 12))); words != 2 {
		t.Fatalf("codes of %d words", words)
	}
	rng := rand.New(rand.NewSource(1))
	a := make([]uint32, 12)
	b := make([]uint32, 12)
	for i := range a {
		a[i] = uint32(rng.Intn(1024))
		b[i] = a[i]
	}
	ca := e.Encode(a)
	cb := e.Encode(b)
	if Compare(ca, cb) != 0 {
		t.Fatal("equal coords compare unequal")
	}
	// Change the lowest bit of one dim: LLCP must stay high.
	b[11] ^= 1
	cb = e.Encode(b)
	if got := e.LLCP(ca, cb); got < e.Bits()-12 {
		t.Fatalf("LLCP = %d too small", got)
	}
}

// Property: Z-order preserves equality and is injective on the grid.
func TestEncodeInjective(t *testing.T) {
	e := NewEncoder(3, 6)
	f := func(x1, y1, z1, x2, y2, z2 uint8) bool {
		c1 := []uint32{uint32(x1) & 63, uint32(y1) & 63, uint32(z1) & 63}
		c2 := []uint32{uint32(x2) & 63, uint32(y2) & 63, uint32(z2) & 63}
		same := c1[0] == c2[0] && c1[1] == c2[1] && c1[2] == c2[2]
		return (Compare(e.Encode(c1), e.Encode(c2)) == 0) == same
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: sorting by Z-order groups cells sharing high-order bits — the
// LLCP of adjacent sorted codes is no smaller than the LLCP of codes far
// apart in the sorted order... verified statistically via monotone pairs.
func TestSortedOrderLocality(t *testing.T) {
	e := NewEncoder(2, 8)
	rng := rand.New(rand.NewSource(3))
	codes := make([]Code, 200)
	for i := range codes {
		codes[i] = e.Encode([]uint32{uint32(rng.Intn(256)), uint32(rng.Intn(256))})
	}
	sort.Slice(codes, func(i, j int) bool { return Compare(codes[i], codes[j]) < 0 })
	// Adjacent LLCP in sorted order must be ≥ LLCP to any further element:
	// llcp(codes[i], codes[i+1]) ≥ llcp(codes[i], codes[j]) for j > i+1.
	for i := 0; i+2 < len(codes); i++ {
		adj := e.LLCP(codes[i], codes[i+1])
		for j := i + 2; j < len(codes); j += 37 {
			if far := e.LLCP(codes[i], codes[j]); far > adj {
				t.Fatalf("LLCP not monotone in sorted order: adj=%d far=%d", adj, far)
			}
		}
	}
}

func TestLLCPBitExact(t *testing.T) {
	// Cross-check LLCP against a naive bit-by-bit scan.
	e := NewEncoder(5, 9)
	rng := rand.New(rand.NewSource(17))
	naive := func(a, b Code) int {
		n := 0
		for i := 0; i < e.Bits(); i++ {
			word, off := i/64, uint(63-i%64)
			if (a[word]>>off)&1 != (b[word]>>off)&1 {
				break
			}
			n++
		}
		return n
	}
	for trial := 0; trial < 100; trial++ {
		ca := make([]uint32, 5)
		cb := make([]uint32, 5)
		for i := range ca {
			ca[i] = uint32(rng.Intn(512))
			cb[i] = uint32(rng.Intn(512))
		}
		a, b := e.Encode(ca), e.Encode(cb)
		if got, want := e.LLCP(a, b), naive(a, b); got != want {
			t.Fatalf("LLCP = %d, want %d", got, want)
		}
	}
}

func TestEncoderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEncoder(0, 4)
}

func TestEncodeWrongArity(t *testing.T) {
	e := NewEncoder(2, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Encode([]uint32{1})
}

func BenchmarkEncodeK12B10(b *testing.B) {
	e := NewEncoder(12, 10)
	coords := make([]uint32, 12)
	for i := range coords {
		coords[i] = uint32(i * 37)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Encode(coords)
	}
}
