// Package zorder implements Morton (Z-order) codes over K-dimensional
// unsigned grid coordinates, plus the LLCP (length of the longest common
// prefix) primitive. It is the substrate for the LSB-Forest baseline
// (Tao et al., SIGMOD 2009): LSB quantizes each point's K bucketed hash
// values to a grid cell, interleaves the bits into a Z-order value, sorts
// the dataset by that value, and answers queries by bidirectional expansion
// around the query's Z-order position guided by LLCP.
package zorder

import (
	"fmt"
	"math/bits"
)

// Code is a Z-order value of arbitrary bit length, stored most-significant
// word first so lexicographic word comparison equals numeric comparison.
type Code []uint64

// Encoder interleaves K coordinates of bitsPerDim bits each.
type Encoder struct {
	k       int
	bits    int
	words   int
	totBits int
}

// NewEncoder returns an encoder for k dimensions at bitsPerDim bits each.
func NewEncoder(k, bitsPerDim int) *Encoder {
	if k <= 0 || bitsPerDim <= 0 || bitsPerDim > 32 {
		panic(fmt.Sprintf("zorder: invalid shape k=%d bits=%d", k, bitsPerDim))
	}
	tot := k * bitsPerDim
	return &Encoder{k: k, bits: bitsPerDim, words: (tot + 63) / 64, totBits: tot}
}

// Bits returns the total number of bits in a code.
func (e *Encoder) Bits() int { return e.totBits }

// Encode interleaves coords (length k, each < 2^bitsPerDim) into a Z-order
// code. Bit b of dimension j lands at global position b*k + j counted from
// the most significant interleaved bit, so higher-order bits of all
// dimensions come first — the property LLCP-based search relies on.
func (e *Encoder) Encode(coords []uint32) Code {
	if len(coords) != e.k {
		panic(fmt.Sprintf("zorder: got %d coords, want %d", len(coords), e.k))
	}
	code := make(Code, e.words)
	pos := 0 // global bit position from the MSB of the code
	for b := e.bits - 1; b >= 0; b-- {
		for j := 0; j < e.k; j++ {
			bit := (coords[j] >> uint(b)) & 1
			if bit != 0 {
				word := pos / 64
				off := 63 - pos%64
				// The first totBits of the words are used; trailing bits stay 0.
				code[word] |= 1 << uint(off)
			}
			pos++
		}
	}
	return code
}

// Compare returns -1, 0, or 1 as a is less than, equal to, or greater than b.
func Compare(a, b Code) int {
	for i := range a {
		if a[i] < b[i] {
			return -1
		}
		if a[i] > b[i] {
			return 1
		}
	}
	return 0
}

// LLCP returns the length in bits of the longest common prefix of a and b,
// capped at totBits.
func (e *Encoder) LLCP(a, b Code) int {
	common := 0
	for i := range a {
		x := a[i] ^ b[i]
		if x == 0 {
			common += 64
			continue
		}
		common += bits.LeadingZeros64(x)
		break
	}
	if common > e.totBits {
		common = e.totBits
	}
	return common
}
