//go:build amd64

package vec

// prefetchLines hints the first lines cache lines of row into L1
// (PREFETCHT0). It takes the slice so no Go code needs unsafe; lines must
// not exceed prefetchLineCount(len(row)).
//
//go:noescape
func prefetchLines(row []float32, lines int)

// prefetchIDLines is prefetchLines for an int32 row; it jumps into the same
// stub, whose arguments it shares word for word.
//
//go:noescape
func prefetchIDLines(row []int32, lines int)
