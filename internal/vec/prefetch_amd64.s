#include "textflag.h"

// func prefetchLines(row []float32, lines int)
TEXT ·prefetchLines(SB), NOSPLIT, $0-32
	MOVQ row_base+0(FP), AX
	MOVQ lines+24(FP), CX
	TESTQ CX, CX
	JLE  done
loop:
	PREFETCHT0 (AX)
	ADDQ $64, AX
	DECQ CX
	JNZ  loop
done:
	RET

// func prefetchIDLines(row []int32, lines int)
TEXT ·prefetchIDLines(SB), NOSPLIT, $0-32
	JMP ·prefetchLines(SB)
