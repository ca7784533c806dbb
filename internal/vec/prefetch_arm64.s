#include "textflag.h"

// func prefetchLines(row []float32, lines int)
TEXT ·prefetchLines(SB), NOSPLIT, $0-32
	MOVD row_base+0(FP), R0
	MOVD lines+24(FP), R1
	CMP  $0, R1
	BLE  done
loop:
	PRFM (R0), PLDL1KEEP
	ADD  $64, R0
	SUBS $1, R1
	BNE  loop
done:
	RET

// func prefetchIDLines(row []int32, lines int)
TEXT ·prefetchIDLines(SB), NOSPLIT, $0-32
	JMP ·prefetchLines(SB)
