// AVX2 whole-node window tests (the "avx2" row of windowMask / boxMask; the
// contract is in mask.go). Both kernels walk the node one 8-lane vector at a
// time and, per vector, every axis: broadcast the axis's window bounds and
// center, compare, AND into the lane masks, keep a running maximum of the
// distance from the center. The compare predicates are NLT_US (5) and
// NGT_US (10), so a lane decides exactly !(v < lo) && !(v > hi), as the
// scalar code does, NaN included. Lanes ≥ n are cleared from the masks at
// the end; they hold +Inf, so they never lower a gap.

#include "textflag.h"

DATA absmask32<>+0(SB)/4, $0x7FFFFFFF
GLOBL absmask32<>(SB), RODATA|NOPTR, $4
DATA posinf32<>+0(SB)/4, $0x7F800000
GLOBL posinf32<>(SB), RODATA|NOPTR, $4

// func windowMaskAVX2(coords []float32, stride, n int, alive uint64, wlo, whi, center []float32) (in uint64, gap float32)
TEXT ·windowMaskAVX2(SB), NOSPLIT, $0-132
	MOVQ coords_base+0(FP), SI
	MOVQ stride+24(FP), R8
	SHLQ $2, R8                      // row pitch in bytes
	MOVQ wlo_base+48(FP), DI
	MOVQ whi_base+72(FP), DX
	MOVQ center_base+96(FP), BX
	MOVQ center_len+104(FP), R9      // k
	VBROADCASTSS absmask32<>(SB), Y15
	VBROADCASTSS posinf32<>(SB), Y14
	VMOVAPS Y14, Y13                 // smallest gap so far
	XORQ R10, R10                    // result mask
	XORQ CX, CX                      // first lane of this vector
wmvec:
	CMPQ CX, n+32(FP)
	JGE  wmdone
	VPCMPEQD Y0, Y0, Y0              // lanes inside so far: all
	VXORPS Y1, Y1, Y1                // max |v - c| so far
	MOVQ SI, R12                     // this vector in row 0
	XORQ R11, R11                    // axis
wmaxis:
	VMOVUPS (R12), Y2
	VBROADCASTSS (DI)(R11*4), Y3
	VBROADCASTSS (DX)(R11*4), Y4
	VBROADCASTSS (BX)(R11*4), Y5
	VCMPPS $5, Y3, Y2, Y6            // !(v < lo)
	VCMPPS $10, Y4, Y2, Y7           // !(v > hi)
	VANDPS Y6, Y0, Y0
	VANDPS Y7, Y0, Y0
	VSUBPS Y5, Y2, Y2
	VANDPS Y15, Y2, Y2               // |v - c|
	VMAXPS Y1, Y2, Y1                // a NaN distance keeps the running max
	ADDQ R8, R12
	INCQ R11
	CMPQ R11, R9
	JLT  wmaxis
	VMOVMSKPS Y0, AX
	SHLQ CX, AX
	ORQ  AX, R10
	VBLENDVPS Y0, Y14, Y1, Y1        // lanes inside the window: +Inf
	VMINPS Y1, Y13, Y13
	ADDQ $32, SI
	ADDQ $8, CX
	JMP  wmvec
wmdone:
	VEXTRACTF128 $1, Y13, X1
	VMINPS X1, X13, X13
	VPERMILPS $0x4E, X13, X1
	VMINPS X1, X13, X13
	VPERMILPS $0xB1, X13, X1
	VMINPS X1, X13, X13
	VZEROUPPER
	MOVQ $-1, AX                     // low n bits (n = 0 found no lane at all)
	MOVQ $64, CX
	SUBQ n+32(FP), CX
	SHRQ CX, AX
	ANDQ AX, R10
	ANDQ alive+40(FP), R10
	MOVQ R10, in+120(FP)
	MOVSS X13, gap+128(FP)
	RET

// func boxMaskAVX2(cmin, cmax []float32, stride, n int, wlo, whi, center, gaps []float32) (reach, inside uint64)
TEXT ·boxMaskAVX2(SB), NOSPLIT, $0-176
	MOVQ cmin_base+0(FP), SI
	MOVQ cmax_base+24(FP), DI
	MOVQ stride+48(FP), R8
	SHLQ $2, R8                      // row pitch in bytes
	MOVQ wlo_base+64(FP), R10
	MOVQ whi_base+88(FP), R11
	MOVQ center_base+112(FP), R12
	MOVQ gaps_base+136(FP), BX
	XORQ R9, R9                      // reach
	XORQ R13, R13                    // inside
	XORQ CX, CX                      // first lane of this vector
bmvec:
	CMPQ CX, n+56(FP)
	JGE  bmdone
	VPCMPEQD Y0, Y0, Y0              // lanes reached so far: all
	VMOVAPS Y0, Y1                   // lanes contained so far: all
	VXORPS Y2, Y2, Y2                // max(min - c, c - max, 0) so far
	LEAQ 0(CX*4), AX                 // this vector's byte offset in row 0
	XORQ DX, DX                      // axis
bmaxis:
	VMOVUPS (SI)(AX*1), Y3           // min
	VMOVUPS (DI)(AX*1), Y4           // max
	VBROADCASTSS (R10)(DX*4), Y5     // lo
	VBROADCASTSS (R11)(DX*4), Y6     // hi
	VBROADCASTSS (R12)(DX*4), Y7     // c
	VCMPPS $10, Y6, Y3, Y8           // !(min > hi)
	VCMPPS $5, Y5, Y4, Y9            // !(max < lo)
	VANDPS Y8, Y0, Y0
	VANDPS Y9, Y0, Y0
	VCMPPS $5, Y5, Y3, Y8            // !(min < lo)
	VCMPPS $10, Y6, Y4, Y9           // !(max > hi)
	VANDPS Y8, Y1, Y1
	VANDPS Y9, Y1, Y1
	VSUBPS Y7, Y3, Y3                // min - c
	VSUBPS Y4, Y7, Y4                // c - max
	VMAXPS Y2, Y3, Y2                // a NaN distance keeps the running max
	VMAXPS Y2, Y4, Y2
	ADDQ R8, AX
	INCQ DX
	CMPQ DX, center_len+120(FP)
	JLT  bmaxis
	VANDPS Y0, Y1, Y1                // contained only where reached
	VMOVUPS Y2, (BX)(CX*4)
	VMOVMSKPS Y0, AX
	VMOVMSKPS Y1, DX
	SHLQ CX, AX
	SHLQ CX, DX
	ORQ  AX, R9
	ORQ  DX, R13
	ADDQ $8, CX
	JMP  bmvec
bmdone:
	VZEROUPPER
	MOVQ $-1, AX                     // low n bits (n = 0 found no lane at all)
	MOVQ $64, CX
	SUBQ n+56(FP), CX
	SHRQ CX, AX
	ANDQ AX, R9
	ANDQ AX, R13
	MOVQ R9, reach+160(FP)
	MOVQ R13, inside+168(FP)
	RET
