// AVX2 whole-node window tests (the "avx2" row of windowMask / boxMask; the
// contract is in mask.go). Both kernels walk the node axis by axis over a
// group of four 8-lane vectors (32 lanes, the default node stride): each
// axis's window bounds and center are broadcast once per group, then every
// vector of the group is compared, ANDed into its lane masks and folded into
// its running maximum of the distance from the center. Groups run while the
// next 32 lanes fit in n rounded up to a vector (never past the stride, nor
// past the gaps BoxMask's caller provides); the vectors left over, and nodes
// too small for a group, take the one-vector loop, which broadcasts per
// vector. Both loops make the same compares, with the same VMAXPS operand
// order and the same axis order, so a lane's masks and distances do not
// depend on which loop tested it, and both fold vectors into the result in
// ascending lane order, so the gap's min runs in the order it always did. The
// compare predicates are NLT_US (5) and NGT_US (10), so a lane decides
// exactly !(v < lo) && !(v > hi), as the scalar code does, NaN included.
// Lanes ≥ n are cleared from the masks at the end; they hold +Inf, so they
// never lower a gap.

#include "textflag.h"

DATA absmask32<>+0(SB)/4, $0x7FFFFFFF
GLOBL absmask32<>(SB), RODATA|NOPTR, $4
DATA posinf32<>+0(SB)/4, $0x7F800000
GLOBL posinf32<>(SB), RODATA|NOPTR, $4

// WMLANE tests one vector of a group on the current axis: lane mask in
// mask, running max |v - c| in dist. Y8/Y9/Y10 hold the axis's lo/hi/c,
// Y11 and Y12 are scratch, Y15 the abs mask.
#define WMLANE(off, mask, dist) \
	VMOVUPS off(R12), Y11         \
	VCMPPS  $5, Y8, Y11, Y12      \
	VANDPS  Y12, mask, mask       \
	VCMPPS  $10, Y9, Y11, Y12     \
	VANDPS  Y12, mask, mask       \
	VSUBPS  Y10, Y11, Y11         \
	VANDPS  Y15, Y11, Y11         \
	VMAXPS  dist, Y11, dist

// WMFOLD folds one tested vector of lanes CX.. into the result mask R10 and
// the smallest gap Y13, then moves CX to the next vector.
#define WMFOLD(mask, dist) \
	VMOVMSKPS mask, AX            \
	SHLQ      CX, AX              \
	ORQ       AX, R10             \
	VBLENDVPS mask, Y14, dist, dist \
	VMINPS    dist, Y13, Y13      \
	ADDQ      $8, CX

// func windowMaskAVX2(coords []float32, stride, n int, alive uint64, wlo, whi, center []float32) (in uint64, gap float32)
TEXT ·windowMaskAVX2(SB), NOSPLIT, $0-132
	MOVQ coords_base+0(FP), SI
	MOVQ stride+24(FP), R8
	SHLQ $2, R8                      // row pitch in bytes
	MOVQ wlo_base+48(FP), DI
	MOVQ whi_base+72(FP), DX
	MOVQ center_base+96(FP), BX
	MOVQ center_len+104(FP), R9      // k
	MOVQ n+32(FP), R13
	ADDQ $7, R13
	ANDQ $-8, R13                    // lanes tested: n rounded up to a vector
	VBROADCASTSS absmask32<>(SB), Y15
	VBROADCASTSS posinf32<>(SB), Y14
	VMOVAPS Y14, Y13                 // smallest gap so far
	XORQ R10, R10                    // result mask
	XORQ CX, CX                      // first lane of this group or vector
wmgroup:
	LEAQ 32(CX), AX
	CMPQ AX, R13
	JGT  wmvec
	VPCMPEQD Y0, Y0, Y0              // lanes inside so far: all
	VMOVAPS Y0, Y1
	VMOVAPS Y0, Y2
	VMOVAPS Y0, Y3
	VXORPS Y4, Y4, Y4                // max |v - c| so far
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ SI, R12                     // this group in row 0
	XORQ R11, R11                    // axis
wmgaxis:
	VBROADCASTSS (DI)(R11*4), Y8
	VBROADCASTSS (DX)(R11*4), Y9
	VBROADCASTSS (BX)(R11*4), Y10
	WMLANE(0, Y0, Y4)
	WMLANE(32, Y1, Y5)
	WMLANE(64, Y2, Y6)
	WMLANE(96, Y3, Y7)
	ADDQ R8, R12
	INCQ R11
	CMPQ R11, R9
	JLT  wmgaxis
	WMFOLD(Y0, Y4)
	WMFOLD(Y1, Y5)
	WMFOLD(Y2, Y6)
	WMFOLD(Y3, Y7)
	ADDQ $128, SI
	JMP  wmgroup
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
	WMFOLD(Y0, Y1)
	ADDQ $32, SI
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

// BMLANE tests one vector of a group on the current axis: reach, inside and
// max(min - c, c - max, 0) so far in the three accumulators. Y12/Y13 hold
// the axis's lo/c and (SP) its hi (sixteen registers do not hold the twelve
// accumulators, three bounds and two scratch); Y14 and Y15 are scratch.
#define BMLANE(off, reach, inside, dist) \
	VMOVUPS off(SI)(AX*1), Y14    \
	VCMPPS  $10, (SP), Y14, Y15   \
	VANDPS  Y15, reach, reach     \
	VCMPPS  $5, Y12, Y14, Y15     \
	VANDPS  Y15, inside, inside   \
	VSUBPS  Y13, Y14, Y14         \
	VMAXPS  dist, Y14, dist       \
	VMOVUPS off(DI)(AX*1), Y14    \
	VCMPPS  $5, Y12, Y14, Y15     \
	VANDPS  Y15, reach, reach     \
	VCMPPS  $10, (SP), Y14, Y15   \
	VANDPS  Y15, inside, inside   \
	VSUBPS  Y14, Y13, Y14         \
	VMAXPS  dist, Y14, dist

// BMFOLD stores one tested vector's gaps at lane CX and ORs its masks into
// R9 (reach) and R13 (inside), then moves CX to the next vector.
#define BMFOLD(reach, inside, dist) \
	VANDPS    reach, inside, inside \
	VMOVUPS   dist, (BX)(CX*4)    \
	VMOVMSKPS reach, AX           \
	VMOVMSKPS inside, DX          \
	SHLQ      CX, AX              \
	SHLQ      CX, DX              \
	ORQ       AX, R9              \
	ORQ       DX, R13             \
	ADDQ      $8, CX

// func boxMaskAVX2(cmin, cmax []float32, stride, n int, wlo, whi, center, gaps []float32) (reach, inside uint64)
TEXT ·boxMaskAVX2(SB), NOSPLIT, $32-176
	MOVQ cmin_base+0(FP), SI
	MOVQ cmax_base+24(FP), DI
	MOVQ stride+48(FP), R8
	SHLQ $2, R8                      // row pitch in bytes
	MOVQ wlo_base+64(FP), R10
	MOVQ whi_base+88(FP), R11
	MOVQ center_base+112(FP), R12
	MOVQ gaps_base+136(FP), BX
	MOVQ n+56(FP), R14
	ADDQ $7, R14
	ANDQ $-8, R14                    // lanes tested: n rounded up to a vector
	XORQ R9, R9                      // reach
	XORQ R13, R13                    // inside
	XORQ CX, CX                      // first lane of this group or vector
bmgroup:
	LEAQ 32(CX), AX
	CMPQ AX, R14
	JGT  bmvec
	VPCMPEQD Y0, Y0, Y0              // lanes reached so far: all
	VMOVAPS Y0, Y1
	VMOVAPS Y0, Y2
	VMOVAPS Y0, Y3
	VMOVAPS Y0, Y4                   // lanes contained so far: all
	VMOVAPS Y0, Y5
	VMOVAPS Y0, Y6
	VMOVAPS Y0, Y7
	VXORPS Y8, Y8, Y8                // max(min - c, c - max, 0) so far
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	LEAQ 0(CX*4), AX                 // this group's byte offset in row 0
	XORQ DX, DX                      // axis
bmgaxis:
	VBROADCASTSS (R11)(DX*4), Y14    // hi
	VMOVUPS Y14, (SP)
	VBROADCASTSS (R10)(DX*4), Y12    // lo
	VBROADCASTSS (R12)(DX*4), Y13    // c
	BMLANE(0, Y0, Y4, Y8)
	BMLANE(32, Y1, Y5, Y9)
	BMLANE(64, Y2, Y6, Y10)
	BMLANE(96, Y3, Y7, Y11)
	ADDQ R8, AX
	INCQ DX
	CMPQ DX, center_len+120(FP)
	JLT  bmgaxis
	BMFOLD(Y0, Y4, Y8)
	BMFOLD(Y1, Y5, Y9)
	BMFOLD(Y2, Y6, Y10)
	BMFOLD(Y3, Y7, Y11)
	JMP  bmgroup
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
	BMFOLD(Y0, Y1, Y2)
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
