// AVX2/FMA distance kernels (the "avx2" row of the dispatch table).
//
// Every kernel accumulates in float64 like the pure-Go kernels: float32
// inputs are widened with VCVTPS2PD before any arithmetic, products are
// fused into 256-bit float64 accumulators with VFMADD231PD, and each kernel
// has ONE fixed summation order — the vector lanes are independent
// accumulator chains (like the unrolled kernels' s0..s3), reduced at the
// end in a fixed tree: ((acc0+acc1)+(acc2+acc3)) vector-wise, then
// (lane0+lane2)+(lane1+lane3) horizontally, then the scalar tail terms in
// index order. The order depends only on len, never on data or bounds, so
// the kernel is internally deterministic and a surviving row's value is
// bound-independent (the bound only triggers the early +Inf return; it
// never reroutes accumulation).
//
// Unlike the Go kernels, differences are taken AFTER widening (float64
// subtraction of exactly-converted float32s is exact), which makes these
// kernels agree with the float64 scalar reference more closely than the
// float32-differencing Go kernels do. Scalar tails use unfused SSE mul+add
// after VZEROUPPER; fixed order, so still deterministic.
//
// squaredDistAVX2 and squaredDistBoundedAVX2 deliberately share the exact
// same accumulation structure — 16-component FMA stripes, the same
// reduction tree, the same unfused scalar tail for the len%16 remainder —
// so a surviving bounded row is bit-identical to the unbounded squared
// distance at EVERY length, not just stripe multiples. The ladder relies
// on that equality (a verified neighbor's reported distance must equal an
// exact recomputation with the same kernel); keep the two routines
// structurally in lockstep when editing either. dotAVX2 has no bounded
// counterpart, so it keeps an extra 4-wide cleanup loop before its tail.
// dot3AVX2 is dotAVX2 run over three rows at once against one x, and is
// kept in lockstep with it the same way: a row's chains, cleanup,
// reduction and tail are dotAVX2's, only x's widening is shared.
//
// All memory accesses are unaligned-safe (VEX loads and VCVTPS2PD m128
// forms carry no alignment requirement), so gathered Matrix rows and
// arbitrary subslice views are fine.

#include "textflag.h"

DATA absmask<>+0(SB)/8, $0x7FFFFFFFFFFFFFFF
GLOBL absmask<>(SB), RODATA|NOPTR, $8

// unitGuard (0.5002) as float64 bits; keep in sync with quant.go.
DATA unitguard<>+0(SB)/8, $0x3FE001A36E2EB1C4
GLOBL unitguard<>(SB), RODATA|NOPTR, $8

// func dotAVX2(a, b []float32) float64
TEXT ·dotAVX2(SB), NOSPLIT, $0-56
	MOVQ a_base+0(FP), SI
	MOVQ b_base+24(FP), DX
	MOVQ a_len+8(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	CMPQ CX, $16
	JL   dot4
dot16:
	VCVTPS2PD (SI), Y4
	VCVTPS2PD (DX), Y5
	VFMADD231PD Y5, Y4, Y0
	VCVTPS2PD 16(SI), Y6
	VCVTPS2PD 16(DX), Y7
	VFMADD231PD Y7, Y6, Y1
	VCVTPS2PD 32(SI), Y4
	VCVTPS2PD 32(DX), Y5
	VFMADD231PD Y5, Y4, Y2
	VCVTPS2PD 48(SI), Y6
	VCVTPS2PD 48(DX), Y7
	VFMADD231PD Y7, Y6, Y3
	ADDQ $64, SI
	ADDQ $64, DX
	SUBQ $16, CX
	CMPQ CX, $16
	JGE  dot16
dot4:
	CMPQ CX, $4
	JL   dotreduce
	VCVTPS2PD (SI), Y4
	VCVTPS2PD (DX), Y5
	VFMADD231PD Y5, Y4, Y0
	ADDQ $16, SI
	ADDQ $16, DX
	SUBQ $4, CX
	JMP  dot4
dotreduce:
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VADDPD Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0
	VHADDPD X0, X0, X0
	VZEROUPPER
dottail:
	TESTQ CX, CX
	JZ    dotdone
	CVTSS2SD (SI), X4
	CVTSS2SD (DX), X5
	MULSD X5, X4
	ADDSD X4, X0
	ADDQ  $4, SI
	ADDQ  $4, DX
	DECQ  CX
	JMP   dottail
dotdone:
	MOVSD X0, ret+48(FP)
	RET

// func dot3AVX2(a0, a1, a2, x []float32) (s0, s1, s2 float64)
//
// dotAVX2 of x against three rows at once. Per 16-float stripe each of x's
// four chunks is widened once and FMA'd into the matching chain of all
// three rows — row r's chain c lives in Y(4r+c) — so every row sees exactly
// dotAVX2's chains, its 4-wide cleanup into chain 0, its reduction tree and
// its unfused scalar tail, and each sum is dotAVX2's value bit for bit.
// Register use: Y0-Y11 accumulators, Y12-Y13 widened x chunks, Y14-Y15
// widened weights; SI, R11 and R12 walk the three rows, BX walks x.
TEXT ·dot3AVX2(SB), NOSPLIT, $0-120
	MOVQ a0_base+0(FP), SI
	MOVQ a1_base+24(FP), R11
	MOVQ a2_base+48(FP), R12
	MOVQ x_base+72(FP), BX
	MOVQ x_len+80(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	CMPQ CX, $16
	JL   dot3c4
dot3s16:
	VCVTPS2PD (BX), Y12
	VCVTPS2PD (SI), Y14
	VFMADD231PD Y14, Y12, Y0
	VCVTPS2PD (R11), Y15
	VFMADD231PD Y15, Y12, Y4
	VCVTPS2PD (R12), Y14
	VFMADD231PD Y14, Y12, Y8
	VCVTPS2PD 16(BX), Y13
	VCVTPS2PD 16(SI), Y15
	VFMADD231PD Y15, Y13, Y1
	VCVTPS2PD 16(R11), Y14
	VFMADD231PD Y14, Y13, Y5
	VCVTPS2PD 16(R12), Y15
	VFMADD231PD Y15, Y13, Y9
	VCVTPS2PD 32(BX), Y12
	VCVTPS2PD 32(SI), Y14
	VFMADD231PD Y14, Y12, Y2
	VCVTPS2PD 32(R11), Y15
	VFMADD231PD Y15, Y12, Y6
	VCVTPS2PD 32(R12), Y14
	VFMADD231PD Y14, Y12, Y10
	VCVTPS2PD 48(BX), Y13
	VCVTPS2PD 48(SI), Y15
	VFMADD231PD Y15, Y13, Y3
	VCVTPS2PD 48(R11), Y14
	VFMADD231PD Y14, Y13, Y7
	VCVTPS2PD 48(R12), Y15
	VFMADD231PD Y15, Y13, Y11
	ADDQ $64, BX
	ADDQ $64, SI
	ADDQ $64, R11
	ADDQ $64, R12
	SUBQ $16, CX
	CMPQ CX, $16
	JGE  dot3s16
dot3c4:
	CMPQ CX, $4
	JL   dot3reduce
	VCVTPS2PD (BX), Y12
	VCVTPS2PD (SI), Y14
	VFMADD231PD Y14, Y12, Y0
	VCVTPS2PD (R11), Y15
	VFMADD231PD Y15, Y12, Y4
	VCVTPS2PD (R12), Y14
	VFMADD231PD Y14, Y12, Y8
	ADDQ $16, BX
	ADDQ $16, SI
	ADDQ $16, R11
	ADDQ $16, R12
	SUBQ $4, CX
	JMP  dot3c4
dot3reduce:
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VADDPD Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0
	VHADDPD X0, X0, X0
	VADDPD Y5, Y4, Y4
	VADDPD Y7, Y6, Y6
	VADDPD Y6, Y4, Y4
	VEXTRACTF128 $1, Y4, X5
	VADDPD X5, X4, X4
	VHADDPD X4, X4, X4
	VADDPD Y9, Y8, Y8
	VADDPD Y11, Y10, Y10
	VADDPD Y10, Y8, Y8
	VEXTRACTF128 $1, Y8, X9
	VADDPD X9, X8, X8
	VHADDPD X8, X8, X8
	VZEROUPPER
dot3tail:
	TESTQ CX, CX
	JZ    dot3done
	CVTSS2SD (BX), X12
	CVTSS2SD (SI), X13
	MULSD X12, X13
	ADDSD X13, X0
	CVTSS2SD (R11), X13
	MULSD X12, X13
	ADDSD X13, X4
	CVTSS2SD (R12), X13
	MULSD X12, X13
	ADDSD X13, X8
	ADDQ  $4, BX
	ADDQ  $4, SI
	ADDQ  $4, R11
	ADDQ  $4, R12
	DECQ  CX
	JMP   dot3tail
dot3done:
	MOVSD X0, s0+96(FP)
	MOVSD X4, s1+104(FP)
	MOVSD X8, s2+112(FP)
	RET

// func squaredDistAVX2(a, b []float32) float64
TEXT ·squaredDistAVX2(SB), NOSPLIT, $0-56
	MOVQ a_base+0(FP), SI
	MOVQ b_base+24(FP), DX
	MOVQ a_len+8(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	CMPQ CX, $16
	JL   sqreduce
sq16:
	VCVTPS2PD (SI), Y4
	VCVTPS2PD (DX), Y5
	VSUBPD Y5, Y4, Y4
	VFMADD231PD Y4, Y4, Y0
	VCVTPS2PD 16(SI), Y6
	VCVTPS2PD 16(DX), Y7
	VSUBPD Y7, Y6, Y6
	VFMADD231PD Y6, Y6, Y1
	VCVTPS2PD 32(SI), Y4
	VCVTPS2PD 32(DX), Y5
	VSUBPD Y5, Y4, Y4
	VFMADD231PD Y4, Y4, Y2
	VCVTPS2PD 48(SI), Y6
	VCVTPS2PD 48(DX), Y7
	VSUBPD Y7, Y6, Y6
	VFMADD231PD Y6, Y6, Y3
	ADDQ $64, SI
	ADDQ $64, DX
	SUBQ $16, CX
	CMPQ CX, $16
	JGE  sq16
sqreduce:
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VADDPD Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0
	VHADDPD X0, X0, X0
	VZEROUPPER
sqtail:
	TESTQ CX, CX
	JZ    sqdone
	CVTSS2SD (SI), X4
	CVTSS2SD (DX), X5
	SUBSD X5, X4
	MULSD X4, X4
	ADDSD X4, X0
	ADDQ  $4, SI
	ADDQ  $4, DX
	DECQ  CX
	JMP   sqtail
sqdone:
	MOVSD X0, ret+48(FP)
	RET

// func squaredDistBoundedAVX2(a, b []float32, bound float64) float64
//
// Early abandon is tested once per 16-component stripe: after each stripe's
// FMAs the four accumulators are reduced to a scalar running total and
// compared against bound — the accumulators themselves are never touched by
// the check, so abandoning is the ONLY effect the bound has and a surviving
// row's value is bit-identical under every bound, +Inf included.
TEXT ·squaredDistBoundedAVX2(SB), NOSPLIT, $0-64
	MOVQ  a_base+0(FP), SI
	MOVQ  b_base+24(FP), DX
	MOVQ  a_len+8(FP), CX
	MOVSD bound+48(FP), X15
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD X8, X8, X8
	CMPQ CX, $16
	JL   bdreduce
bdstripe:
	VCVTPS2PD (SI), Y4
	VCVTPS2PD (DX), Y5
	VSUBPD Y5, Y4, Y4
	VFMADD231PD Y4, Y4, Y0
	VCVTPS2PD 16(SI), Y6
	VCVTPS2PD 16(DX), Y7
	VSUBPD Y7, Y6, Y6
	VFMADD231PD Y6, Y6, Y1
	VCVTPS2PD 32(SI), Y4
	VCVTPS2PD 32(DX), Y5
	VSUBPD Y5, Y4, Y4
	VFMADD231PD Y4, Y4, Y2
	VCVTPS2PD 48(SI), Y6
	VCVTPS2PD 48(DX), Y7
	VSUBPD Y7, Y6, Y6
	VFMADD231PD Y6, Y6, Y3
	ADDQ $64, SI
	ADDQ $64, DX
	SUBQ $16, CX

	// Running total = reduce(acc0..acc3); abandon when it exceeds bound.
	VADDPD Y1, Y0, Y8
	VADDPD Y3, Y2, Y9
	VADDPD Y9, Y8, Y8
	VEXTRACTF128 $1, Y8, X9
	VADDPD X9, X8, X8
	VHADDPD X8, X8, X8
	VUCOMISD X15, X8
	JA   bdabandonv

	CMPQ CX, $16
	JGE  bdstripe
	JMP  bdtailentry
bdreduce:
	// len < 16 from the start: the accumulators are all zero, so the
	// running total is too; fall through to the scalar loop.
	VXORPD X8, X8, X8
bdtailentry:
	VZEROUPPER
bdtail:
	TESTQ CX, CX
	JZ    bdfinal
	CVTSS2SD (SI), X4
	CVTSS2SD (DX), X5
	SUBSD X5, X4
	MULSD X4, X4
	ADDSD X4, X8
	ADDQ  $4, SI
	ADDQ  $4, DX
	DECQ  CX
	JMP   bdtail
bdfinal:
	UCOMISD X15, X8
	JA    bdabandon
	MOVSD X8, ret+56(FP)
	RET
bdabandonv:
	VZEROUPPER
bdabandon:
	MOVQ $0x7FF0000000000000, AX // +Inf
	MOVQ AX, ret+56(FP)
	RET

// func quantLBAVX2(u []float64, codes []int8) float64
//
// The int8 path of the asymmetric quantized lower bound: 8 codes per
// iteration are sign-extended with VPMOVSXBD, widened to float64 with
// VCVTDQ2PD, and folded as max(0, |code−u| − unitGuard)² into two
// accumulator vectors (8 independent chains). abs is a sign-mask VANDPD;
// the clamp is VMAXPD against zero, which also maps a NaN term to 0 —
// sound for a lower bound (QuantizeQueryUnits already maps NaN query
// components to 0 anyway).
TEXT ·quantLBAVX2(SB), NOSPLIT, $0-56
	MOVQ u_base+0(FP), DI
	MOVQ codes_base+24(FP), SI
	MOVQ u_len+8(FP), CX
	VBROADCASTSD absmask<>(SB), Y12
	VBROADCASTSD unitguard<>(SB), Y13
	VXORPD Y14, Y14, Y14
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	CMPQ CX, $8
	JL   qreduce
qloop8:
	VPMOVSXBD (SI), Y4
	VEXTRACTI128 $1, Y4, X5
	VCVTDQ2PD X4, Y6
	VCVTDQ2PD X5, Y7
	VSUBPD (DI), Y6, Y6
	VSUBPD 32(DI), Y7, Y7
	VANDPD Y12, Y6, Y6
	VANDPD Y12, Y7, Y7
	VSUBPD Y13, Y6, Y6
	VSUBPD Y13, Y7, Y7
	VMAXPD Y14, Y6, Y6
	VMAXPD Y14, Y7, Y7
	VFMADD231PD Y6, Y6, Y0
	VFMADD231PD Y7, Y7, Y1
	ADDQ $8, SI
	ADDQ $64, DI
	SUBQ $8, CX
	CMPQ CX, $8
	JGE  qloop8
qreduce:
	VADDPD Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0
	VHADDPD X0, X0, X0
	VZEROUPPER
qtail:
	// X12/X13/X14 keep the low lanes of the mask/guard/zero vectors
	// across VZEROUPPER.
	TESTQ CX, CX
	JZ    qdone
	MOVBQSX (SI), AX
	CVTSQ2SD AX, X4
	MOVSD (DI), X5
	SUBSD X5, X4
	ANDPD X12, X4
	SUBSD X13, X4
	MAXSD X14, X4
	MULSD X4, X4
	ADDSD X4, X0
	ADDQ  $1, SI
	ADDQ  $8, DI
	DECQ  CX
	JMP   qtail
qdone:
	MOVSD X0, ret+48(FP)
	RET
