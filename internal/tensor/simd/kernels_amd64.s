//go:build amd64

#include "textflag.h"

// AVX2/FMA/F16C kernel bodies, and AVX-512F bodies of the two that are
// FLOP-bound (the GEMM tile, the dot tile). Contracts shared by every kernel:
//   - n is a positive multiple of 8 (the Go wrappers guarantee it and
//     finish ragged tails scalar-side); the GEMM tiles and their packs take
//     kc >= 1.
//   - Loads and stores are unaligned (VMOVUPS/VMOVDQU): callers slice at
//     arbitrary offsets.
//   - Lane assignment is a pure function of element index, so results are
//     deterministic and thread-count independent.
//   - VZEROUPPER before every return (SSE/AVX transition stalls).
//   - In the AVX-512 bodies a VEX instruction can name only register 0-15 and
//     its write to Yn or Xn zeroes the rest of Zn: the reductions rely on
//     that, and nothing that is still accumulating is written that way.

// fp16 encode constants (8 x 16-bit lanes).
DATA enc_abs16<>+0(SB)/8, $0x7fff7fff7fff7fff
DATA enc_abs16<>+8(SB)/8, $0x7fff7fff7fff7fff
GLOBL enc_abs16<>(SB), RODATA|NOPTR, $16
DATA enc_inf16<>+0(SB)/8, $0x7c007c007c007c00
DATA enc_inf16<>+8(SB)/8, $0x7c007c007c007c00
GLOBL enc_inf16<>(SB), RODATA|NOPTR, $16
DATA enc_sign16<>+0(SB)/8, $0x8000800080008000
DATA enc_sign16<>+8(SB)/8, $0x8000800080008000
GLOBL enc_sign16<>(SB), RODATA|NOPTR, $16
DATA enc_qnan16<>+0(SB)/8, $0x7e007e007e007e00
DATA enc_qnan16<>+8(SB)/8, $0x7e007e007e007e00
GLOBL enc_qnan16<>(SB), RODATA|NOPTR, $16

// fp16 decode constants (8 x 32-bit lanes).
DATA dec_abs32<>+0(SB)/8, $0x00007fff00007fff
DATA dec_abs32<>+8(SB)/8, $0x00007fff00007fff
DATA dec_abs32<>+16(SB)/8, $0x00007fff00007fff
DATA dec_abs32<>+24(SB)/8, $0x00007fff00007fff
GLOBL dec_abs32<>(SB), RODATA|NOPTR, $32
DATA dec_inf32<>+0(SB)/8, $0x00007c0000007c00
DATA dec_inf32<>+8(SB)/8, $0x00007c0000007c00
DATA dec_inf32<>+16(SB)/8, $0x00007c0000007c00
DATA dec_inf32<>+24(SB)/8, $0x00007c0000007c00
GLOBL dec_inf32<>(SB), RODATA|NOPTR, $32
DATA dec_sign<>+0(SB)/8, $0x0000800000008000
DATA dec_sign<>+8(SB)/8, $0x0000800000008000
DATA dec_sign<>+16(SB)/8, $0x0000800000008000
DATA dec_sign<>+24(SB)/8, $0x0000800000008000
GLOBL dec_sign<>(SB), RODATA|NOPTR, $32
DATA dec_mant<>+0(SB)/8, $0x000003ff000003ff
DATA dec_mant<>+8(SB)/8, $0x000003ff000003ff
DATA dec_mant<>+16(SB)/8, $0x000003ff000003ff
DATA dec_mant<>+24(SB)/8, $0x000003ff000003ff
GLOBL dec_mant<>(SB), RODATA|NOPTR, $32
DATA dec_exp<>+0(SB)/8, $0x7f8000007f800000
DATA dec_exp<>+8(SB)/8, $0x7f8000007f800000
DATA dec_exp<>+16(SB)/8, $0x7f8000007f800000
DATA dec_exp<>+24(SB)/8, $0x7f8000007f800000
GLOBL dec_exp<>(SB), RODATA|NOPTR, $32

// fp16 round constants (8 x 32-bit lanes).
DATA rnd_sign<>+0(SB)/8, $0x8000000080000000
DATA rnd_sign<>+8(SB)/8, $0x8000000080000000
DATA rnd_sign<>+16(SB)/8, $0x8000000080000000
DATA rnd_sign<>+24(SB)/8, $0x8000000080000000
GLOBL rnd_sign<>(SB), RODATA|NOPTR, $32
DATA rnd_qnan<>+0(SB)/8, $0x7fc000007fc00000
DATA rnd_qnan<>+8(SB)/8, $0x7fc000007fc00000
DATA rnd_qnan<>+16(SB)/8, $0x7fc000007fc00000
DATA rnd_qnan<>+24(SB)/8, $0x7fc000007fc00000
GLOBL rnd_qnan<>(SB), RODATA|NOPTR, $32

// func axpyAsm(c, b *float32, n int, a float32)
// c[j] += a*b[j] with one fused rounding per element, 32 elements per
// main-loop iteration.
TEXT ·axpyAsm(SB), NOSPLIT, $0-28
	MOVQ c+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSS a+24(FP), Y0
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-32, DX

axpy32:
	CMPQ AX, DX
	JGE  axpy8
	VMOVUPS (SI)(AX*4), Y1
	VMOVUPS 32(SI)(AX*4), Y2
	VMOVUPS 64(SI)(AX*4), Y3
	VMOVUPS 96(SI)(AX*4), Y4
	VMOVUPS (DI)(AX*4), Y5
	VMOVUPS 32(DI)(AX*4), Y6
	VMOVUPS 64(DI)(AX*4), Y7
	VMOVUPS 96(DI)(AX*4), Y8
	VFMADD231PS Y1, Y0, Y5
	VFMADD231PS Y2, Y0, Y6
	VFMADD231PS Y3, Y0, Y7
	VFMADD231PS Y4, Y0, Y8
	VMOVUPS Y5, (DI)(AX*4)
	VMOVUPS Y6, 32(DI)(AX*4)
	VMOVUPS Y7, 64(DI)(AX*4)
	VMOVUPS Y8, 96(DI)(AX*4)
	ADDQ $32, AX
	JMP  axpy32

axpy8:
	CMPQ AX, CX
	JGE  axpyDone
	VMOVUPS (SI)(AX*4), Y1
	VMOVUPS (DI)(AX*4), Y5
	VFMADD231PS Y1, Y0, Y5
	VMOVUPS Y5, (DI)(AX*4)
	ADDQ $8, AX
	JMP  axpy8

axpyDone:
	VZEROUPPER
	RET

// func dotAsm(a, b *float32, n int) float32
// Four independent 8-lane accumulators, reduced at the end: the
// accumulation pattern is fixed by n alone, so the result is
// deterministic (but differs from the single-accumulator reference —
// tolerance-tested).
TEXT ·dotAsm(SB), NOSPLIT, $0-28
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ n+16(FP), CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-32, DX

dot32:
	CMPQ AX, DX
	JGE  dot8
	VMOVUPS (SI)(AX*4), Y4
	VMOVUPS 32(SI)(AX*4), Y5
	VMOVUPS 64(SI)(AX*4), Y6
	VMOVUPS 96(SI)(AX*4), Y7
	VFMADD231PS (DI)(AX*4), Y4, Y0
	VFMADD231PS 32(DI)(AX*4), Y5, Y1
	VFMADD231PS 64(DI)(AX*4), Y6, Y2
	VFMADD231PS 96(DI)(AX*4), Y7, Y3
	ADDQ $32, AX
	JMP  dot32

dot8:
	CMPQ AX, CX
	JGE  dotReduce
	VMOVUPS (SI)(AX*4), Y4
	VFMADD231PS (DI)(AX*4), Y4, Y0
	ADDQ $8, AX
	JMP  dot8

dotReduce:
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
	VZEROUPPER
	MOVSS X0, ret+24(FP)
	RET

// func gemmTileAsm(c *float32, ldc int, a *float32, ars, aps int, bp *float32, bps, kc int, acc bool)
// One 4x16 tile of c (row stride ldc) held in Y0-Y7 across the whole
// k-sweep: c[i][j] (+)= sum over p in [0,kc) of a[i*ars+p*aps] * bp[p*bps+j],
// from zero, or from the stored tile when acc is set (the next k-block of the
// same chain: a float32 store and reload is lossless). Per element this is
// exactly the chain axpyAsm performs when it is called once per p on the
// element's row — the same VFMADD231PS with b as the multiplicand vector, the
// broadcast a as the multiplier and c as the addend, in increasing p — so
// the tile is bit-identical to the axpy formulation; only the loads and
// stores of c between the steps are gone. bp is 16 columns of a packed panel:
// kc rows, bps floats apart (the panel's width: this body covers a
// GemmMR x GemmNR macro-tile as four calls). The p loop is unrolled by two;
// strides arrive in elements and are scaled to bytes here.
TEXT ·gemmTileAsm(SB), NOSPLIT, $0-65
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), R8
	SHLQ $2, R8
	MOVQ a+16(FP), SI
	MOVQ ars+24(FP), R9
	SHLQ $2, R9
	MOVQ aps+32(FP), R10
	SHLQ $2, R10
	MOVQ bp+40(FP), BX
	MOVQ bps+48(FP), R14
	SHLQ $2, R14
	MOVQ kc+56(FP), CX
	LEAQ (SI)(R9*1), R11  // a rows 1..3
	LEAQ (SI)(R9*2), R12
	LEAQ (R11)(R9*2), R13
	LEAQ (DI)(R8*2), DX   // c row 2
	MOVBLZX acc+64(FP), AX
	TESTQ AX, AX
	JZ   gtZero
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS (DI)(R8*1), Y2
	VMOVUPS 32(DI)(R8*1), Y3
	VMOVUPS (DX), Y4
	VMOVUPS 32(DX), Y5
	VMOVUPS (DX)(R8*1), Y6
	VMOVUPS 32(DX)(R8*1), Y7
	JMP  gtLoop2

gtZero:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

gtLoop2:
	CMPQ CX, $2
	JLT  gtTail
	VMOVUPS (BX), Y8
	VMOVUPS 32(BX), Y9
	VBROADCASTSS (SI), Y10
	VFMADD231PS Y8, Y10, Y0
	VFMADD231PS Y9, Y10, Y1
	VBROADCASTSS (R11), Y11
	VFMADD231PS Y8, Y11, Y2
	VFMADD231PS Y9, Y11, Y3
	VBROADCASTSS (R12), Y12
	VFMADD231PS Y8, Y12, Y4
	VFMADD231PS Y9, Y12, Y5
	VBROADCASTSS (R13), Y13
	VFMADD231PS Y8, Y13, Y6
	VFMADD231PS Y9, Y13, Y7
	VMOVUPS (BX)(R14*1), Y8
	VMOVUPS 32(BX)(R14*1), Y9
	VBROADCASTSS (SI)(R10*1), Y10
	VFMADD231PS Y8, Y10, Y0
	VFMADD231PS Y9, Y10, Y1
	VBROADCASTSS (R11)(R10*1), Y11
	VFMADD231PS Y8, Y11, Y2
	VFMADD231PS Y9, Y11, Y3
	VBROADCASTSS (R12)(R10*1), Y12
	VFMADD231PS Y8, Y12, Y4
	VFMADD231PS Y9, Y12, Y5
	VBROADCASTSS (R13)(R10*1), Y13
	VFMADD231PS Y8, Y13, Y6
	VFMADD231PS Y9, Y13, Y7
	LEAQ (SI)(R10*2), SI
	LEAQ (R11)(R10*2), R11
	LEAQ (R12)(R10*2), R12
	LEAQ (R13)(R10*2), R13
	LEAQ (BX)(R14*2), BX
	SUBQ $2, CX
	JMP  gtLoop2

gtTail:
	TESTQ CX, CX
	JZ   gtStore
	VMOVUPS (BX), Y8
	VMOVUPS 32(BX), Y9
	VBROADCASTSS (SI), Y10
	VFMADD231PS Y8, Y10, Y0
	VFMADD231PS Y9, Y10, Y1
	VBROADCASTSS (R11), Y11
	VFMADD231PS Y8, Y11, Y2
	VFMADD231PS Y9, Y11, Y3
	VBROADCASTSS (R12), Y12
	VFMADD231PS Y8, Y12, Y4
	VFMADD231PS Y9, Y12, Y5
	VBROADCASTSS (R13), Y13
	VFMADD231PS Y8, Y13, Y6
	VFMADD231PS Y9, Y13, Y7

gtStore:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, (DI)(R8*1)
	VMOVUPS Y3, 32(DI)(R8*1)
	VMOVUPS Y4, (DX)
	VMOVUPS Y5, 32(DX)
	VMOVUPS Y6, (DX)(R8*1)
	VMOVUPS Y7, 32(DX)(R8*1)
	VZEROUPPER
	RET

// func packPanelAsm(dst, src *float32, ld, kc, nr int)
// Gathers the nr-column panel gemmTileAsm sweeps, nr a positive multiple of
// 16: kc rows of nr floats, ld apart in src, contiguous in dst. kc >= 1.
TEXT ·packPanelAsm(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ ld+16(FP), R8
	SHLQ $2, R8
	MOVQ kc+24(FP), CX
	MOVQ nr+32(FP), DX
	SHLQ $2, DX

ppRow:
	XORQ AX, AX

ppCol:
	VMOVUPS (SI)(AX*1), Y0
	VMOVUPS 32(SI)(AX*1), Y1
	VMOVUPS Y0, (DI)(AX*1)
	VMOVUPS Y1, 32(DI)(AX*1)
	ADDQ $64, AX
	CMPQ AX, DX
	JLT  ppCol
	ADDQ R8, SI
	ADDQ DX, DI
	DECQ CX
	JNZ  ppRow
	VZEROUPPER
	RET

// func dotTileAsm(out, a, b *float32, ldb, n, tiles int)
// tiles consecutive 1x3 tiles of dot products: out[j] = a . b[j*ldb:] over
// the first n elements, for j in [0, 3*tiles). One load of a's 32-element
// block feeds three rows of b, and the loop over tiles stays in assembly so
// short rows (attention's k = 32) do not pay a call per tile. Every cell
// keeps dotAsm's arithmetic exactly: four 8-lane accumulators filled
// round-robin by 32-element block, the n mod 32 tail blocks all into the
// first accumulator, then (acc0+acc1)+(acc2+acc3), high half onto low half,
// and two pairwise horizontal adds. The horizontal adds of the three cells
// share instructions (VHADDPS adds adjacent pairs of both its sources), which
// changes which register a partial sum sits in, never its operands or their
// order.
TEXT ·dotTileAsm(SB), NOSPLIT, $0-48
	MOVQ out+0(FP), BX
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DI
	MOVQ ldb+24(FP), R8
	SHLQ $2, R8
	MOVQ n+32(FP), CX
	MOVQ tiles+40(FP), R11
	MOVQ CX, DX
	ANDQ $-32, DX

dtTile:
	LEAQ (DI)(R8*1), R9
	LEAQ (DI)(R8*2), R10
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	XORQ AX, AX

dt32:
	CMPQ AX, DX
	JGE  dt8
	VMOVUPS (SI)(AX*4), Y12
	VMOVUPS 32(SI)(AX*4), Y13
	VMOVUPS 64(SI)(AX*4), Y14
	VMOVUPS 96(SI)(AX*4), Y15
	VFMADD231PS (DI)(AX*4), Y12, Y0
	VFMADD231PS 32(DI)(AX*4), Y13, Y1
	VFMADD231PS 64(DI)(AX*4), Y14, Y2
	VFMADD231PS 96(DI)(AX*4), Y15, Y3
	VFMADD231PS (R9)(AX*4), Y12, Y4
	VFMADD231PS 32(R9)(AX*4), Y13, Y5
	VFMADD231PS 64(R9)(AX*4), Y14, Y6
	VFMADD231PS 96(R9)(AX*4), Y15, Y7
	VFMADD231PS (R10)(AX*4), Y12, Y8
	VFMADD231PS 32(R10)(AX*4), Y13, Y9
	VFMADD231PS 64(R10)(AX*4), Y14, Y10
	VFMADD231PS 96(R10)(AX*4), Y15, Y11
	ADDQ $32, AX
	JMP  dt32

dt8:
	CMPQ AX, CX
	JGE  dtReduce
	VMOVUPS (SI)(AX*4), Y12
	VFMADD231PS (DI)(AX*4), Y12, Y0
	VFMADD231PS (R9)(AX*4), Y12, Y4
	VFMADD231PS (R10)(AX*4), Y12, Y8
	ADDQ $8, AX
	JMP  dt8

dtReduce:
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VADDPS Y5, Y4, Y4
	VADDPS Y7, Y6, Y6
	VADDPS Y6, Y4, Y4
	VEXTRACTF128 $1, Y4, X5
	VADDPS X5, X4, X4
	VADDPS Y9, Y8, Y8
	VADDPS Y11, Y10, Y10
	VADDPS Y10, Y8, Y8
	VEXTRACTF128 $1, Y8, X9
	VADDPS X9, X8, X8
	VHADDPS X4, X0, X0
	VHADDPS X8, X8, X8
	VHADDPS X8, X0, X0
	VMOVLPS X0, (BX)
	VEXTRACTPS $2, X0, 8(BX)
	ADDQ $12, BX
	LEAQ (R10)(R8*1), DI
	DECQ R11
	JNZ  dtTile
	VZEROUPPER
	RET

// func gemmTile512Asm(c *float32, ldc int, a *float32, ars, aps int, bp *float32, kc int, acc bool)
// The 8x32 macro-tile of c in one piece: Z0-Z15, two registers to a row,
// against a packed panel of kc rows of 32 contiguous floats. Every element
// is the chain gemmTileAsm gives it — the same VFMADD231PS, b the
// multiplicand, the broadcast a the multiplier, c the addend, from zero or
// the stored tile, in increasing p. A zmm only puts more columns of a row in
// one register, so the two bodies are bit-identical; this one has sixteen
// independent chains in flight where two 512-bit FMA ports need at least
// eight, and reads each packed row once for eight rows of c instead of four.
// The eight rows of a are SI plus a multiple of ars, so one pointer advances.
TEXT ·gemmTile512Asm(SB), NOSPLIT, $0-57
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), R8
	SHLQ $2, R8
	MOVQ a+16(FP), SI
	MOVQ ars+24(FP), R9
	SHLQ $2, R9
	MOVQ aps+32(FP), R10
	SHLQ $2, R10
	MOVQ bp+40(FP), BX
	MOVQ kc+48(FP), CX
	LEAQ (R9)(R9*2), R11  // 3, 5 and 7 rows of a
	LEAQ (R9)(R9*4), R12
	LEAQ (R11)(R9*4), R13
	MOVQ DI, DX
	MOVBLZX acc+56(FP), AX
	TESTQ AX, AX
	JZ   g5Zero
	VMOVUPS (DX), Z0
	VMOVUPS 64(DX), Z1
	ADDQ R8, DX
	VMOVUPS (DX), Z2
	VMOVUPS 64(DX), Z3
	ADDQ R8, DX
	VMOVUPS (DX), Z4
	VMOVUPS 64(DX), Z5
	ADDQ R8, DX
	VMOVUPS (DX), Z6
	VMOVUPS 64(DX), Z7
	ADDQ R8, DX
	VMOVUPS (DX), Z8
	VMOVUPS 64(DX), Z9
	ADDQ R8, DX
	VMOVUPS (DX), Z10
	VMOVUPS 64(DX), Z11
	ADDQ R8, DX
	VMOVUPS (DX), Z12
	VMOVUPS 64(DX), Z13
	ADDQ R8, DX
	VMOVUPS (DX), Z14
	VMOVUPS 64(DX), Z15
	JMP  g5Loop

g5Zero:
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	VPXORD Z8, Z8, Z8
	VPXORD Z9, Z9, Z9
	VPXORD Z10, Z10, Z10
	VPXORD Z11, Z11, Z11
	VPXORD Z12, Z12, Z12
	VPXORD Z13, Z13, Z13
	VPXORD Z14, Z14, Z14
	VPXORD Z15, Z15, Z15

g5Loop:
	VMOVUPS (BX), Z16
	VMOVUPS 64(BX), Z17
	VBROADCASTSS (SI), Z18
	VFMADD231PS Z16, Z18, Z0
	VFMADD231PS Z17, Z18, Z1
	VBROADCASTSS (SI)(R9*1), Z19
	VFMADD231PS Z16, Z19, Z2
	VFMADD231PS Z17, Z19, Z3
	VBROADCASTSS (SI)(R9*2), Z20
	VFMADD231PS Z16, Z20, Z4
	VFMADD231PS Z17, Z20, Z5
	VBROADCASTSS (SI)(R11*1), Z21
	VFMADD231PS Z16, Z21, Z6
	VFMADD231PS Z17, Z21, Z7
	VBROADCASTSS (SI)(R9*4), Z22
	VFMADD231PS Z16, Z22, Z8
	VFMADD231PS Z17, Z22, Z9
	VBROADCASTSS (SI)(R12*1), Z23
	VFMADD231PS Z16, Z23, Z10
	VFMADD231PS Z17, Z23, Z11
	VBROADCASTSS (SI)(R11*2), Z24
	VFMADD231PS Z16, Z24, Z12
	VFMADD231PS Z17, Z24, Z13
	VBROADCASTSS (SI)(R13*1), Z25
	VFMADD231PS Z16, Z25, Z14
	VFMADD231PS Z17, Z25, Z15
	ADDQ R10, SI
	ADDQ $128, BX
	DECQ CX
	JNZ  g5Loop
	MOVQ DI, DX
	VMOVUPS Z0, (DX)
	VMOVUPS Z1, 64(DX)
	ADDQ R8, DX
	VMOVUPS Z2, (DX)
	VMOVUPS Z3, 64(DX)
	ADDQ R8, DX
	VMOVUPS Z4, (DX)
	VMOVUPS Z5, 64(DX)
	ADDQ R8, DX
	VMOVUPS Z6, (DX)
	VMOVUPS Z7, 64(DX)
	ADDQ R8, DX
	VMOVUPS Z8, (DX)
	VMOVUPS Z9, 64(DX)
	ADDQ R8, DX
	VMOVUPS Z10, (DX)
	VMOVUPS Z11, 64(DX)
	ADDQ R8, DX
	VMOVUPS Z12, (DX)
	VMOVUPS Z13, 64(DX)
	ADDQ R8, DX
	VMOVUPS Z14, (DX)
	VMOVUPS Z15, 64(DX)
	VZEROUPPER
	RET

// func dotTile512Asm(out, a, b *float32, ldb, n, tiles int)
// tiles consecutive 1x6 tiles of dot products, out[j] = a . b[j*ldb:] over
// the first n elements for j in [0, 6*tiles), each cell with dotAsm's
// arithmetic exactly. A cell's four 8-lane accumulators are the halves of two
// zmm: a contiguous 16-float load is [acc0|acc1] or [acc2|acc3], so a
// 32-element block fills them as dotAsm's four loads do. The n mod 32 tail
// goes to accumulator 0 eight elements at a time under the merge mask 0x00ff
// (a 256-bit instruction would zero accumulator 1 with the top of the
// register). The reduction takes the halves apart again and replays
// (acc0+acc1)+(acc2+acc3), high 128 onto low, and the two pairwise horizontal
// adds, which six cells share as dotTileAsm's three do. Twelve chains are in
// flight; the rows of b are DI plus a multiple of ldb.
TEXT ·dotTile512Asm(SB), NOSPLIT, $0-48
	MOVQ out+0(FP), BX
	MOVQ a+8(FP), R13
	MOVQ b+16(FP), R12
	MOVQ ldb+24(FP), R8
	SHLQ $2, R8
	MOVQ n+32(FP), CX
	MOVQ tiles+40(FP), R11
	MOVQ CX, DX
	ANDQ $-32, DX          // elements in whole blocks
	SUBQ DX, CX            // and in the tail: 0, 8, 16 or 24
	LEAQ (R8)(R8*2), R9   // 3 and 5 rows of b
	LEAQ (R8)(R8*4), R10
	MOVL $0x00ff, AX
	KMOVW AX, K1

d5Tile:
	MOVQ R13, SI
	MOVQ R12, DI
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	VPXORD Z8, Z8, Z8
	VPXORD Z9, Z9, Z9
	VPXORD Z10, Z10, Z10
	VPXORD Z11, Z11, Z11
	MOVQ DX, AX
	TESTQ AX, AX
	JZ   d5Tail

d5Block:
	VMOVUPS (SI), Z12
	VMOVUPS 64(SI), Z13
	VFMADD231PS (DI), Z12, Z0
	VFMADD231PS 64(DI), Z13, Z1
	VFMADD231PS (DI)(R8*1), Z12, Z2
	VFMADD231PS 64(DI)(R8*1), Z13, Z3
	VFMADD231PS (DI)(R8*2), Z12, Z4
	VFMADD231PS 64(DI)(R8*2), Z13, Z5
	VFMADD231PS (DI)(R9*1), Z12, Z6
	VFMADD231PS 64(DI)(R9*1), Z13, Z7
	VFMADD231PS (DI)(R8*4), Z12, Z8
	VFMADD231PS 64(DI)(R8*4), Z13, Z9
	VFMADD231PS (DI)(R10*1), Z12, Z10
	VFMADD231PS 64(DI)(R10*1), Z13, Z11
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $32, AX
	JNZ  d5Block

d5Tail:
	MOVQ CX, AX
	TESTQ AX, AX
	JZ   d5Reduce

d5Tail8:
	VMOVUPS (SI), K1, Z12
	VFMADD231PS (DI), Z12, K1, Z0
	VFMADD231PS (DI)(R8*1), Z12, K1, Z2
	VFMADD231PS (DI)(R8*2), Z12, K1, Z4
	VFMADD231PS (DI)(R9*1), Z12, K1, Z6
	VFMADD231PS (DI)(R8*4), Z12, K1, Z8
	VFMADD231PS (DI)(R10*1), Z12, K1, Z10
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, AX
	JNZ  d5Tail8

d5Reduce:
	VEXTRACTF64X4 $1, Z0, Y12
	VADDPS Y12, Y0, Y0
	VEXTRACTF64X4 $1, Z1, Y13
	VADDPS Y13, Y1, Y1
	VADDPS Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X12
	VADDPS X12, X0, X0
	VEXTRACTF64X4 $1, Z2, Y12
	VADDPS Y12, Y2, Y2
	VEXTRACTF64X4 $1, Z3, Y13
	VADDPS Y13, Y3, Y3
	VADDPS Y3, Y2, Y2
	VEXTRACTF128 $1, Y2, X12
	VADDPS X12, X2, X2
	VEXTRACTF64X4 $1, Z4, Y12
	VADDPS Y12, Y4, Y4
	VEXTRACTF64X4 $1, Z5, Y13
	VADDPS Y13, Y5, Y5
	VADDPS Y5, Y4, Y4
	VEXTRACTF128 $1, Y4, X12
	VADDPS X12, X4, X4
	VEXTRACTF64X4 $1, Z6, Y12
	VADDPS Y12, Y6, Y6
	VEXTRACTF64X4 $1, Z7, Y13
	VADDPS Y13, Y7, Y7
	VADDPS Y7, Y6, Y6
	VEXTRACTF128 $1, Y6, X12
	VADDPS X12, X6, X6
	VEXTRACTF64X4 $1, Z8, Y12
	VADDPS Y12, Y8, Y8
	VEXTRACTF64X4 $1, Z9, Y13
	VADDPS Y13, Y9, Y9
	VADDPS Y9, Y8, Y8
	VEXTRACTF128 $1, Y8, X12
	VADDPS X12, X8, X8
	VEXTRACTF64X4 $1, Z10, Y12
	VADDPS Y12, Y10, Y10
	VEXTRACTF64X4 $1, Z11, Y13
	VADDPS Y13, Y11, Y11
	VADDPS Y11, Y10, Y10
	VEXTRACTF128 $1, Y10, X12
	VADDPS X12, X10, X10
	VHADDPS X2, X0, X0
	VHADDPS X6, X4, X4
	VHADDPS X4, X0, X0
	VHADDPS X10, X8, X8
	VHADDPS X8, X8, X8
	VMOVUPS X0, (BX)
	VMOVLPS X8, 16(BX)
	ADDQ $24, BX
	LEAQ (R12)(R9*2), R12
	DECQ R11
	JNZ  d5Tile
	VZEROUPPER
	RET

// func f16EncAsm(dst *byte, src *float32, n int)
// VCVTPS2PH with round-to-nearest-even, then NaN lanes canonicalized to
// sign|0x7e00 so the output is bit-identical to Float32ToHalf (which
// does not preserve NaN payloads across the narrowing).
TEXT ·f16EncAsm(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VMOVDQU enc_abs16<>(SB), X5
	VMOVDQU enc_inf16<>(SB), X6
	VMOVDQU enc_sign16<>(SB), X7
	VMOVDQU enc_qnan16<>(SB), X8
	XORQ AX, AX

enc8:
	CMPQ AX, CX
	JGE  encDone
	VMOVUPS (SI)(AX*4), Y0
	VCVTPS2PH $0, Y0, X1
	VPAND X5, X1, X2           // |h|
	VPCMPGTW X6, X2, X3        // NaN lanes: |h| > 0x7c00
	VPAND X7, X1, X4           // sign
	VPOR  X8, X4, X4           // sign | 0x7e00
	VPBLENDVB X3, X4, X1, X1
	VMOVDQU X1, (DI)(AX*2)
	ADDQ $8, AX
	JMP  enc8

encDone:
	VZEROUPPER
	RET

// func f16DecAsm(dst *float32, src *byte, n int)
// VCVTPH2PS widens normals/subnormals/infinities exactly; NaN lanes are
// rebuilt integer-side as sign<<16 | 0x7f800000 | mant<<13 so payloads
// (and signaling-ness) match HalfToFloat32, which VCVTPH2PS would quiet.
TEXT ·f16DecAsm(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VMOVDQU dec_abs32<>(SB), Y5
	VMOVDQU dec_inf32<>(SB), Y6
	VMOVDQU dec_sign<>(SB), Y7
	VMOVDQU dec_mant<>(SB), Y8
	VMOVDQU dec_exp<>(SB), Y9
	XORQ AX, AX

dec8:
	CMPQ AX, CX
	JGE  decDone
	VMOVDQU (SI)(AX*2), X0
	VCVTPH2PS X0, Y1
	VPMOVZXWD X0, Y2           // halves widened to 32-bit lanes
	VPAND Y5, Y2, Y3
	VPCMPGTD Y6, Y3, Y3        // NaN lanes: |h| > 0x7c00
	VPAND Y7, Y2, Y4           // sign bit (still at bit 15)
	VPSLLD $16, Y4, Y4
	VPAND Y8, Y2, Y2           // 10-bit payload
	VPSLLD $13, Y2, Y2
	VPOR Y4, Y2, Y2
	VPOR Y9, Y2, Y2            // sign | 0x7f800000 | payload<<13
	VBLENDVPS Y3, Y2, Y1, Y1
	VMOVUPS Y1, (DI)(AX*4)
	ADDQ $8, AX
	JMP  dec8

decDone:
	VZEROUPPER
	RET

// func f16RoundAsm(dst, src *float32, n int)
// dst[i] = src[i] rounded through binary16: convert down (RN) and back up;
// in place when the two pointers are equal. NaN inputs take the canonical
// path sign|0x7fc00000, matching HalfToFloat32(Float32ToHalf(x)).
TEXT ·f16RoundAsm(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VMOVDQU rnd_sign<>(SB), Y5
	VMOVDQU rnd_qnan<>(SB), Y6
	XORQ AX, AX

rnd8:
	CMPQ AX, CX
	JGE  rndDone
	VMOVUPS (SI)(AX*4), Y0
	VCVTPS2PH $0, Y0, X1
	VCVTPH2PS X1, Y1
	VCMPPS $3, Y0, Y0, Y2      // unordered with self: NaN input lanes
	VPAND Y5, Y0, Y3           // input sign
	VPOR  Y6, Y3, Y3           // sign | 0x7fc00000
	VBLENDVPS Y2, Y3, Y1, Y1
	VMOVUPS Y1, (DI)(AX*4)
	ADDQ $8, AX
	JMP  rnd8

rndDone:
	VZEROUPPER
	RET

// func addAsm(a, b *float32, n int)
// a[i] += b[i] with separate VADDPS (no fusion): bit-identical to the
// generic reference.
TEXT ·addAsm(SB), NOSPLIT, $0-24
	MOVQ a+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-32, DX

add32:
	CMPQ AX, DX
	JGE  add8
	VMOVUPS (DI)(AX*4), Y0
	VMOVUPS 32(DI)(AX*4), Y1
	VMOVUPS 64(DI)(AX*4), Y2
	VMOVUPS 96(DI)(AX*4), Y3
	VADDPS (SI)(AX*4), Y0, Y0
	VADDPS 32(SI)(AX*4), Y1, Y1
	VADDPS 64(SI)(AX*4), Y2, Y2
	VADDPS 96(SI)(AX*4), Y3, Y3
	VMOVUPS Y0, (DI)(AX*4)
	VMOVUPS Y1, 32(DI)(AX*4)
	VMOVUPS Y2, 64(DI)(AX*4)
	VMOVUPS Y3, 96(DI)(AX*4)
	ADDQ $32, AX
	JMP  add32

add8:
	CMPQ AX, CX
	JGE  addDone
	VMOVUPS (DI)(AX*4), Y0
	VADDPS (SI)(AX*4), Y0, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ $8, AX
	JMP  add8

addDone:
	VZEROUPPER
	RET

// func scaleAsm(d *float32, n int, s float32)
// d[i] *= s with VMULPS: bit-identical to the generic reference.
TEXT ·scaleAsm(SB), NOSPLIT, $0-20
	MOVQ d+0(FP), DI
	MOVQ n+8(FP), CX
	VBROADCASTSS s+16(FP), Y4
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-32, DX

scale32:
	CMPQ AX, DX
	JGE  scale8
	VMOVUPS (DI)(AX*4), Y0
	VMOVUPS 32(DI)(AX*4), Y1
	VMOVUPS 64(DI)(AX*4), Y2
	VMOVUPS 96(DI)(AX*4), Y3
	VMULPS Y4, Y0, Y0
	VMULPS Y4, Y1, Y1
	VMULPS Y4, Y2, Y2
	VMULPS Y4, Y3, Y3
	VMOVUPS Y0, (DI)(AX*4)
	VMOVUPS Y1, 32(DI)(AX*4)
	VMOVUPS Y2, 64(DI)(AX*4)
	VMOVUPS Y3, 96(DI)(AX*4)
	ADDQ $32, AX
	JMP  scale32

scale8:
	CMPQ AX, CX
	JGE  scaleDone
	VMOVUPS (DI)(AX*4), Y0
	VMULPS Y4, Y0, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ $8, AX
	JMP  scale8

scaleDone:
	VZEROUPPER
	RET

// ADAM_COEFS and ADAM_UPDATE are the two Adam bodies' shared parts, so both
// transcribe AdamCoef.update once: the coefficients at k (R8) broadcast into
// Y6-Y14 (B1, OmB1, B2, OmB2, B1c, B2c, LR, Eps, LRWD) with k.WD's bits in R10
// (adamAsm says why); then, from p, m, v and g widened in Y0-Y3, mi in Y1, vi
// in Y2 and pf before the decay in Y3, with Y4 as scratch.
#define ADAM_COEFS \
	VBROADCASTSD 0(R8), Y6; \
	VBROADCASTSD 8(R8), Y7; \
	VBROADCASTSD 16(R8), Y8; \
	VBROADCASTSD 24(R8), Y9; \
	VBROADCASTSD 32(R8), Y10; \
	VBROADCASTSD 40(R8), Y11; \
	VBROADCASTSD 48(R8), Y12; \
	VBROADCASTSD 56(R8), Y13; \
	VBROADCASTSD 72(R8), Y14; \
	MOVQ 64(R8), R10; \
	SHLQ $1, R10

#define ADAM_UPDATE \
	VMULPD Y6, Y1, Y1; \
	VMULPD Y7, Y3, Y4; \
	VADDPD Y4, Y1, Y1; \
	VMULPD Y8, Y2, Y2; \
	VMULPD Y9, Y3, Y4; \
	VMULPD Y3, Y4, Y4; \
	VADDPD Y4, Y2, Y2; \
	VDIVPD Y10, Y1, Y3; \
	VMULPD Y3, Y12, Y3; \
	VDIVPD Y11, Y2, Y4; \
	VSQRTPD Y4, Y4; \
	VADDPD Y13, Y4, Y4; \
	VDIVPD Y4, Y3, Y3; \
	VSUBPD Y3, Y0, Y3

// func adamAsm(p, m, v, grad *float32, n int, k *AdamCoef)
// AdamCoef.Update for n elements, four float64 lanes at a time: p, m and v
// are updated in place, grad is read. Each lane executes the reference's
// operations in the reference's order, every one a correctly rounded IEEE
// double operation with no fusion (VMULPD, VADDPD, VDIVPD, VSQRTPD, VSUBPD
// are the packed forms of what the compiler emits for the scalar source),
// between an exact widening (VCVTPS2PD) and the same round-to-nearest
// narrowing (VCVTPD2PS), so the result is the reference's bit for bit. Weight
// decay is the reference's branch, taken or not for the whole call: k.WD is
// tested as bits with the sign shifted out, which is "!= 0" for every value
// including NaN. (The gradient parameter is not named g: that is the
// assembler's name for the goroutine register.)
TEXT ·adamAsm(SB), NOSPLIT, $0-48
	MOVQ p+0(FP), DI
	MOVQ m+8(FP), SI
	MOVQ v+16(FP), DX
	MOVQ grad+24(FP), BX
	MOVQ n+32(FP), CX
	MOVQ k+40(FP), R8
	ADAM_COEFS
	XORQ AX, AX

adam4:
	VCVTPS2PD (DI)(AX*4), Y0  // p
	VCVTPS2PD (SI)(AX*4), Y1  // m
	VCVTPS2PD (DX)(AX*4), Y2  // v
	VCVTPS2PD (BX)(AX*4), Y3  // g
	ADAM_UPDATE
	TESTQ R10, R10
	JZ   adamStore
	VMULPD Y0, Y14, Y4        // LRWD*p
	VSUBPD Y4, Y3, Y3

adamStore:
	VCVTPD2PSY Y3, X3
	VCVTPD2PSY Y1, X1
	VCVTPD2PSY Y2, X2
	VMOVUPS X3, (DI)(AX*4)
	VMOVUPS X1, (SI)(AX*4)
	VMOVUPS X2, (DX)(AX*4)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  adam4
	VZEROUPPER
	RET

// func adamDeltaAsm(d, m, v *byte, grad, w *float32, n int, k *AdamCoef) int
// adamAsm over masters stored as their distance from P16, with the codec in
// the walk: a lane's master is bits(w) + Δ (Δ sign-extended from the int16
// plane d, VPADDD on the bit patterns), updated by adamAsm's operations, and
// encoded again as P16' = fp16(p') — f16RoundAsm's conversion pair, NaN lanes
// canonicalized to sign|0x7fc00000 — and Δ' = bits(p') - bits(P16'). m and v
// are little-endian fp32 planes. A group of four lanes one of whose Δ' does
// not survive saturation to 16 bits is left untouched and the walk returns
// there, with the number of elements it stored; otherwise M', V', P16' (into
// w) and Δ' are stored in place.
TEXT ·adamDeltaAsm(SB), NOSPLIT, $0-64
	MOVQ d+0(FP), DI
	MOVQ m+8(FP), SI
	MOVQ v+16(FP), DX
	MOVQ grad+24(FP), BX
	MOVQ w+32(FP), R9
	MOVQ n+40(FP), CX
	MOVQ k+48(FP), R8
	ADAM_COEFS
	XORQ AX, AX

delta4:
	VPMOVSXWD (DI)(AX*2), X0  // Δ
	VPADDD (R9)(AX*4), X0, X0 // bits(P16) + Δ = bits(p)
	VCVTPS2PD X0, Y0          // p
	VCVTPS2PD (SI)(AX*4), Y1  // m
	VCVTPS2PD (DX)(AX*4), Y2  // v
	VCVTPS2PD (BX)(AX*4), Y3  // g
	ADAM_UPDATE
	TESTQ R10, R10
	JZ   deltaEncode
	VMULPD Y0, Y14, Y4        // LRWD*p
	VSUBPD Y4, Y3, Y3

deltaEncode:
	VCVTPD2PSY Y3, X3         // p'
	VCVTPD2PSY Y1, X1         // m'
	VCVTPD2PSY Y2, X2         // v'
	VCVTPS2PH $0, X3, X4
	VCVTPH2PS X4, X4          // fp16(p'), NaN lanes still to canonicalize
	VCMPPS $3, X3, X3, X5     // NaN lanes of p'
	VPAND rnd_sign<>(SB), X3, X0
	VPOR  rnd_qnan<>(SB), X0, X0
	VBLENDVPS X5, X0, X4, X4  // P16'
	VPSUBD X4, X3, X5         // Δ' = bits(p') - bits(P16')
	VPACKSSDW X5, X5, X0      // Δ' saturated to int16, lanes 0-3 in the low half
	VPMOVSXWD X0, X15
	VPCMPEQD X15, X5, X15     // lanes whose Δ' fits
	VMOVMSKPS X15, R11
	CMPQ R11, $15
	JNE  deltaDone
	VMOVUPS X1, (SI)(AX*4)
	VMOVUPS X2, (DX)(AX*4)
	VMOVUPS X4, (R9)(AX*4)
	VMOVQ X0, (DI)(AX*2)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  delta4

deltaDone:
	MOVQ AX, ret+56(FP)
	VZEROUPPER
	RET

// Narrow codec constants: the decoder's spread of three low bytes per
// element into a dword (top byte zero), per 128-bit lane — lane 0 reads the
// group's bytes 0-15, lane 1 its bytes 8-23 — and the encoder's gather of
// them back, the top bytes into each lane's last dword; VPERMD orders for
// those gathers; the nibble and word masks.
DATA nar_spread<>+0(SB)/8, $0x8005040380020100
DATA nar_spread<>+8(SB)/8, $0x800b0a0980080706
DATA nar_spread<>+16(SB)/8, $0x8009080780060504
DATA nar_spread<>+24(SB)/8, $0x800f0e0d800c0b0a
GLOBL nar_spread<>(SB), RODATA|NOPTR, $32
DATA nar_gather<>+0(SB)/8, $0x0908060504020100
DATA nar_gather<>+8(SB)/8, $0x0f0b07030e0d0c0a
DATA nar_gather<>+16(SB)/8, $0x0908060504020100
DATA nar_gather<>+24(SB)/8, $0x0f0b07030e0d0c0a
GLOBL nar_gather<>(SB), RODATA|NOPTR, $32
DATA nar_lows<>+0(SB)/8, $0x0000000100000000
DATA nar_lows<>+8(SB)/8, $0x0000000400000002
DATA nar_lows<>+16(SB)/8, $0x0000000600000005
DATA nar_lows<>+24(SB)/8, $0x0000000700000003
GLOBL nar_lows<>(SB), RODATA|NOPTR, $32
DATA nar_tops<>+0(SB)/8, $0x0000000400000000
DATA nar_tops<>+8(SB)/8, $0x0000000500000001
DATA nar_tops<>+16(SB)/8, $0x0000000600000002
DATA nar_tops<>+24(SB)/8, $0x0000000700000003
GLOBL nar_tops<>(SB), RODATA|NOPTR, $32
DATA nar_nib<>+0(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nar_nib<>+8(SB)/8, $0x0f0f0f0f0f0f0f0f
GLOBL nar_nib<>(SB), RODATA|NOPTR, $16
DATA nar_word<>+0(SB)/8, $0x00ff00ff00ff00ff
DATA nar_word<>+8(SB)/8, $0x00ff00ff00ff00ff
DATA nar_word<>+16(SB)/8, $0x00ff00ff00ff00ff
DATA nar_word<>+24(SB)/8, $0x00ff00ff00ff00ff
GLOBL nar_word<>(SB), RODATA|NOPTR, $32
DATA nar_ones<>+0(SB)/8, $0xffffffffffffffff
DATA nar_ones<>+8(SB)/8, $0xffffffffffffffff
DATA nar_ones<>+16(SB)/8, $0xffffffffffffffff
DATA nar_ones<>+24(SB)/8, $0xffffffffffffffff
GLOBL nar_ones<>(SB), RODATA|NOPTR, $32

// NAR_DEC8 decodes into out(DI) the eight elements whose low bytes are at
// lo(SI) and whose top bytes are the low eight bytes of tops.
#define NAR_DEC8(tops, lo, out) \
	VMOVDQU lo(SI), X4; \
	VINSERTI128 $1, lo+8(SI), Y4, Y4; \
	VPSHUFB nar_spread<>(SB), Y4, Y4; \
	VPMOVZXBD tops, Y5; \
	VPSLLD $24, Y5, Y5; \
	VPOR Y5, Y4, Y4; \
	VMOVDQU Y4, out(DI)

// func narrowDecAsm(dst, lo, codes *byte, n int, lut *[16]byte)
// The narrow decoder, 32 elements at a time: sixteen code bytes split into
// their nibbles, interleaved back into element order and looked up in the
// table (VPSHUFB) for the 32 top bytes, each shifted above its element's
// three low bytes. A prefetch past the plane is harmless.
TEXT ·narrowDecAsm(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ lo+8(FP), SI
	MOVQ codes+16(FP), CX
	MOVQ n+24(FP), DX
	MOVQ lut+32(FP), R8
	VMOVDQU (R8), X7
	VMOVDQU nar_nib<>(SB), X6

narDec32:
	PREFETCHT0 1536(SI)       // the next 512 values' low bytes: a walk decoding
	PREFETCHT0 1600(SI)       // a block of 512 at a time finds its next cached
	VMOVDQU (CX), X0
	VPSRLW $4, X0, X1
	VPAND X6, X0, X0          // even elements' codes
	VPAND X6, X1, X1          // odd elements'
	VPUNPCKLBW X1, X0, X2     // elements 0-15
	VPUNPCKHBW X1, X0, X3     // elements 16-31
	VPSHUFB X2, X7, X2        // their top bytes
	VPSHUFB X3, X7, X3
	NAR_DEC8(X2, 0, 0)
	VPSRLDQ $8, X2, X2
	NAR_DEC8(X2, 24, 32)
	NAR_DEC8(X3, 48, 64)
	VPSRLDQ $8, X3, X3
	NAR_DEC8(X3, 72, 96)
	ADDQ $16, CX
	ADDQ $96, SI
	ADDQ $128, DI
	SUBQ $32, DX
	JNZ  narDec32
	VZEROUPPER
	RET

// NAR_LOWS stores the three low bytes of each of the eight elements in y (x
// its low half) at off(DI), 24 bytes.
#define NAR_LOWS(y, x, off) \
	VPSHUFB nar_gather<>(SB), y, y; \
	VPERMD y, Y14, y; \
	VMOVDQU x, off(DI); \
	VEXTRACTI128 $1, y, X11; \
	VMOVQ X11, off+16(DI)

// func narrowEncAsm(lo, codes, src *byte, n, base int, out *byte, c int) (nesc int)
// The narrow encoder, 32 elements at a time. c packs the code's bytes, each
// broadcast: the magnitude mask (0x7f signed, 0xff not; its complement is
// the sign mask), the window's base and its width less one. A top byte b has
// magnitude a = b & mask and fits when a is 0 or a - base <= width-1
// (unsigned); its code is (b &^ mask) >> 4 | (a == 0 ? 0 : a - base + 1), or
// 0 when it does not fit, and then the element's index base+i and bits are
// appended at out — a scalar loop over the group's misfits.
TEXT ·narrowEncAsm(SB), NOSPLIT, $0-64
	MOVQ lo+0(FP), DI
	MOVQ codes+8(FP), CX
	MOVQ src+16(FP), SI
	MOVQ n+24(FP), DX
	MOVQ base+32(FP), R10
	MOVQ out+40(FP), R8
	MOVQ c+48(FP), R11
	VMOVD R11, X10
	VPBROADCASTB X10, Y10     // mask
	SHRQ $8, R11
	VMOVD R11, X12
	VPBROADCASTB X12, Y12     // base
	SHRQ $8, R11
	VMOVD R11, X13
	VPBROADCASTB X13, Y13     // width - 1
	XORQ R9, R9               // records written
	XORQ AX, AX               // element
	VMOVDQU nar_lows<>(SB), Y14
	VMOVDQU nar_tops<>(SB), Y15

narEnc32:
	VMOVDQU (SI)(AX*4), Y0
	VMOVDQU 32(SI)(AX*4), Y1
	VMOVDQU 64(SI)(AX*4), Y2
	VMOVDQU 96(SI)(AX*4), Y3
	VPSRLD $24, Y0, Y4
	VPSRLD $24, Y1, Y5
	VPSRLD $24, Y2, Y6
	VPSRLD $24, Y3, Y7
	VPACKUSDW Y5, Y4, Y4
	VPACKUSDW Y7, Y6, Y6
	VPACKUSWB Y6, Y4, Y4
	VPERMD Y4, Y15, Y4        // the 32 top bytes b, in order
	VPAND Y10, Y4, Y5         // a
	VPXOR Y6, Y6, Y6
	VPCMPEQB Y6, Y5, Y6       // a == 0
	VPSUBB Y12, Y5, Y7        // a - base
	VPMINUB Y13, Y7, Y8
	VPCMPEQB Y8, Y7, Y8       // in the window
	VPOR Y6, Y8, Y8           // fits
	VPSUBB nar_ones<>(SB), Y7, Y7
	VPANDN Y7, Y6, Y7         // a - base + 1, or 0 for a zero a
	VPANDN Y4, Y10, Y9
	VPSRLW $4, Y9, Y9         // the sign's code bit
	VPOR Y9, Y7, Y7
	VPAND Y8, Y7, Y7          // codes, 0 for a misfit
	VPSRLW $4, Y7, Y9
	VPOR Y9, Y7, Y7
	VPAND nar_word<>(SB), Y7, Y7
	VPACKUSWB Y7, Y7, Y7
	VPERMQ $0x08, Y7, Y7      // the 16 packed code bytes
	VMOVDQU X7, (CX)
	NAR_LOWS(Y0, X0, 0)
	NAR_LOWS(Y1, X1, 24)
	NAR_LOWS(Y2, X2, 48)
	NAR_LOWS(Y3, X3, 72)
	VPMOVMSKB Y8, R11
	NOTL R11
	TESTL R11, R11
	JZ   narEncNext

narEncEsc:
	BSFL R11, R12
	ADDQ AX, R12              // the misfit's element
	MOVL (SI)(R12*4), R13
	ADDQ R10, R12
	MOVL R12, (R8)(R9*8)
	MOVL R13, 4(R8)(R9*8)
	INCQ R9
	LEAL -1(R11), R12
	ANDL R12, R11
	JNZ  narEncEsc

narEncNext:
	ADDQ $16, CX
	ADDQ $96, DI
	ADDQ $32, AX
	CMPQ AX, DX
	JLT  narEnc32
	MOVQ R9, nesc+56(FP)
	VZEROUPPER
	RET

// func fmaPeakAsm(iters int)
// func fmaPeak512Asm(iters int)
// The FMA ceiling the tiles are read against: twelve independent
// accumulator chains, one VFMADD231PS each per iteration, nothing loaded or
// stored — 12 x 8 (ymm) or 12 x 16 (zmm) lanes x 2 FLOP per iteration.
TEXT ·fmaPeakAsm(SB), NOSPLIT, $0-8
	MOVQ iters+0(FP), CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	VXORPS Y12, Y12, Y12
	VXORPS Y13, Y13, Y13

fpLoop:
	VFMADD231PS Y12, Y13, Y0
	VFMADD231PS Y12, Y13, Y1
	VFMADD231PS Y12, Y13, Y2
	VFMADD231PS Y12, Y13, Y3
	VFMADD231PS Y12, Y13, Y4
	VFMADD231PS Y12, Y13, Y5
	VFMADD231PS Y12, Y13, Y6
	VFMADD231PS Y12, Y13, Y7
	VFMADD231PS Y12, Y13, Y8
	VFMADD231PS Y12, Y13, Y9
	VFMADD231PS Y12, Y13, Y10
	VFMADD231PS Y12, Y13, Y11
	DECQ CX
	JNZ  fpLoop
	VZEROUPPER
	RET

TEXT ·fmaPeak512Asm(SB), NOSPLIT, $0-8
	MOVQ iters+0(FP), CX
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	VPXORD Z8, Z8, Z8
	VPXORD Z9, Z9, Z9
	VPXORD Z10, Z10, Z10
	VPXORD Z11, Z11, Z11
	VPXORD Z12, Z12, Z12
	VPXORD Z13, Z13, Z13

fp5Loop:
	VFMADD231PS Z12, Z13, Z0
	VFMADD231PS Z12, Z13, Z1
	VFMADD231PS Z12, Z13, Z2
	VFMADD231PS Z12, Z13, Z3
	VFMADD231PS Z12, Z13, Z4
	VFMADD231PS Z12, Z13, Z5
	VFMADD231PS Z12, Z13, Z6
	VFMADD231PS Z12, Z13, Z7
	VFMADD231PS Z12, Z13, Z8
	VFMADD231PS Z12, Z13, Z9
	VFMADD231PS Z12, Z13, Z10
	VFMADD231PS Z12, Z13, Z11
	DECQ CX
	JNZ  fp5Loop
	VZEROUPPER
	RET

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
