#include "textflag.h"

// AVX2 twins of the unrolled Go block kernels (kernels.go, ilu.go,
// solve.go). Blocks are column-major, so one block column is one
// VMOVUPD (rows 0-3) plus, at b = 5, one VMOVSD (row 4) — or, under
// float32 storage, one VCVTPS2PD plus one VCVTSS2SD. Every kernel
// vectorises across the rows of a block: per block it zeroes an
// accumulator, and for each column in ascending order multiplies the
// column by the broadcast x (or b) entry — the stored operand first, as
// the Go kernels write it — and adds the product into the accumulator;
// one VSUBPD then takes the sum off the row's running value. That is the
// Go kernels' per-entry order: a sum from +0 in ascending column order,
// subtracted once, no fused multiply-add, default MXCSR.
//
// Register plan of the sweeps: SI val, DI col, R8 lPtr/uPtr, R9 rows (0
// when nil), R10 lo, R11 hi (the backward sweep's row counter), R12 b,
// R13 x; AX the row, BX the block, CX the row's end block, DX a byte
// offset; Y0/X1 the row's running value (rows 0-3 / row 4), Y2/X3 a
// block's sums, Y4-Y8 the broadcast x entries, Y9/X10 the products, X11
// zero.

// The block at SI+DX times the broadcasts Y4-Y7 (b = 4) or Y4-Y8 (b = 5)
// into acc (rows 0-3) and acc4 (row 4): each lane a sum from +0, columns
// ascending. Column c sits 8·b·c bytes (float64) or 4·b·c bytes
// (float32) into the block.
#define COL4_F64(off, y, acc) \
	VMOVUPD off(SI)(DX*1), Y9; \
	VMULPD  y, Y9, Y9; \
	VADDPD  Y9, acc, acc

#define COL4_F32(off, y, acc) \
	VCVTPS2PD off(SI)(DX*1), Y9; \
	VMULPD    y, Y9, Y9; \
	VADDPD    Y9, acc, acc

#define COL5_F64(off, y, x, acc, acc4) \
	VMOVUPD off(SI)(DX*1), Y9; \
	VMOVSD  (off+32)(SI)(DX*1), X10; \
	VMULPD  y, Y9, Y9; \
	VADDPD  Y9, acc, acc; \
	VMULSD  x, X10, X10; \
	VADDSD  X10, acc4, acc4

#define COL5_F32(off, y, x, acc, acc4) \
	VCVTPS2PD off(SI)(DX*1), Y9; \
	VCVTSS2SD (off+16)(SI)(DX*1), X11, X10; \
	VMULPD    y, Y9, Y9; \
	VADDPD    Y9, acc, acc; \
	VMULSD    x, X10, X10; \
	VADDSD    X10, acc4, acc4

#define DOT4_F64(acc) \
	VXORPD acc, acc, acc; \
	COL4_F64(0, Y4, acc); \
	COL4_F64(32, Y5, acc); \
	COL4_F64(64, Y6, acc); \
	COL4_F64(96, Y7, acc)

#define DOT4_F32(acc) \
	VXORPD acc, acc, acc; \
	COL4_F32(0, Y4, acc); \
	COL4_F32(16, Y5, acc); \
	COL4_F32(32, Y6, acc); \
	COL4_F32(48, Y7, acc)

#define DOT5_F64(acc, acc4) \
	VXORPD acc, acc, acc; \
	VXORPD acc4, acc4, acc4; \
	COL5_F64(0, Y4, X4, acc, acc4); \
	COL5_F64(40, Y5, X5, acc, acc4); \
	COL5_F64(80, Y6, X6, acc, acc4); \
	COL5_F64(120, Y7, X7, acc, acc4); \
	COL5_F64(160, Y8, X8, acc, acc4)

#define DOT5_F32(acc, acc4) \
	VXORPD acc, acc, acc; \
	VXORPD acc4, acc4, acc4; \
	COL5_F32(0, Y4, X4, acc, acc4); \
	COL5_F32(20, Y5, X5, acc, acc4); \
	COL5_F32(40, Y6, X6, acc, acc4); \
	COL5_F32(60, Y7, X7, acc, acc4); \
	COL5_F32(80, Y8, X8, acc, acc4)

// x_j, the block's column row, broadcast into Y4-Y7 (b = 4) or Y4-Y8.
#define GATHER4 \
	MOVLQSX      (DI)(BX*4), DX; \
	SHLQ         $5, DX; \
	VBROADCASTSD 0(R13)(DX*1), Y4; \
	VBROADCASTSD 8(R13)(DX*1), Y5; \
	VBROADCASTSD 16(R13)(DX*1), Y6; \
	VBROADCASTSD 24(R13)(DX*1), Y7

#define GATHER5 \
	MOVLQSX      (DI)(BX*4), DX; \
	IMUL3Q       $40, DX, DX; \
	VBROADCASTSD 0(R13)(DX*1), Y4; \
	VBROADCASTSD 8(R13)(DX*1), Y5; \
	VBROADCASTSD 16(R13)(DX*1), Y6; \
	VBROADCASTSD 24(R13)(DX*1), Y7; \
	VBROADCASTSD 32(R13)(DX*1), Y8

// The backward sweep's running value y, broadcast entry by entry for the
// inverted diagonal block.
#define SPREAD4 \
	VPERMPD $0x00, Y0, Y4; \
	VPERMPD $0x55, Y0, Y5; \
	VPERMPD $0xAA, Y0, Y6; \
	VPERMPD $0xFF, Y0, Y7

#define SPREAD5 \
	SPREAD4; \
	VBROADCASTSD X1, Y8

// The row's byte offset into b and x (DX = AX·8b).
#define ROW4 MOVQ AX, DX; SHLQ $5, DX
#define ROW5 IMUL3Q $40, AX, DX

// func forward4F64AVX2(val []float64, col, lPtr, rows []int32, lo, hi int, b, x []float64)
TEXT ·forward4F64AVX2(SB), NOSPLIT, $0-160
	MOVQ val_base+0(FP), SI
	MOVQ col_base+24(FP), DI
	MOVQ lPtr_base+48(FP), R8
	MOVQ rows_base+72(FP), R9
	MOVQ lo+96(FP), R10
	MOVQ hi+104(FP), R11
	MOVQ b_base+112(FP), R12
	MOVQ x_base+136(FP), R13
	CMPQ R10, R11
	JGE  done

row:
	MOVQ    R10, AX
	TESTQ   R9, R9
	JZ      rowset
	MOVLQSX (R9)(R10*4), AX

rowset:
	ROW4
	VMOVUPD (R12)(DX*1), Y0
	MOVLQSX (R8)(AX*4), BX
	MOVLQSX 4(R8)(AX*4), CX
	CMPQ    BX, CX
	JGE     blocksdone

block:
	GATHER4
	IMUL3Q $128, BX, DX
	DOT4_F64(Y2)
	VSUBPD Y2, Y0, Y0
	INCQ   BX
	CMPQ   BX, CX
	JLT    block

blocksdone:
	ROW4
	VMOVUPD Y0, (R13)(DX*1)
	INCQ    R10
	CMPQ    R10, R11
	JLT     row

done:
	VZEROUPPER
	RET

// func backward4F64AVX2(val []float64, col, uPtr, rows []int32, lo, hi int, x []float64)
TEXT ·backward4F64AVX2(SB), NOSPLIT, $0-136
	MOVQ val_base+0(FP), SI
	MOVQ col_base+24(FP), DI
	MOVQ uPtr_base+48(FP), R8
	MOVQ rows_base+72(FP), R9
	MOVQ lo+96(FP), R10
	MOVQ hi+104(FP), R11
	MOVQ x_base+112(FP), R13
	CMPQ R10, R11
	JGE  done
	DECQ R11

row:
	MOVQ    R11, AX
	TESTQ   R9, R9
	JZ      rowset
	MOVLQSX (R9)(R11*4), AX

rowset:
	ROW4
	VMOVUPD (R13)(DX*1), Y0
	MOVLQSX 4(R8)(AX*4), BX
	MOVLQSX (R8)(AX*4), CX
	DECQ    CX
	CMPQ    BX, CX
	JGE     blocksdone

block:
	GATHER4
	IMUL3Q $128, BX, DX
	DOT4_F64(Y2)
	VSUBPD Y2, Y0, Y0
	INCQ   BX
	CMPQ   BX, CX
	JLT    block

blocksdone:
	// The row's inverted diagonal block follows its U blocks.
	SPREAD4
	IMUL3Q $128, CX, DX
	DOT4_F64(Y0)
	ROW4
	VMOVUPD Y0, (R13)(DX*1)
	DECQ    R11
	CMPQ    R11, R10
	JGE     row

done:
	VZEROUPPER
	RET

// func forward4F32AVX2(val []float32, col, lPtr, rows []int32, lo, hi int, b, x []float64)
TEXT ·forward4F32AVX2(SB), NOSPLIT, $0-160
	MOVQ val_base+0(FP), SI
	MOVQ col_base+24(FP), DI
	MOVQ lPtr_base+48(FP), R8
	MOVQ rows_base+72(FP), R9
	MOVQ lo+96(FP), R10
	MOVQ hi+104(FP), R11
	MOVQ b_base+112(FP), R12
	MOVQ x_base+136(FP), R13
	CMPQ R10, R11
	JGE  done

row:
	MOVQ    R10, AX
	TESTQ   R9, R9
	JZ      rowset
	MOVLQSX (R9)(R10*4), AX

rowset:
	ROW4
	VMOVUPD (R12)(DX*1), Y0
	MOVLQSX (R8)(AX*4), BX
	MOVLQSX 4(R8)(AX*4), CX
	CMPQ    BX, CX
	JGE     blocksdone

block:
	GATHER4
	IMUL3Q $64, BX, DX
	DOT4_F32(Y2)
	VSUBPD Y2, Y0, Y0
	INCQ   BX
	CMPQ   BX, CX
	JLT    block

blocksdone:
	ROW4
	VMOVUPD Y0, (R13)(DX*1)
	INCQ    R10
	CMPQ    R10, R11
	JLT     row

done:
	VZEROUPPER
	RET

// func backward4F32AVX2(val []float32, col, uPtr, rows []int32, lo, hi int, x []float64)
TEXT ·backward4F32AVX2(SB), NOSPLIT, $0-136
	MOVQ val_base+0(FP), SI
	MOVQ col_base+24(FP), DI
	MOVQ uPtr_base+48(FP), R8
	MOVQ rows_base+72(FP), R9
	MOVQ lo+96(FP), R10
	MOVQ hi+104(FP), R11
	MOVQ x_base+112(FP), R13
	CMPQ R10, R11
	JGE  done
	DECQ R11

row:
	MOVQ    R11, AX
	TESTQ   R9, R9
	JZ      rowset
	MOVLQSX (R9)(R11*4), AX

rowset:
	ROW4
	VMOVUPD (R13)(DX*1), Y0
	MOVLQSX 4(R8)(AX*4), BX
	MOVLQSX (R8)(AX*4), CX
	DECQ    CX
	CMPQ    BX, CX
	JGE     blocksdone

block:
	GATHER4
	IMUL3Q $64, BX, DX
	DOT4_F32(Y2)
	VSUBPD Y2, Y0, Y0
	INCQ   BX
	CMPQ   BX, CX
	JLT    block

blocksdone:
	// The row's inverted diagonal block follows its U blocks.
	SPREAD4
	IMUL3Q $64, CX, DX
	DOT4_F32(Y0)
	ROW4
	VMOVUPD Y0, (R13)(DX*1)
	DECQ    R11
	CMPQ    R11, R10
	JGE     row

done:
	VZEROUPPER
	RET

// func forward5F64AVX2(val []float64, col, lPtr, rows []int32, lo, hi int, b, x []float64)
TEXT ·forward5F64AVX2(SB), NOSPLIT, $0-160
	MOVQ val_base+0(FP), SI
	MOVQ col_base+24(FP), DI
	MOVQ lPtr_base+48(FP), R8
	MOVQ rows_base+72(FP), R9
	MOVQ lo+96(FP), R10
	MOVQ hi+104(FP), R11
	MOVQ b_base+112(FP), R12
	MOVQ x_base+136(FP), R13
	CMPQ R10, R11
	JGE  done

row:
	MOVQ    R10, AX
	TESTQ   R9, R9
	JZ      rowset
	MOVLQSX (R9)(R10*4), AX

rowset:
	ROW5
	VMOVUPD (R12)(DX*1), Y0
	VMOVSD  32(R12)(DX*1), X1
	MOVLQSX (R8)(AX*4), BX
	MOVLQSX 4(R8)(AX*4), CX
	CMPQ    BX, CX
	JGE     blocksdone

block:
	GATHER5
	IMUL3Q $200, BX, DX
	DOT5_F64(Y2, X3)
	VSUBPD Y2, Y0, Y0
	VSUBSD X3, X1, X1
	INCQ   BX
	CMPQ   BX, CX
	JLT    block

blocksdone:
	ROW5
	VMOVUPD Y0, (R13)(DX*1)
	VMOVSD  X1, 32(R13)(DX*1)
	INCQ    R10
	CMPQ    R10, R11
	JLT     row

done:
	VZEROUPPER
	RET

// func backward5F64AVX2(val []float64, col, uPtr, rows []int32, lo, hi int, x []float64)
TEXT ·backward5F64AVX2(SB), NOSPLIT, $0-136
	MOVQ val_base+0(FP), SI
	MOVQ col_base+24(FP), DI
	MOVQ uPtr_base+48(FP), R8
	MOVQ rows_base+72(FP), R9
	MOVQ lo+96(FP), R10
	MOVQ hi+104(FP), R11
	MOVQ x_base+112(FP), R13
	CMPQ R10, R11
	JGE  done
	DECQ R11

row:
	MOVQ    R11, AX
	TESTQ   R9, R9
	JZ      rowset
	MOVLQSX (R9)(R11*4), AX

rowset:
	ROW5
	VMOVUPD (R13)(DX*1), Y0
	VMOVSD  32(R13)(DX*1), X1
	MOVLQSX 4(R8)(AX*4), BX
	MOVLQSX (R8)(AX*4), CX
	DECQ    CX
	CMPQ    BX, CX
	JGE     blocksdone

block:
	GATHER5
	IMUL3Q $200, BX, DX
	DOT5_F64(Y2, X3)
	VSUBPD Y2, Y0, Y0
	VSUBSD X3, X1, X1
	INCQ   BX
	CMPQ   BX, CX
	JLT    block

blocksdone:
	// The row's inverted diagonal block follows its U blocks.
	SPREAD5
	IMUL3Q $200, CX, DX
	DOT5_F64(Y0, X1)
	ROW5
	VMOVUPD Y0, (R13)(DX*1)
	VMOVSD  X1, 32(R13)(DX*1)
	DECQ    R11
	CMPQ    R11, R10
	JGE     row

done:
	VZEROUPPER
	RET

// func forward5F32AVX2(val []float32, col, lPtr, rows []int32, lo, hi int, b, x []float64)
TEXT ·forward5F32AVX2(SB), NOSPLIT, $0-160
	MOVQ   val_base+0(FP), SI
	MOVQ   col_base+24(FP), DI
	MOVQ   lPtr_base+48(FP), R8
	MOVQ   rows_base+72(FP), R9
	MOVQ   lo+96(FP), R10
	MOVQ   hi+104(FP), R11
	MOVQ   b_base+112(FP), R12
	MOVQ   x_base+136(FP), R13
	VXORPD Y11, Y11, Y11
	CMPQ   R10, R11
	JGE    done

row:
	MOVQ    R10, AX
	TESTQ   R9, R9
	JZ      rowset
	MOVLQSX (R9)(R10*4), AX

rowset:
	ROW5
	VMOVUPD (R12)(DX*1), Y0
	VMOVSD  32(R12)(DX*1), X1
	MOVLQSX (R8)(AX*4), BX
	MOVLQSX 4(R8)(AX*4), CX
	CMPQ    BX, CX
	JGE     blocksdone

block:
	GATHER5
	IMUL3Q $100, BX, DX
	DOT5_F32(Y2, X3)
	VSUBPD Y2, Y0, Y0
	VSUBSD X3, X1, X1
	INCQ   BX
	CMPQ   BX, CX
	JLT    block

blocksdone:
	ROW5
	VMOVUPD Y0, (R13)(DX*1)
	VMOVSD  X1, 32(R13)(DX*1)
	INCQ    R10
	CMPQ    R10, R11
	JLT     row

done:
	VZEROUPPER
	RET

// func backward5F32AVX2(val []float32, col, uPtr, rows []int32, lo, hi int, x []float64)
TEXT ·backward5F32AVX2(SB), NOSPLIT, $0-136
	MOVQ   val_base+0(FP), SI
	MOVQ   col_base+24(FP), DI
	MOVQ   uPtr_base+48(FP), R8
	MOVQ   rows_base+72(FP), R9
	MOVQ   lo+96(FP), R10
	MOVQ   hi+104(FP), R11
	MOVQ   x_base+112(FP), R13
	VXORPD Y11, Y11, Y11
	CMPQ   R10, R11
	JGE    done
	DECQ   R11

row:
	MOVQ    R11, AX
	TESTQ   R9, R9
	JZ      rowset
	MOVLQSX (R9)(R11*4), AX

rowset:
	ROW5
	VMOVUPD (R13)(DX*1), Y0
	VMOVSD  32(R13)(DX*1), X1
	MOVLQSX 4(R8)(AX*4), BX
	MOVLQSX (R8)(AX*4), CX
	DECQ    CX
	CMPQ    BX, CX
	JGE     blocksdone

block:
	GATHER5
	IMUL3Q $100, BX, DX
	DOT5_F32(Y2, X3)
	VSUBPD Y2, Y0, Y0
	VSUBSD X3, X1, X1
	INCQ   BX
	CMPQ   BX, CX
	JLT    block

blocksdone:
	// The row's inverted diagonal block follows its U blocks.
	SPREAD5
	IMUL3Q $100, CX, DX
	DOT5_F32(Y0, X1)
	ROW5
	VMOVUPD Y0, (R13)(DX*1)
	VMOVSD  X1, 32(R13)(DX*1)
	DECQ    R11
	CMPQ    R11, R10
	JGE     row

done:
	VZEROUPPER
	RET

// The elimination kernels hold a's columns in registers — Y0-Y3 (b = 4),
// or Y0-Y4 for rows 0-3 and X5-X9 for row 4 (b = 5) — and form column j
// of a·b in acc (and acc4): the sum over k, ascending, of column k of a
// times b(k, j), at byte 8(b·j + k) of DX, from +0.
#define LOADA4 \
	VMOVUPD 0(SI), Y0; \
	VMOVUPD 32(SI), Y1; \
	VMOVUPD 64(SI), Y2; \
	VMOVUPD 96(SI), Y3

#define TERM4(off, ak) \
	VBROADCASTSD (off)(DX), Y5; \
	VMULPD       Y5, ak, Y6; \
	VADDPD       Y6, Y4, Y4

#define PROD4(j) \
	VXORPD Y4, Y4, Y4; \
	TERM4(32*j, Y0); \
	TERM4(32*j+8, Y1); \
	TERM4(32*j+16, Y2); \
	TERM4(32*j+24, Y3)

#define LOADA5 \
	VMOVUPD 0(SI), Y0; \
	VMOVSD  32(SI), X5; \
	VMOVUPD 40(SI), Y1; \
	VMOVSD  72(SI), X6; \
	VMOVUPD 80(SI), Y2; \
	VMOVSD  112(SI), X7; \
	VMOVUPD 120(SI), Y3; \
	VMOVSD  152(SI), X8; \
	VMOVUPD 160(SI), Y4; \
	VMOVSD  192(SI), X9

#define TERM5(off, ak, ak4) \
	VBROADCASTSD (off)(DX), Y12; \
	VMULPD       Y12, ak, Y13; \
	VADDPD       Y13, Y10, Y10; \
	VMULSD       X12, ak4, X14; \
	VADDSD       X14, X11, X11

#define PROD5(j) \
	VXORPD Y10, Y10, Y10; \
	VXORPD X11, X11, X11; \
	TERM5(40*j, Y0, X5); \
	TERM5(40*j+8, Y1, X6); \
	TERM5(40*j+16, Y2, X7); \
	TERM5(40*j+24, Y3, X8); \
	TERM5(40*j+32, Y4, X9)

// c's column j minus the product's (mulSub), or the product stored over
// a's (mulRight).
#define SUB4(j) \
	VMOVUPD (32*j)(DI), Y7; \
	VSUBPD  Y4, Y7, Y7; \
	VMOVUPD Y7, (32*j)(DI)

#define SUB5(j) \
	VMOVUPD (40*j)(DI), Y15; \
	VSUBPD  Y10, Y15, Y15; \
	VMOVUPD Y15, (40*j)(DI); \
	VMOVSD  (40*j+32)(DI), X15; \
	VSUBSD  X11, X15, X15; \
	VMOVSD  X15, (40*j+32)(DI)

#define SET5(j) \
	VMOVUPD Y10, (40*j)(DI); \
	VMOVSD  X11, (40*j+32)(DI)

// The L block times the pivot's inverse, stored over the L block (DI =
// SI), each product column from the columns of a held in registers. At
// b = 4 the product columns are kept in Y8-Y11 and become the held
// columns of the updates; at b = 5, short of registers, they are loaded
// back.
#define MULRIGHT4 \
	MOVQ    SI, DI; \
	LOADA4; \
	PROD4(0); \
	VMOVAPD Y4, Y8; \
	PROD4(1); \
	VMOVAPD Y4, Y9; \
	PROD4(2); \
	VMOVAPD Y4, Y10; \
	PROD4(3); \
	VMOVAPD Y4, Y11; \
	VMOVUPD Y8, 0(DI); \
	VMOVUPD Y9, 32(DI); \
	VMOVUPD Y10, 64(DI); \
	VMOVUPD Y11, 96(DI); \
	VMOVAPD Y8, Y0; \
	VMOVAPD Y9, Y1; \
	VMOVAPD Y10, Y2; \
	VMOVAPD Y11, Y3

#define MULRIGHT5 \
	MOVQ SI, DI; \
	LOADA5; \
	PROD5(0); \
	SET5(0); \
	PROD5(1); \
	SET5(1); \
	PROD5(2); \
	SET5(2); \
	PROD5(3); \
	SET5(3); \
	PROD5(4); \
	SET5(4); \
	LOADA5

// Register plan of the row updates: R12 val, SI the L block, R11 the
// U block of row p at the update's position, DX the b operand (the
// pivot's inverse, then that U block), R8 the column in pCols, CX the
// columns left, R9 slot, AX the destination's block and DI its address.

// func rowUpdate4AVX2(val []float64, factor, uLo int, pCols, slot []int32)
TEXT ·rowUpdate4AVX2(SB), NOSPLIT, $0-88
	MOVQ val_base+0(FP), R12
	MOVQ factor+24(FP), SI
	MOVQ uLo+32(FP), R11
	MOVQ pCols_base+40(FP), R8
	MOVQ pCols_len+48(FP), CX
	MOVQ slot_base+64(FP), R9
	SHLQ $7, SI
	ADDQ R12, SI
	SHLQ $7, R11
	ADDQ R12, R11
	MOVQ CX, DX
	SHLQ $7, DX
	ADDQ R11, DX
	MULRIGHT4
	TESTQ CX, CX
	JZ    done

update:
	MOVLQSX (R8), AX
	MOVLQSX (R9)(AX*4), AX
	TESTQ   AX, AX
	JS      next
	SHLQ    $7, AX
	LEAQ    (R12)(AX*1), DI
	MOVQ    R11, DX
	PROD4(0)
	SUB4(0)
	PROD4(1)
	SUB4(1)
	PROD4(2)
	SUB4(2)
	PROD4(3)
	SUB4(3)

next:
	ADDQ $4, R8
	ADDQ $128, R11
	DECQ CX
	JNZ  update

done:
	VZEROUPPER
	RET

// func rowUpdate5AVX2(val []float64, factor, uLo int, pCols, slot []int32)
TEXT ·rowUpdate5AVX2(SB), NOSPLIT, $0-88
	MOVQ   val_base+0(FP), R12
	MOVQ   factor+24(FP), SI
	MOVQ   uLo+32(FP), R11
	MOVQ   pCols_base+40(FP), R8
	MOVQ   pCols_len+48(FP), CX
	MOVQ   slot_base+64(FP), R9
	IMUL3Q $200, SI, SI
	ADDQ   R12, SI
	IMUL3Q $200, R11, R11
	ADDQ   R12, R11
	IMUL3Q $200, CX, DX
	ADDQ   R11, DX
	MULRIGHT5
	TESTQ  CX, CX
	JZ     done

update:
	MOVLQSX (R8), AX
	MOVLQSX (R9)(AX*4), AX
	TESTQ   AX, AX
	JS      next
	IMUL3Q  $200, AX, AX
	LEAQ    (R12)(AX*1), DI
	MOVQ    R11, DX
	PROD5(0)
	SUB5(0)
	PROD5(1)
	SUB5(1)
	PROD5(2)
	SUB5(2)
	PROD5(3)
	SUB5(3)
	PROD5(4)
	SUB5(4)

next:
	ADDQ $4, R8
	ADDQ $200, R11
	DECQ CX
	JNZ  update

done:
	VZEROUPPER
	RET

// func loadRow4AVX2(val, src []float64, cols, slot []int32)
TEXT ·loadRow4AVX2(SB), NOSPLIT, $0-96
	MOVQ  val_base+0(FP), DI
	MOVQ  src_base+24(FP), SI
	MOVQ  cols_base+48(FP), R8
	MOVQ  cols_len+56(FP), CX
	MOVQ  slot_base+72(FP), R9
	TESTQ CX, CX
	JZ    done

block:
	MOVLQSX (R8), AX
	MOVLQSX (R9)(AX*4), AX
	SHLQ    $7, AX
	PREFETCHT0 2048(SI)
	PREFETCHT0 2112(SI)
	VMOVUPD 0(SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD 64(SI), Y2
	VMOVUPD 96(SI), Y3
	VMOVUPD Y0, 0(DI)(AX*1)
	VMOVUPD Y1, 32(DI)(AX*1)
	VMOVUPD Y2, 64(DI)(AX*1)
	VMOVUPD Y3, 96(DI)(AX*1)
	ADDQ    $128, SI
	ADDQ    $4, R8
	DECQ    CX
	JNZ     block

done:
	VZEROUPPER
	RET

// func loadRow5AVX2(val, src []float64, cols, slot []int32)
TEXT ·loadRow5AVX2(SB), NOSPLIT, $0-96
	MOVQ  val_base+0(FP), DI
	MOVQ  src_base+24(FP), SI
	MOVQ  cols_base+48(FP), R8
	MOVQ  cols_len+56(FP), CX
	MOVQ  slot_base+72(FP), R9
	TESTQ CX, CX
	JZ    done

block:
	MOVLQSX (R8), AX
	MOVLQSX (R9)(AX*4), AX
	IMUL3Q  $200, AX, AX
	PREFETCHT0 2560(SI)
	PREFETCHT0 2624(SI)
	PREFETCHT0 2688(SI)
	VMOVUPD 0(SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD 64(SI), Y2
	VMOVUPD 96(SI), Y3
	VMOVUPD 128(SI), Y4
	VMOVUPD 160(SI), Y5
	VMOVSD  192(SI), X6
	VMOVUPD Y0, 0(DI)(AX*1)
	VMOVUPD Y1, 32(DI)(AX*1)
	VMOVUPD Y2, 64(DI)(AX*1)
	VMOVUPD Y3, 96(DI)(AX*1)
	VMOVUPD Y4, 128(DI)(AX*1)
	VMOVUPD Y5, 160(DI)(AX*1)
	VMOVSD  X6, 192(DI)(AX*1)
	ADDQ    $200, SI
	ADDQ    $4, R8
	DECQ    CX
	JNZ     block

done:
	VZEROUPPER
	RET

// VCVTPD2PS rounds four float64 to float32 as Go's float32() does one
// (CVTSD2SS): both round under MXCSR, which Go leaves at its default —
// round to nearest even, no flush to zero.
// func round32AVX2(dst []float32, src []float64)
TEXT ·round32AVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	CMPQ CX, $8
	JLT  four

eight:
	VCVTPD2PSY 0(SI), X0
	VCVTPD2PSY 32(SI), X1
	VMOVUPS    X0, 0(DI)
	VMOVUPS    X1, 16(DI)
	ADDQ       $64, SI
	ADDQ       $32, DI
	SUBQ       $8, CX
	CMPQ       CX, $8
	JGE        eight

four:
	CMPQ       CX, $4
	JLT        one
	VCVTPD2PSY 0(SI), X0
	VMOVUPS    X0, 0(DI)
	ADDQ       $32, SI
	ADDQ       $16, DI
	SUBQ       $4, CX

one:
	TESTQ     CX, CX
	JZ        done
	VMOVSD    0(SI), X0
	VCVTSD2SS X0, X0, X0
	VMOVSS    X0, 0(DI)
	ADDQ      $8, SI
	ADDQ      $4, DI
	DECQ      CX
	JMP       one

done:
	VZEROUPPER
	RET

// The pivot inversions run invertBlock's Gauss-Jordan sweep on the
// augmented block [A | I], its rows in aug (2n scalars each, row-major):
// R8-R11 (and R12 at b = 5) point at logical rows 0…n-1, so a row swap
// swaps two pointers and moves no data. Per column, written out: the
// first row of largest magnitude, by strict compares in row order (a NaN
// never wins, and a NaN pivot fails the >= 1e-300 test like a small
// one); the pivot row times its reciprocal; then every other row minus
// its multiplier times the pivot row, kept unchanged where the
// multiplier is zero (VCMPPD not-equal-unordered, so a NaN multiplier
// applies). Constants: X15 the |·| mask, X14 1e-300, X13 1.0, Y12 zero;
// AX the pivot row found, BX the column (returned on failure).

#define INVCONSTS \
	VPCMPEQQ Y15, Y15, Y15; \
	VPSRLQ   $1, Y15, Y15; \
	MOVQ     $0x01a56e1fc2f8f359, DX; \
	VMOVQ    DX, X14; \
	MOVQ     $0x3ff0000000000000, DX; \
	VMOVQ    DX, X13; \
	VXORPD   Y12, Y12, Y12

// |row rc's entry at off| into X0, row rc the pivot so far.
#define PIVFIRST(off, rc) \
	MOVQ   rc, AX; \
	VMOVSD off(rc), X0; \
	VANDPD X15, X0, X0

// Row rr becomes the pivot when its magnitude is strictly larger.
#define PIVNEXT(off, rr) \
	VMOVSD   off(rr), X1; \
	VANDPD   X15, X1, X1; \
	VUCOMISD X0, X1; \
	CMOVQHI  rr, AX; \
	VMAXSD   X0, X1, X0

// Row rr takes row rc's place if it is the pivot row found.
#define PIVSWAP(rc, rr) \
	CMPQ    rr, AX; \
	CMOVQEQ rc, rr

// The pivot's check and its reciprocal broadcast into Y2.
#define PIVINV(off, c, rc) \
	MOVQ         $c, BX; \
	VUCOMISD     X14, X0; \
	JCS          fail; \
	VMOVSD       off(rc), X2; \
	VDIVSD       X2, X13, X2; \
	VBROADCASTSD X2, Y2

// Scalars 0-7 of a row: the pivot row scaled into Y3, Y4 and stored.
#define SCALE8(rc) \
	VMULPD  0(rc), Y2, Y3; \
	VMULPD  32(rc), Y2, Y4; \
	VMOVUPD Y3, 0(rc); \
	VMOVUPD Y4, 32(rc)

// q minus fac times the pivot row's part p, at byte off of row rr, kept
// where the mask Y6 (fac != 0) is clear.
#define ELIM(off, p, fac, rr, T7, T8, T9, M) \
	VMULPD    p, fac, T7; \
	VMOVUPD   off(rr), T8; \
	VSUBPD    T7, T8, T9; \
	VBLENDVPD M, T9, T8, T8; \
	VMOVUPD   T8, off(rr)

#define ROWOP4(off, rr) \
	VBROADCASTSD off(rr), Y5; \
	VCMPPD       $4, Y12, Y5, Y6; \
	ELIM(0, Y3, Y5, rr, Y7, Y8, Y9, Y6); \
	ELIM(32, Y4, Y5, rr, Y7, Y8, Y9, Y6)

#define ROWOP5(off, rr) \
	ROWOP4(off, rr); \
	ELIM(64, X10, X5, rr, X7, X8, X9, X6)

#define TRANSPOSE4 \
	VUNPCKLPD  Y1, Y0, Y4; \
	VUNPCKHPD  Y1, Y0, Y5; \
	VUNPCKLPD  Y3, Y2, Y6; \
	VUNPCKHPD  Y3, Y2, Y7; \
	VPERM2F128 $0x20, Y6, Y4, Y0; \
	VPERM2F128 $0x20, Y7, Y5, Y1; \
	VPERM2F128 $0x31, Y6, Y4, Y2; \
	VPERM2F128 $0x31, Y7, Y5, Y3

// func invertBlock4AVX2(blk, aug []float64) int
TEXT ·invertBlock4AVX2(SB), NOSPLIT, $0-56
	MOVQ blk_base+0(FP), SI
	MOVQ aug_base+24(FP), R8
	LEAQ 64(R8), R9
	LEAQ 128(R8), R10
	LEAQ 192(R8), R11
	INVCONSTS

	// [A | I]: A's columns transposed into the rows' first halves.
	VMOVUPD 0(SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD 64(SI), Y2
	VMOVUPD 96(SI), Y3
	TRANSPOSE4
	VMOVUPD Y0, 0(R8)
	VMOVUPD Y1, 0(R9)
	VMOVUPD Y2, 0(R10)
	VMOVUPD Y3, 0(R11)
	VMOVUPD Y12, 32(R8)
	VMOVUPD Y12, 32(R9)
	VMOVUPD Y12, 32(R10)
	VMOVUPD Y12, 32(R11)
	VMOVSD  X13, 32(R8)
	VMOVSD  X13, 40(R9)
	VMOVSD  X13, 48(R10)
	VMOVSD  X13, 56(R11)

	// Column 0.
	PIVFIRST(0, R8)
	PIVNEXT(0, R9)
	PIVNEXT(0, R10)
	PIVNEXT(0, R11)
	PIVSWAP(R8, R9)
	PIVSWAP(R8, R10)
	PIVSWAP(R8, R11)
	MOVQ AX, R8
	PIVINV(0, 0, R8)
	SCALE8(R8)
	ROWOP4(0, R9)
	ROWOP4(0, R10)
	ROWOP4(0, R11)

	// Column 1.
	PIVFIRST(8, R9)
	PIVNEXT(8, R10)
	PIVNEXT(8, R11)
	PIVSWAP(R9, R10)
	PIVSWAP(R9, R11)
	MOVQ AX, R9
	PIVINV(8, 1, R9)
	SCALE8(R9)
	ROWOP4(8, R8)
	ROWOP4(8, R10)
	ROWOP4(8, R11)

	// Column 2.
	PIVFIRST(16, R10)
	PIVNEXT(16, R11)
	PIVSWAP(R10, R11)
	MOVQ AX, R10
	PIVINV(16, 2, R10)
	SCALE8(R10)
	ROWOP4(16, R8)
	ROWOP4(16, R9)
	ROWOP4(16, R11)

	// Column 3.
	PIVFIRST(24, R11)
	PIVINV(24, 3, R11)
	SCALE8(R11)
	ROWOP4(24, R8)
	ROWOP4(24, R9)
	ROWOP4(24, R10)

	// The inverse: the rows' second halves, transposed into blk.
	VMOVUPD 32(R8), Y0
	VMOVUPD 32(R9), Y1
	VMOVUPD 32(R10), Y2
	VMOVUPD 32(R11), Y3
	TRANSPOSE4
	VMOVUPD Y0, 0(SI)
	VMOVUPD Y1, 32(SI)
	VMOVUPD Y2, 64(SI)
	VMOVUPD Y3, 96(SI)
	MOVQ    $-1, ret+48(FP)
	VZEROUPPER
	RET

fail:
	MOVQ BX, ret+48(FP)
	VZEROUPPER
	RET

// Row ri of [A | I] at b = 5: A's entries (i, 0…4) — scalars i, 5+i, …
// of the column-major block — then the identity's row.
#define AUGROW5(i, ri) \
	VMOVSD  (8*i)(SI), X0; \
	VMOVSD  X0, 0(ri); \
	VMOVSD  (8*(5+i))(SI), X0; \
	VMOVSD  X0, 8(ri); \
	VMOVSD  (8*(10+i))(SI), X0; \
	VMOVSD  X0, 16(ri); \
	VMOVSD  (8*(15+i))(SI), X0; \
	VMOVSD  X0, 24(ri); \
	VMOVSD  (8*(20+i))(SI), X0; \
	VMOVSD  X0, 32(ri); \
	VMOVUPD Y12, 40(ri); \
	VMOVSD  X12, 72(ri); \
	VMOVSD  X13, (40+8*i)(ri)

// Row ri's second half into row i of the column-major inverse.
#define INVROW5(i, ri) \
	VMOVSD 40(ri), X0; \
	VMOVSD X0, (8*i)(SI); \
	VMOVSD 48(ri), X0; \
	VMOVSD X0, (8*(5+i))(SI); \
	VMOVSD 56(ri), X0; \
	VMOVSD X0, (8*(10+i))(SI); \
	VMOVSD 64(ri), X0; \
	VMOVSD X0, (8*(15+i))(SI); \
	VMOVSD 72(ri), X0; \
	VMOVSD X0, (8*(20+i))(SI)

// Scalars 0-9 of the pivot row: SCALE8 and the last two into X10.
#define SCALE10(rc) \
	SCALE8(rc); \
	VMULPD  64(rc), X2, X10; \
	VMOVUPD X10, 64(rc)

// func invertBlock5AVX2(blk, aug []float64) int
TEXT ·invertBlock5AVX2(SB), NOSPLIT, $0-56
	MOVQ blk_base+0(FP), SI
	MOVQ aug_base+24(FP), R8
	LEAQ 80(R8), R9
	LEAQ 160(R8), R10
	LEAQ 240(R8), R11
	LEAQ 320(R8), R12
	INVCONSTS
	AUGROW5(0, R8)
	AUGROW5(1, R9)
	AUGROW5(2, R10)
	AUGROW5(3, R11)
	AUGROW5(4, R12)

	// Column 0.
	PIVFIRST(0, R8)
	PIVNEXT(0, R9)
	PIVNEXT(0, R10)
	PIVNEXT(0, R11)
	PIVNEXT(0, R12)
	PIVSWAP(R8, R9)
	PIVSWAP(R8, R10)
	PIVSWAP(R8, R11)
	PIVSWAP(R8, R12)
	MOVQ AX, R8
	PIVINV(0, 0, R8)
	SCALE10(R8)
	ROWOP5(0, R9)
	ROWOP5(0, R10)
	ROWOP5(0, R11)
	ROWOP5(0, R12)

	// Column 1.
	PIVFIRST(8, R9)
	PIVNEXT(8, R10)
	PIVNEXT(8, R11)
	PIVNEXT(8, R12)
	PIVSWAP(R9, R10)
	PIVSWAP(R9, R11)
	PIVSWAP(R9, R12)
	MOVQ AX, R9
	PIVINV(8, 1, R9)
	SCALE10(R9)
	ROWOP5(8, R8)
	ROWOP5(8, R10)
	ROWOP5(8, R11)
	ROWOP5(8, R12)

	// Column 2.
	PIVFIRST(16, R10)
	PIVNEXT(16, R11)
	PIVNEXT(16, R12)
	PIVSWAP(R10, R11)
	PIVSWAP(R10, R12)
	MOVQ AX, R10
	PIVINV(16, 2, R10)
	SCALE10(R10)
	ROWOP5(16, R8)
	ROWOP5(16, R9)
	ROWOP5(16, R11)
	ROWOP5(16, R12)

	// Column 3.
	PIVFIRST(24, R11)
	PIVNEXT(24, R12)
	PIVSWAP(R11, R12)
	MOVQ AX, R11
	PIVINV(24, 3, R11)
	SCALE10(R11)
	ROWOP5(24, R8)
	ROWOP5(24, R9)
	ROWOP5(24, R10)
	ROWOP5(24, R12)

	// Column 4.
	PIVFIRST(32, R12)
	PIVINV(32, 4, R12)
	SCALE10(R12)
	ROWOP5(32, R8)
	ROWOP5(32, R9)
	ROWOP5(32, R10)
	ROWOP5(32, R11)

	INVROW5(0, R8)
	INVROW5(1, R9)
	INVROW5(2, R10)
	INVROW5(3, R11)
	INVROW5(4, R12)
	MOVQ $-1, ret+48(FP)
	VZEROUPPER
	RET

fail:
	MOVQ BX, ret+48(FP)
	VZEROUPPER
	RET
