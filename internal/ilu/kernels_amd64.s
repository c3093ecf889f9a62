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

#define SET4(j) VMOVUPD Y4, (32*j)(DI)

#define SET5(j) \
	VMOVUPD Y10, (40*j)(DI); \
	VMOVSD  X11, (40*j+32)(DI)

// func mulSub4AVX2(c, a, b []float64)
TEXT ·mulSub4AVX2(SB), NOSPLIT, $0-72
	MOVQ c_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	LOADA4
	PROD4(0)
	SUB4(0)
	PROD4(1)
	SUB4(1)
	PROD4(2)
	SUB4(2)
	PROD4(3)
	SUB4(3)
	VZEROUPPER
	RET

// func mulSub5AVX2(c, a, b []float64)
TEXT ·mulSub5AVX2(SB), NOSPLIT, $0-72
	MOVQ c_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	LOADA5
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
	VZEROUPPER
	RET

// func mulRight4AVX2(a, b []float64)
TEXT ·mulRight4AVX2(SB), NOSPLIT, $0-48
	MOVQ a_base+0(FP), DI
	MOVQ a_base+0(FP), SI
	MOVQ b_base+24(FP), DX
	LOADA4
	PROD4(0)
	SET4(0)
	PROD4(1)
	SET4(1)
	PROD4(2)
	SET4(2)
	PROD4(3)
	SET4(3)
	VZEROUPPER
	RET

// func mulRight5AVX2(a, b []float64)
TEXT ·mulRight5AVX2(SB), NOSPLIT, $0-48
	MOVQ a_base+0(FP), DI
	MOVQ a_base+0(FP), SI
	MOVQ b_base+24(FP), DX
	LOADA5
	PROD5(0)
	SET5(0)
	PROD5(1)
	SET5(1)
	PROD5(2)
	SET5(2)
	PROD5(3)
	SET5(3)
	PROD5(4)
	SET5(4)
	VZEROUPPER
	RET
