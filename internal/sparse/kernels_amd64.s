#include "textflag.h"

// AVX2 twins of the unrolled Go BCSR kernels (bcsr.go). Blocks are
// column-major, so one block column — the coefficients of one x entry in
// the block's rows — is one VMOVUPD-width operand (rows 0-3) plus, at
// b = 5, one scalar (row 4). The lanes are the block's rows. Per block,
// T = col₀·x₀, then T += colⱼ·xⱼ for j = 1…b−1, then S += T: the Go
// kernels' s_r += v(r,0)*x0 + v(r,1)*x1 + … evaluated left to right, no
// fused multiply-add, default MXCSR. S starts from +0, or from the
// row's y when add is set, and is stored once per row. The rows are
// rows[lo:hi], or lo…hi-1 themselves when rows is nil.
//
// Each kernel checks what it indexes through data: each row against nb,
// its block extent against len(colIdx), and each block column against
// ncol (x holds ncol block entries). At the first failure it returns the
// position of the row it was on, with that row unwritten; every row
// before it is done. The Go kernel then resumes there and panics as it
// always did.
//
// Register plan: SI val, DI colIdx, R8 rowPtr, R9 rows (0 when nil),
// R10 the row position, R11 its end, R12 ncol, R13 x, R14 y; AX the
// row, BX the block, CX the row's end block, DX a byte offset; Y0/X1 the
// row's running value S (rows 0-3 / row 4), Y2/X3 a block's sum T, Y4-Y8
// the broadcast x entries, Y9/X10 the products.

// The block extent of row AX into BX:CX, or to stop on a bad one.
#define EXTENT(nnzb) \
	MOVLQSX (R8)(AX*4), BX; \
	MOVLQSX 4(R8)(AX*4), CX; \
	TESTQ   BX, BX; \
	JS      stop; \
	CMPQ    CX, nnzb; \
	JHI     stop

// x_j for block BX's column j broadcast into Y4-Y7 (b = 4) or Y4-Y8,
// then DX the block's byte offset in val.
#define GATHER4 \
	MOVLQSX      (DI)(BX*4), DX; \
	CMPQ         DX, R12; \
	JCC          stop; \
	SHLQ         $5, DX; \
	VBROADCASTSD 0(R13)(DX*1), Y4; \
	VBROADCASTSD 8(R13)(DX*1), Y5; \
	VBROADCASTSD 16(R13)(DX*1), Y6; \
	VBROADCASTSD 24(R13)(DX*1), Y7; \
	MOVQ         BX, DX; \
	SHLQ         $7, DX

#define GATHER5 \
	MOVLQSX      (DI)(BX*4), DX; \
	CMPQ         DX, R12; \
	JCC          stop; \
	IMUL3Q       $40, DX, DX; \
	VBROADCASTSD 0(R13)(DX*1), Y4; \
	VBROADCASTSD 8(R13)(DX*1), Y5; \
	VBROADCASTSD 16(R13)(DX*1), Y6; \
	VBROADCASTSD 24(R13)(DX*1), Y7; \
	VBROADCASTSD 32(R13)(DX*1), Y8; \
	IMUL3Q       $200, BX, DX

// S += the block at SI+DX times the broadcasts.
#define BLOCK4 \
	VMULPD 0(SI)(DX*1), Y4, Y2; \
	VMULPD 32(SI)(DX*1), Y5, Y9; \
	VADDPD Y9, Y2, Y2; \
	VMULPD 64(SI)(DX*1), Y6, Y9; \
	VADDPD Y9, Y2, Y2; \
	VMULPD 96(SI)(DX*1), Y7, Y9; \
	VADDPD Y9, Y2, Y2; \
	VADDPD Y2, Y0, Y0

#define COL5(off, y, x) \
	VMULPD off(SI)(DX*1), y, Y9; \
	VMULSD (off+32)(SI)(DX*1), x, X10; \
	VADDPD Y9, Y2, Y2; \
	VADDSD X10, X3, X3

#define BLOCK5 \
	VMULPD 0(SI)(DX*1), Y4, Y2; \
	VMULSD 32(SI)(DX*1), X4, X3; \
	COL5(40, Y5, X5); \
	COL5(80, Y6, X6); \
	COL5(120, Y7, X7); \
	COL5(160, Y8, X8); \
	VADDPD Y2, Y0, Y0; \
	VADDSD X3, X1, X1

// The row's byte offset into y (DX = AX·8b).
#define ROW4 MOVQ AX, DX; SHLQ $5, DX
#define ROW5 IMUL3Q $40, AX, DX

// func mulVec4AVX2(rowPtr, colIdx []int32, val []float64, rows []int32, lo, hi, nb, ncol int, add bool, x, y []float64) int
TEXT ·mulVec4AVX2(SB), NOSPLIT, $0-192
	MOVQ rowPtr_base+0(FP), R8
	MOVQ colIdx_base+24(FP), DI
	MOVQ val_base+48(FP), SI
	MOVQ rows_base+72(FP), R9
	MOVQ lo+96(FP), R10
	MOVQ hi+104(FP), R11
	MOVQ ncol+120(FP), R12
	MOVQ x_base+136(FP), R13
	MOVQ y_base+160(FP), R14
	CMPQ R10, R11
	JGE  stop

row:
	MOVQ    R10, AX
	TESTQ   R9, R9
	JZ      rowset
	MOVLQSX (R9)(R10*4), AX

rowset:
	CMPQ    AX, nb+112(FP)
	JCC     stop
	EXTENT(colIdx_len+32(FP))
	ROW4
	VXORPD  Y0, Y0, Y0
	CMPB    add+128(FP), $0
	JEQ     blocks
	VMOVUPD (R14)(DX*1), Y0

blocks:
	CMPQ BX, CX
	JGE  store

block:
	GATHER4
	BLOCK4
	INCQ BX
	CMPQ BX, CX
	JLT  block

store:
	ROW4
	VMOVUPD Y0, (R14)(DX*1)
	INCQ    R10
	CMPQ    R10, R11
	JLT     row

stop:
	MOVQ R10, ret+184(FP)
	VZEROUPPER
	RET

// func mulVec5AVX2(rowPtr, colIdx []int32, val []float64, rows []int32, lo, hi, nb, ncol int, add bool, x, y []float64) int
TEXT ·mulVec5AVX2(SB), NOSPLIT, $0-192
	MOVQ rowPtr_base+0(FP), R8
	MOVQ colIdx_base+24(FP), DI
	MOVQ val_base+48(FP), SI
	MOVQ rows_base+72(FP), R9
	MOVQ lo+96(FP), R10
	MOVQ hi+104(FP), R11
	MOVQ ncol+120(FP), R12
	MOVQ x_base+136(FP), R13
	MOVQ y_base+160(FP), R14
	CMPQ R10, R11
	JGE  stop

row:
	MOVQ    R10, AX
	TESTQ   R9, R9
	JZ      rowset
	MOVLQSX (R9)(R10*4), AX

rowset:
	CMPQ    AX, nb+112(FP)
	JCC     stop
	EXTENT(colIdx_len+32(FP))
	ROW5
	VXORPD  Y0, Y0, Y0
	VXORPD  X1, X1, X1
	CMPB    add+128(FP), $0
	JEQ     blocks
	VMOVUPD (R14)(DX*1), Y0
	VMOVSD  32(R14)(DX*1), X1

blocks:
	CMPQ BX, CX
	JGE  store

block:
	GATHER5
	BLOCK5
	INCQ BX
	CMPQ BX, CX
	JLT  block

store:
	ROW5
	VMOVUPD Y0, (R14)(DX*1)
	VMOVSD  X1, 32(R14)(DX*1)
	INCQ    R10
	CMPQ    R10, R11
	JLT     row

stop:
	MOVQ R10, ret+184(FP)
	VZEROUPPER
	RET
