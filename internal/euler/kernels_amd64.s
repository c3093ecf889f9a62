#include "textflag.h"

// The AVX2 twin of fluxEdges4 (kernels.go) in the interlaced layout,
// (sv, sc) = (4, 1): one vertex's state (p, u, v, w) is one 32-byte
// vector, and so is its residual. Four consecutive edges of the sweep
// take the four lanes. Per side, the gather is four 16-byte loads, four
// 16-byte inserts and four unpacks — a 4×4 transpose into one vector per
// component; the normals transpose the same way out of the edge records.
// Every expression is fluxEdges4's, operand for operand: θ summed left to
// right, no fused multiply-add, VSQRTPD, |x| as an AND with the sign
// mask, and `if l2 > lam { lam = l2 }` as VCMPPD (GT_OQ) plus VBLENDVPD —
// not VMAXPD, which picks differently when a lane is NaN. The four flux
// vectors are transposed back to one [f0 f1 f2 f3] vector per edge and
// scattered one edge at a time in edge order: load r[a], add f, store;
// load r[b], subtract f, store. So every vertex receives the same
// contributions in the same order as from fluxEdges4, and the residual
// is its bits.
//
// edgeData is 32 bytes: a and b (int32) at 0 and 4, the normal's X, Y, Z
// (float64) at 8, 16 and 24.
//
// Register plan: SI edges, DI idx (0 when nil), R8 q, R9 r, CX the edges
// to sweep, BX the edges swept; R10-R13 the four edges' records, AX and
// DX vertex byte offsets. Y0-Y2 the normal (nx, ny, nz), Y3-Y6 the a
// side's (p, u, v, w), Y7-Y10 the b side's, Y11-Y15 temporaries. The
// frame holds the broadcast β at 0(SP), 0.5 at 32(SP) and the sign-clear
// mask at 64(SP).

// One side's states: component vectors p, u, v, w of the vertices at
// byte offset off in the four records e0-e3.
#define GATHER(off, p, u, v, w) \
	MOVLQSX      off(R10), AX; \
	SHLQ         $5, AX; \
	MOVLQSX      off(R12), DX; \
	SHLQ         $5, DX; \
	VMOVUPD      (R8)(AX*1), X11; \
	VINSERTF128  $1, (R8)(DX*1), Y11, Y11; \
	VMOVUPD      16(R8)(AX*1), X13; \
	VINSERTF128  $1, 16(R8)(DX*1), Y13, Y13; \
	MOVLQSX      off(R11), AX; \
	SHLQ         $5, AX; \
	MOVLQSX      off(R13), DX; \
	SHLQ         $5, DX; \
	VMOVUPD      (R8)(AX*1), X12; \
	VINSERTF128  $1, (R8)(DX*1), Y12, Y12; \
	VMOVUPD      16(R8)(AX*1), X14; \
	VINSERTF128  $1, 16(R8)(DX*1), Y14, Y14; \
	VUNPCKLPD    Y12, Y11, p; \
	VUNPCKHPD    Y12, Y11, u; \
	VUNPCKLPD    Y14, Y13, v; \
	VUNPCKHPD    Y14, Y13, w

// One momentum component of the flux, fluxEdges4's
// 0.5*((ua*ta+pa*n)+(ub*tb+pb*n)) - hl*(ub-ua), into dst. n, ua and ub
// are overwritten; t is a temporary.
#define MOMENTUM(ua, ub, n, dst, t) \
	VMULPD Y11, ua, dst; \
	VMULPD n, Y3, t; \
	VADDPD t, dst, dst; \
	VMULPD n, Y7, t; \
	VMULPD Y12, ub, n; \
	VADDPD t, n, n; \
	VADDPD n, dst, dst; \
	VMULPD 32(SP), dst, dst; \
	VSUBPD ua, ub, ua; \
	VMULPD ua, Y14, ua; \
	VSUBPD ua, dst, dst

// Edge e's flux vector f into r: + at its a endpoint, then − at its b.
#define SCATTER(e, f) \
	MOVLQSX 0(e), AX; \
	SHLQ    $5, AX; \
	MOVLQSX 4(e), DX; \
	SHLQ    $5, DX; \
	VMOVUPD (R9)(AX*1), Y11; \
	VADDPD  f, Y11, Y11; \
	VMOVUPD Y11, (R9)(AX*1); \
	VMOVUPD (R9)(DX*1), Y12; \
	VSUBPD  f, Y12, Y12; \
	VMOVUPD Y12, (R9)(DX*1)

// The bound check of a listed position in reg.
#define CHECK(reg) \
	CMPQ reg, edges_len+16(FP); \
	JAE  done; \
	SHLQ $5, reg; \
	ADDQ SI, reg

// func fluxEdges4AVX2(beta float64, edges []edgeData, idx []int32, q, r []float64) int
TEXT ·fluxEdges4AVX2(SB), NOSPLIT, $96-112
	MOVQ edges_base+8(FP), SI
	MOVQ idx_base+32(FP), DI
	MOVQ q_base+56(FP), R8
	MOVQ r_base+80(FP), R9
	MOVQ edges_len+16(FP), CX
	TESTQ DI, DI
	JZ   counted
	MOVQ idx_len+40(FP), CX

counted:
	ANDQ $-4, CX
	XORQ BX, BX
	VBROADCASTSD beta+0(FP), Y0
	VMOVUPD      Y0, 0(SP)
	MOVQ         $0x3fe0000000000000, AX
	MOVQ         AX, X0
	VBROADCASTSD X0, Y0
	VMOVUPD      Y0, 32(SP)
	VPCMPEQQ     Y0, Y0, Y0
	VPSRLQ       $1, Y0, Y0
	VMOVUPD      Y0, 64(SP)
	CMPQ BX, CX
	JGE  done

group:
	TESTQ DI, DI
	JNZ   listed
	MOVQ  BX, R10
	SHLQ  $5, R10
	ADDQ  SI, R10
	LEAQ  32(R10), R11
	LEAQ  64(R10), R12
	LEAQ  96(R10), R13
	JMP   records

listed:
	MOVLQSX (DI)(BX*4), R10
	MOVLQSX 4(DI)(BX*4), R11
	MOVLQSX 8(DI)(BX*4), R12
	MOVLQSX 12(DI)(BX*4), R13
	CHECK(R10)
	CHECK(R11)
	CHECK(R12)
	CHECK(R13)

records:
	// The normals: [nx ny] and [ny nz] of edges 0 and 2 against 1 and 3.
	VMOVUPD     8(R10), X11
	VINSERTF128 $1, 8(R12), Y11, Y11
	VMOVUPD     8(R11), X12
	VINSERTF128 $1, 8(R13), Y12, Y12
	VUNPCKLPD   Y12, Y11, Y0
	VUNPCKHPD   Y12, Y11, Y1
	VMOVUPD     16(R10), X11
	VINSERTF128 $1, 16(R12), Y11, Y11
	VMOVUPD     16(R11), X12
	VINSERTF128 $1, 16(R13), Y12, Y12
	VUNPCKHPD   Y12, Y11, Y2
	GATHER(0, Y3, Y4, Y5, Y6)
	GATHER(4, Y7, Y8, Y9, Y10)

	// θa = ua*nx + va*ny + wa*nz and θb, left to right.
	VMULPD Y0, Y4, Y11
	VMULPD Y1, Y5, Y12
	VADDPD Y12, Y11, Y11
	VMULPD Y2, Y6, Y12
	VADDPD Y12, Y11, Y11
	VMULPD Y0, Y8, Y12
	VMULPD Y1, Y9, Y13
	VADDPD Y13, Y12, Y12
	VMULPD Y2, Y10, Y13
	VADDPD Y13, Y12, Y12

	// β|S|², |S|² = nx*nx + ny*ny + nz*nz.
	VMULPD Y0, Y0, Y13
	VMULPD Y1, Y1, Y14
	VADDPD Y14, Y13, Y13
	VMULPD Y2, Y2, Y14
	VADDPD Y14, Y13, Y13
	VMULPD 0(SP), Y13, Y13

	// lam = |θa| + sqrt(θa*θa + β|S|²), l2 likewise from θb.
	VMULPD  Y11, Y11, Y14
	VADDPD  Y13, Y14, Y14
	VSQRTPD Y14, Y14
	VANDPD  64(SP), Y11, Y15
	VADDPD  Y14, Y15, Y14
	VMULPD  Y12, Y12, Y15
	VADDPD  Y13, Y15, Y15
	VSQRTPD Y15, Y15
	VANDPD  64(SP), Y12, Y13
	VADDPD  Y15, Y13, Y15

	// if l2 > lam { lam = l2 }; hl = 0.5*lam.
	VCMPPD    $0x1e, Y14, Y15, Y13
	VBLENDVPD Y13, Y15, Y14, Y14
	VMULPD    32(SP), Y14, Y14

	// f1 into Y13 (nx, ua, ub spent), f0 into Y0, f2 into Y4, f3 into Y5.
	MOMENTUM(Y4, Y8, Y0, Y13, Y15)
	VMULPD 0(SP), Y11, Y0
	VMULPD 0(SP), Y12, Y4
	VADDPD Y4, Y0, Y0
	VMULPD 32(SP), Y0, Y0
	VSUBPD Y3, Y7, Y4
	VMULPD Y4, Y14, Y4
	VSUBPD Y4, Y0, Y0
	MOMENTUM(Y5, Y9, Y1, Y4, Y8)
	MOMENTUM(Y6, Y10, Y2, Y5, Y8)

	// Back to one [f0 f1 f2 f3] vector per edge, Y7-Y10 for edges 0-3.
	VUNPCKLPD   Y13, Y0, Y1
	VUNPCKHPD   Y13, Y0, Y2
	VUNPCKLPD   Y5, Y4, Y3
	VUNPCKHPD   Y5, Y4, Y6
	VINSERTF128 $1, X3, Y1, Y7
	VINSERTF128 $1, X6, Y2, Y8
	VPERM2F128  $0x31, Y3, Y1, Y9
	VPERM2F128  $0x31, Y6, Y2, Y10
	SCATTER(R10, Y7)
	SCATTER(R11, Y8)
	SCATTER(R12, Y9)
	SCATTER(R13, Y10)

	ADDQ $4, BX
	CMPQ BX, CX
	JLT  group

done:
	MOVQ BX, ret+104(FP)
	VZEROUPPER
	RET
