//go:build !hacc_noasm

#include "textflag.h"

// func fsrSpanSSE(xi, yi, zi float32, nx, ny, nz *float32, n int64, kc *float32) (sx, sy, sz float32)
//
// Short-range force of one contiguous neighbor span on one target, 4
// neighbors per 128-bit SSE2 vector. n must be a multiple of 4 (Go caller
// handles the tail); kc is the 32-byte-aligned broadcast-constant table
// built by buildKernelConsts, shared with the AVX2 kernel: 8-lane groups at
// stride 32 (offsets: 0 magic, 32 half, 64 threeHalf, 96 eps, 128 rc2,
// 160+32i ci), of which this kernel reads the low 16 bytes as aligned
// memory operands so every XMM register is free for live state.
//
// Per lane the arithmetic reproduces the Go scalar helpers operation for
// operation (same association, no FMA contraction):
//
//	s   = (dx*dx + dy*dy) + dz*dz
//	y0  = frombits(magic - bits(s+eps)>>1)      PSRLL/PSUBL on float lanes
//	y  *= 1.5 - ((0.5*(s+eps))*y)*y             three times
//	f   = (y*y)*y - Horner(poly5, s)
//	f  &= (s < rc2) mask                        CMPPS — the fsel select
//	acc += d * f                                per-lane partial sums
//
// so each pair term is bit-identical to Kernel.FSR; the horizontal reduce
// (l0+l2)+(l1+l3) at the end is the only reassociation (documented-ULP).
//
// Register plan: X0-X2 dx/dy/dz, X3 s, X4/X13/X14 temps, X5-X7 lane
// accumulators, X8-X10 target broadcast, X11 halfx, X12 y, X15 rc2.
TEXT ·fsrSpanSSE(SB), NOSPLIT, $0-68
	MOVSS  xi+0(FP), X8
	SHUFPS $0x00, X8, X8
	MOVSS  yi+4(FP), X9
	SHUFPS $0x00, X9, X9
	MOVSS  zi+8(FP), X10
	SHUFPS $0x00, X10, X10
	MOVQ   nx+16(FP), SI
	MOVQ   ny+24(FP), DI
	MOVQ   nz+32(FP), DX
	MOVQ   n+40(FP), CX
	MOVQ   kc+48(FP), R8
	SHRQ   $2, CX
	XORPS  X5, X5
	XORPS  X6, X6
	XORPS  X7, X7
	MOVAPS 128(R8), X15      // rc2 (loop-invariant)
	TESTQ  CX, CX
	JZ     reduce

loop:
	MOVUPS (SI), X0          // xj
	MOVUPS (DI), X1          // yj
	MOVUPS (DX), X2          // zj
	SUBPS  X8, X0            // dx = xj - xi
	SUBPS  X9, X1
	SUBPS  X10, X2
	MOVAPS X0, X3
	MULPS  X3, X3            // dx²
	MOVAPS X1, X4
	MULPS  X4, X4
	ADDPS  X4, X3            // + dy²
	MOVAPS X2, X4
	MULPS  X4, X4
	ADDPS  X4, X3            // s

	// rsqrt(s+eps): bit-level estimate + 3 Newton iterations
	MOVAPS X3, X11
	ADDPS  96(R8), X11       // x = s + eps
	MOVAPS X11, X4
	PSRLL  $1, X4            // bits(x) >> 1
	MOVAPS 0(R8), X12
	PSUBL  X4, X12           // y0 = magic - bits(x)>>1 (as float lanes)
	MULPS  32(R8), X11       // halfx = 0.5*x
	MOVAPS X11, X13          // iteration 1
	MULPS  X12, X13          // (0.5x)*y
	MULPS  X12, X13          // ((0.5x)*y)*y
	MOVAPS 64(R8), X14
	SUBPS  X13, X14          // 1.5 - ...
	MULPS  X14, X12          // y *=
	MOVAPS X11, X13          // iteration 2
	MULPS  X12, X13
	MULPS  X12, X13
	MOVAPS 64(R8), X14
	SUBPS  X13, X14
	MULPS  X14, X12
	MOVAPS X11, X13          // iteration 3
	MULPS  X12, X13
	MULPS  X12, X13
	MOVAPS 64(R8), X14
	SUBPS  X13, X14
	MULPS  X14, X12

	// f = (y*y)*y - poly5(s)
	MOVAPS X12, X13
	MULPS  X12, X13          // y*y
	MULPS  X12, X13          // (y*y)*y
	MOVAPS 320(R8), X14      // c5
	MULPS  X3, X14
	ADDPS  288(R8), X14      // c4 + s*c5
	MULPS  X3, X14
	ADDPS  256(R8), X14      // c3 + ...
	MULPS  X3, X14
	ADDPS  224(R8), X14      // c2 + ...
	MULPS  X3, X14
	ADDPS  192(R8), X14      // c1 + ...
	MULPS  X3, X14
	ADDPS  160(R8), X14      // c0 + ... = poly5(s)
	SUBPS  X14, X13          // f

	// cutoff: f &= (s < rc2)
	MOVAPS X3, X14
	CMPPS  X15, X14, $1      // mask = s < rc2
	ANDPS  X14, X13

	// accumulate d*f into the lane sums
	MULPS  X13, X0
	ADDPS  X0, X5
	MULPS  X13, X1
	ADDPS  X1, X6
	MULPS  X13, X2
	ADDPS  X2, X7

	ADDQ   $16, SI
	ADDQ   $16, DI
	ADDQ   $16, DX
	DECQ   CX
	JNZ    loop

reduce:
	// horizontal sum (l0+l2)+(l1+l3) of each accumulator
	MOVAPS  X5, X0
	MOVHLPS X5, X0           // X0 = [l2, l3, ...]
	ADDPS   X5, X0           // [l0+l2, l1+l3, ...]
	MOVAPS  X0, X1
	SHUFPS  $0x01, X0, X1    // X1[0] = l1+l3
	ADDSS   X1, X0
	MOVSS   X0, sx+56(FP)
	MOVAPS  X6, X0
	MOVHLPS X6, X0
	ADDPS   X6, X0
	MOVAPS  X0, X1
	SHUFPS  $0x01, X0, X1
	ADDSS   X1, X0
	MOVSS   X0, sy+60(FP)
	MOVAPS  X7, X0
	MOVHLPS X7, X0
	ADDPS   X7, X0
	MOVAPS  X0, X1
	SHUFPS  $0x01, X0, X1
	ADDSS   X1, X0
	MOVSS   X0, sz+64(FP)
	RET
