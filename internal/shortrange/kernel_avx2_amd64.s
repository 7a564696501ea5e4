//go:build !hacc_noasm

#include "textflag.h"

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	RET

// func fsrSpan2AVX2(x0, y0, z0, x1, y1, z1 float32, nx, ny, nz *float32, n int64, kc *float32) (sx0, sy0, sz0, sx1, sy1, sz1 float32)
//
// Short-range force of one contiguous neighbor span on two targets, 8 pair
// terms per 256-bit AVX2 vector: the low 128-bit half holds target 0 and
// the high half target 1, and VBROADCASTF128 loads the same 4 neighbors
// into both halves. n must be a multiple of 4 (the Go caller handles the
// tail); kc is the 32-byte-aligned broadcast-constant table built by
// buildKernelConsts, shared with the SSE2 kernel (offsets: 0 magic,
// 32 half, 64 threeHalf, 96 eps, 128 rc2, 160+32i ci), each group a full
// 8-lane memory operand.
//
// Each half repeats fsrSpanSSE instruction for instruction — the same
// operations on the same operands in the same order, no FMA:
//
//	s   = (dx*dx + dy*dy) + dz*dz
//	y0  = frombits(magic - bits(s+eps)>>1)      VPSRLD/VPSUBD on float lanes
//	y  *= 1.5 - ((0.5*(s+eps))*y)*y             three times
//	f   = (y*y)*y - Horner(poly5, s)
//	f  &= (s < rc2) mask                        VCMPPS — the fsel select
//	acc += d * f                                per-lane partial sums
//
// and reduces its own 4 lane partials as (l0+l2)+(l1+l3) with in-lane
// permutes, so every target's sums are bitwise those of fsrSpanSSE.
//
// Register plan: Y0-Y2 dx/dy/dz, Y3 s, Y4/Y13/Y14 temps, Y5-Y7 lane
// accumulators, Y8-Y10 target broadcast, Y11 halfx, Y12 y, Y15 rc2.
TEXT ·fsrSpan2AVX2(SB), NOSPLIT, $0-88
	VBROADCASTSS   x0+0(FP), X8
	VBROADCASTSS   x1+12(FP), X13
	VINSERTF128    $1, X13, Y8, Y8       // [x0 x0 x0 x0 | x1 x1 x1 x1]
	VBROADCASTSS   y0+4(FP), X9
	VBROADCASTSS   y1+16(FP), X13
	VINSERTF128    $1, X13, Y9, Y9
	VBROADCASTSS   z0+8(FP), X10
	VBROADCASTSS   z1+20(FP), X13
	VINSERTF128    $1, X13, Y10, Y10
	MOVQ           nx+24(FP), SI
	MOVQ           ny+32(FP), DI
	MOVQ           nz+40(FP), DX
	MOVQ           n+48(FP), CX
	MOVQ           kc+56(FP), R8
	SHRQ           $2, CX
	VXORPS         Y5, Y5, Y5
	VXORPS         Y6, Y6, Y6
	VXORPS         Y7, Y7, Y7
	VMOVAPS        128(R8), Y15          // rc2 (loop-invariant)
	TESTQ          CX, CX
	JZ             reduce

loop:
	VBROADCASTF128 (SI), Y0              // xj, the same 4 lanes in both halves
	VBROADCASTF128 (DI), Y1              // yj
	VBROADCASTF128 (DX), Y2              // zj
	VSUBPS         Y8, Y0, Y0            // dx = xj - xi
	VSUBPS         Y9, Y1, Y1
	VSUBPS         Y10, Y2, Y2
	VMULPS         Y0, Y0, Y3            // dx²
	VMULPS         Y1, Y1, Y4
	VADDPS         Y4, Y3, Y3            // + dy²
	VMULPS         Y2, Y2, Y4
	VADDPS         Y4, Y3, Y3            // s

	// rsqrt(s+eps): bit-level estimate + 3 Newton iterations
	VADDPS         96(R8), Y3, Y11       // x = s + eps
	VPSRLD         $1, Y11, Y4           // bits(x) >> 1
	VMOVAPS        0(R8), Y12
	VPSUBD         Y4, Y12, Y12          // y0 = magic - bits(x)>>1 (as float lanes)
	VMULPS         32(R8), Y11, Y11      // halfx = 0.5*x
	VMULPS         Y12, Y11, Y13         // iteration 1: (0.5x)*y
	VMULPS         Y12, Y13, Y13         // ((0.5x)*y)*y
	VMOVAPS        64(R8), Y14
	VSUBPS         Y13, Y14, Y14         // 1.5 - ...
	VMULPS         Y14, Y12, Y12         // y *=
	VMULPS         Y12, Y11, Y13         // iteration 2
	VMULPS         Y12, Y13, Y13
	VMOVAPS        64(R8), Y14
	VSUBPS         Y13, Y14, Y14
	VMULPS         Y14, Y12, Y12
	VMULPS         Y12, Y11, Y13         // iteration 3
	VMULPS         Y12, Y13, Y13
	VMOVAPS        64(R8), Y14
	VSUBPS         Y13, Y14, Y14
	VMULPS         Y14, Y12, Y12

	// f = (y*y)*y - poly5(s)
	VMULPS         Y12, Y12, Y13         // y*y
	VMULPS         Y12, Y13, Y13         // (y*y)*y
	VMULPS         320(R8), Y3, Y14      // s*c5
	VADDPS         288(R8), Y14, Y14     // c4 + s*c5
	VMULPS         Y3, Y14, Y14
	VADDPS         256(R8), Y14, Y14     // c3 + ...
	VMULPS         Y3, Y14, Y14
	VADDPS         224(R8), Y14, Y14     // c2 + ...
	VMULPS         Y3, Y14, Y14
	VADDPS         192(R8), Y14, Y14     // c1 + ...
	VMULPS         Y3, Y14, Y14
	VADDPS         160(R8), Y14, Y14     // c0 + ... = poly5(s)
	VSUBPS         Y14, Y13, Y13         // f

	// cutoff: f &= (s < rc2)
	VCMPPS         $1, Y15, Y3, Y14      // mask = s < rc2
	VANDPS         Y14, Y13, Y13

	// accumulate d*f into the lane sums
	VMULPS         Y13, Y0, Y0
	VADDPS         Y0, Y5, Y5
	VMULPS         Y13, Y1, Y1
	VADDPS         Y1, Y6, Y6
	VMULPS         Y13, Y2, Y2
	VADDPS         Y2, Y7, Y7

	ADDQ           $16, SI
	ADDQ           $16, DI
	ADDQ           $16, DX
	DECQ           CX
	JNZ            loop

reduce:
	// per half: (l0+l2)+(l1+l3), element 0 of each 128-bit lane
	VPERMILPS      $0x4E, Y5, Y0         // [l2 l3 l0 l1 | ...]
	VADDPS         Y5, Y0, Y0            // [l2+l0, l3+l1, ... | ...]
	VPERMILPS      $0x01, Y0, Y1         // element 0 = l3+l1
	VADDPS         Y1, Y0, Y0
	VMOVSS         X0, sx0+64(FP)
	VEXTRACTF128   $1, Y0, X1
	VMOVSS         X1, sx1+76(FP)
	VPERMILPS      $0x4E, Y6, Y0
	VADDPS         Y6, Y0, Y0
	VPERMILPS      $0x01, Y0, Y1
	VADDPS         Y1, Y0, Y0
	VMOVSS         X0, sy0+68(FP)
	VEXTRACTF128   $1, Y0, X1
	VMOVSS         X1, sy1+80(FP)
	VPERMILPS      $0x4E, Y7, Y0
	VADDPS         Y7, Y0, Y0
	VPERMILPS      $0x01, Y0, Y1
	VADDPS         Y1, Y0, Y0
	VMOVSS         X0, sz0+72(FP)
	VEXTRACTF128   $1, Y0, X1
	VMOVSS         X1, sz1+84(FP)
	VZEROUPPER
	RET
