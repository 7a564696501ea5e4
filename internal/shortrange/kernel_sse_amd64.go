//go:build !hacc_noasm

package shortrange

import (
	"math"
	"unsafe"
)

// The amd64 range kernels vectorize the inner loop over 4-neighbor blocks —
// the x86 reproduction of the paper's hand-vectorized QPX kernel (§III).
// Two assembly variants share one arithmetic recipe:
//
//	fsrSpanSSE    baseline SSE2, one target × 4 neighbor lanes per 128-bit
//	              vector; always available on amd64.
//	fsrSpan2AVX2  AVX2, two targets × the same 4 neighbor lanes per 256-bit
//	              vector (kernel_avx2_amd64.go); chosen once at package init
//	              when CPUID and XGETBV report AVX2 with YMM state enabled.
//
// Per lane both reproduce the pure-Go numerics exactly: the bit-level rsqrt
// estimate (integer shift/subtract on the float lanes), three Newton
// refinements with the same operation order as rsqrt, the Horner poly5, and
// the cutoff as a CMPPS less-than mask ANDed into the force (the fsel
// select, data-parallel); neither uses FMA. Only the accumulation
// association differs from the scalar oracle: each of the 4 lanes keeps a
// partial sum over j≡lane (mod 4), reduced as (l0+l2)+(l1+l3) per span,
// with the ≤3 tail neighbors added scalarly after — the documented-ULP
// model pinned by TestApplyRangesULPBound. Because the AVX2
// kernel's two halves are each that same 4-lane computation for one target,
// the two variants are bitwise identical target by target. Build with
// `hacc_noasm` to fall back to the portable tiled Go kernel.

// kcGroups is the layout of the broadcast-constant table consumed by both
// assembly kernels: 11 groups of 8 identical float32 lanes, 32-byte aligned
// so each group is a full aligned YMM operand for the AVX2 kernel and its
// low 16 bytes an aligned XMM operand for the SSE2 kernel. One table feeds
// both, so their constants cannot drift apart.
// Group order (byte offset = 32·index):
//
//	0 magic  1 half  2 threeHalf  3 eps  4 rc2  5..10 c0..c5
const kcGroups = 11

// buildKernelConsts fills the kernel's aligned broadcast table.
func buildKernelConsts(k *Kernel) {
	buf := make([]float32, 8*kcGroups+7)
	off := 0
	for uintptr(unsafe.Pointer(&buf[off]))%32 != 0 {
		off++
	}
	t := buf[off : off+8*kcGroups]
	vals := [kcGroups]float32{
		math.Float32frombits(0x5f3759df), 0.5, 1.5, k.eps, k.rc2,
		k.c[0], k.c[1], k.c[2], k.c[3], k.c[4], k.c[5],
	}
	for g, v := range vals {
		for l := 0; l < 8; l++ {
			t[8*g+l] = v
		}
	}
	k.kcBuf = buf // keeps the table alive; kc points into it
	k.kc = &t[0]
}

// fsrSpanSSE accumulates the short-range force of one contiguous neighbor
// span (n a multiple of 4) on a single target, 4 neighbors per 128-bit
// vector; kc is the 32-byte-aligned broadcast-constant table. Implemented
// in kernel_sse_amd64.s.
//
//go:noescape
func fsrSpanSSE(xi, yi, zi float32, nx, ny, nz *float32, n int64, kc *float32) (sx, sy, sz float32)

// applyRangesDispatch routes ApplyRanges to the assembly kernels: targets
// go through the AVX2 kernel in pairs when useAVX2 is set, and any target
// left over (all of them without AVX2) through the SSE2 kernel. Per target
// and span, full 4-blocks go to the assembly and the ≤3 tail neighbors to
// spanTail, so span boundaries never copy anything.
func applyRangesDispatch(k *Kernel, lx, ly, lz, px, py, pz []float32, ranges [][2]int32, ax, ay, az []float32) int64 {
	nt := len(lx)
	ly = ly[:nt]
	lz = lz[:nt]
	ax = ax[:nt]
	ay = ay[:nt]
	az = az[:nt]
	var listLen int64
	for _, r := range ranges {
		listLen += int64(r[1] - r[0])
	}
	i := 0
	if useAVX2 {
		i = applyPairsAVX2(k, lx, ly, lz, px, py, pz, ranges, ax, ay, az)
	}
	gm, kc := k.gm, k.kc
	for ; i < nt; i++ {
		xi, yi, zi := lx[i], ly[i], lz[i]
		var sx, sy, sz float32
		for _, r := range ranges {
			nx := px[r[0]:r[1]]
			ny := py[r[0]:r[1]]
			nz := pz[r[0]:r[1]]
			n := len(nx)
			ny = ny[:n]
			nz = nz[:n]
			n4 := n &^ 3
			if n4 > 0 {
				bx, by, bz := fsrSpanSSE(xi, yi, zi, &nx[0], &ny[0], &nz[0], int64(n4), kc)
				sx += bx
				sy += by
				sz += bz
			}
			if n4 < n {
				sx, sy, sz = k.spanTail(xi, yi, zi, nx[n4:], ny[n4:], nz[n4:], sx, sy, sz)
			}
		}
		ax[i] += gm * sx
		ay[i] += gm * sy
		az[i] += gm * sz
	}
	return int64(nt) * listLen
}

// spanTail adds the span's ≤3 tail neighbors to one target's running sums
// in scalar order. Both assembly paths share it, so their tails agree
// bitwise.
func (k *Kernel) spanTail(xi, yi, zi float32, nx, ny, nz []float32, sx, sy, sz float32) (float32, float32, float32) {
	rc2, eps := k.rc2, k.eps
	c0, c1, c2, c3, c4, c5 := k.c[0], k.c[1], k.c[2], k.c[3], k.c[4], k.c[5]
	ny = ny[:len(nx)]
	nz = nz[:len(nx)]
	for j := range nx {
		dx := nx[j] - xi
		dy := ny[j] - yi
		dz := nz[j] - zi
		s := dx*dx + dy*dy + dz*dz
		f := (rsqrt3(s+eps) - poly5(s, c0, c1, c2, c3, c4, c5)) * cutMask(s, rc2)
		sx += dx * f
		sy += dy * f
		sz += dz * f
	}
	return sx, sy, sz
}
