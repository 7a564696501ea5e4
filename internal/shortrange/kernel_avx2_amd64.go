//go:build !hacc_noasm

package shortrange

// hasAVX2 reports whether this host can run fsrSpan2AVX2: the CPU has AVX
// and AVX2, and the OS has enabled XSAVE with XMM and YMM state in XCR0.
var hasAVX2 = detectAVX2()

// useAVX2 selects the pairwise AVX2 kernel in applyRangesDispatch. It
// equals hasAVX2 in production; tests flip it to force either path.
var useAVX2 = hasAVX2

// cpuid executes CPUID with the given leaf and subleaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low 32 bits of XCR0. Only valid when CPUID reports
// OSXSAVE.
func xgetbv() (eax uint32)

// detectAVX2 checks every condition AVX2 code needs: CPUID.1:ECX reports
// OSXSAVE (bit 27) and AVX (bit 28), XCR0 has XMM and YMM state enabled
// (bits 1 and 2; a CPU can support AVX while the OS leaves YMM state
// off), and CPUID.(7,0):EBX reports AVX2 (bit 5).
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xgetbv()&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// fsrSpan2AVX2 accumulates the short-range force of one contiguous neighbor
// span (n a multiple of 4) on two targets at once: the low 128-bit half of
// each YMM vector works for target 0 and the high half for target 1, both
// over the same 4 neighbor lanes. Each half repeats fsrSpanSSE instruction
// for instruction, so each target's sums are bitwise those of fsrSpanSSE.
// kc is the 32-byte-aligned broadcast-constant table. Implemented in
// kernel_avx2_amd64.s.
//
//go:noescape
func fsrSpan2AVX2(x0, y0, z0, x1, y1, z1 float32, nx, ny, nz *float32, n int64, kc *float32) (sx0, sy0, sz0, sx1, sy1, sz1 float32)

// applyPairsAVX2 applies the spans to targets [0, len(lx)&^1) two at a
// time and returns how many targets it handled; the caller runs any odd
// last target through the SSE2 kernel. Per target it accumulates exactly
// as the SSE2 path does: the span's 4-blocks, then its tail, span by span.
func applyPairsAVX2(k *Kernel, lx, ly, lz, px, py, pz []float32, ranges [][2]int32, ax, ay, az []float32) int {
	gm, kc := k.gm, k.kc
	np := len(lx) &^ 1
	for i := 0; i < np; i += 2 {
		x0, y0, z0 := lx[i], ly[i], lz[i]
		x1, y1, z1 := lx[i+1], ly[i+1], lz[i+1]
		var sx0, sy0, sz0, sx1, sy1, sz1 float32
		for _, r := range ranges {
			nx := px[r[0]:r[1]]
			ny := py[r[0]:r[1]]
			nz := pz[r[0]:r[1]]
			n := len(nx)
			ny = ny[:n]
			nz = nz[:n]
			n4 := n &^ 3
			if n4 > 0 {
				bx0, by0, bz0, bx1, by1, bz1 := fsrSpan2AVX2(x0, y0, z0, x1, y1, z1, &nx[0], &ny[0], &nz[0], int64(n4), kc)
				sx0 += bx0
				sy0 += by0
				sz0 += bz0
				sx1 += bx1
				sy1 += by1
				sz1 += bz1
			}
			if n4 < n {
				sx0, sy0, sz0 = k.spanTail(x0, y0, z0, nx[n4:], ny[n4:], nz[n4:], sx0, sy0, sz0)
				sx1, sy1, sz1 = k.spanTail(x1, y1, z1, nx[n4:], ny[n4:], nz[n4:], sx1, sy1, sz1)
			}
		}
		ax[i] += gm * sx0
		ay[i] += gm * sy0
		az[i] += gm * sz0
		ax[i+1] += gm * sx1
		ay[i+1] += gm * sy1
		az[i+1] += gm * sz1
	}
	return np
}
