package shortrange

import (
	"math/rand"
	"testing"
)

// benchPoly is a fixed coefficient set with the magnitudes FitGridForce
// produces for the default σ=0.8 filter (hardcoded so the bench-smoke CI
// step does not pay for a grid-force fit).
var benchPoly = [6]float64{0.2695, -0.0520, 0.0101, -1.25e-3, 8.6e-5, -2.45e-6}

// benchKernelSetup builds a synthetic leaf-vs-27-cell problem in the shape
// the walks produce: nt targets against 27 cells of `cell` neighbors laid
// out contiguously in one SoA array, addressed either as a pre-gathered
// copy (the old path) or as 9 coalesced (start,end) spans (the new path —
// the chaining mesh's z-contiguous CSR layout folds each (dx,dy) column of
// three cells into one span).
func benchKernelSetup(nt, cell int) (k *Kernel, lx, ly, lz, px, py, pz []float32, ranges [][2]int32) {
	k = NewKernel(benchPoly, 3.0, 0.01, 0.1)
	rng := rand.New(rand.NewSource(42))
	mk := func(n int) []float32 {
		v := make([]float32, n)
		for i := range v {
			v[i] = rng.Float32() * 9
		}
		return v
	}
	lx, ly, lz = mk(nt), mk(nt), mk(nt)
	nn := 27 * cell
	px, py, pz = mk(nn), mk(nn), mk(nn)
	for c := 0; c < 9; c++ {
		ranges = append(ranges, [2]int32{int32(3 * c * cell), int32(3 * (c + 1) * cell)})
	}
	return
}

// BenchmarkKernelInteraction is the ns/interaction micro-benchmark for the
// short-range force kernel (DESIGN.md bench index). Sub-benchmarks:
//
//	scalar-copy:  the pre-PR 7 leaf evaluation — gather all 27 cells into
//	              contiguous scratch with append copies, then the 2-way
//	              unrolled scalar kernel (the applyCopy oracle).
//	scalar:       the scalar kernel alone on a pre-gathered list (isolates
//	              the gather cost from the kernel cost).
//	tiled-go:     the portable tiled range kernel (what non-amd64 and
//	              `hacc_noasm` builds run).
//	tiled-ranges: the production dispatch — ApplyRanges over coalesced
//	              spans, copy-free (on amd64 the AVX2 pairwise kernel when
//	              the host has it, else SSE2).
//	sse2, avx2:   ApplyRanges forced onto one amd64 assembly kernel; each
//	              is skipped where it cannot run (avx2 without AVX2, both
//	              under hacc_noasm or off amd64).
func BenchmarkKernelInteraction(b *testing.B) {
	const nt, cell = 64, 64
	k, lx, ly, lz, px, py, pz, ranges := benchKernelSetup(nt, cell)
	nn := len(px)
	ax := make([]float32, nt)
	ay := make([]float32, nt)
	az := make([]float32, nt)
	perIter := float64(nt) * float64(nn)

	b.Run("scalar-copy", func(b *testing.B) {
		var nx, ny, nz []float32
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			nx, ny, nz = nx[:0], ny[:0], nz[:0]
			for _, r := range ranges {
				nx = append(nx, px[r[0]:r[1]]...)
				ny = append(ny, py[r[0]:r[1]]...)
				nz = append(nz, pz[r[0]:r[1]]...)
			}
			k.applyCopy(lx, ly, lz, nx, ny, nz, ax, ay, az)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*perIter), "ns/interaction")
	})
	b.Run("scalar", func(b *testing.B) {
		nx := append([]float32(nil), px...)
		ny := append([]float32(nil), py...)
		nz := append([]float32(nil), pz...)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k.applyCopy(lx, ly, lz, nx, ny, nz, ax, ay, az)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*perIter), "ns/interaction")
	})
	b.Run("tiled-go", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			applyRangesTiled(k, lx, ly, lz, px, py, pz, ranges, ax, ay, az)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*perIter), "ns/interaction")
	})
	b.Run("tiled-ranges", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k.ApplyRanges(lx, ly, lz, px, py, pz, ranges, ax, ay, az)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*perIter), "ns/interaction")
	})
	for _, path := range []string{"sse2", "avx2"} {
		b.Run(path, func(b *testing.B) {
			forceKernelPath(b, path)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k.ApplyRanges(lx, ly, lz, px, py, pz, ranges, ax, ay, az)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*perIter), "ns/interaction")
		})
	}
}
