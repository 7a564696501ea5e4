// Package shortrange implements HACC's short/close-range force machinery
// (paper §II–III): the polynomial-residual pair kernel
//
//	f_SR(s) = (s+ε)^(−3/2) − poly5(s),   s = r·r,  zero beyond r_cut,
//
// the numeric construction of poly5 by sampling the filtered PM grid force
// of a point source and least-squares fitting (the paper's force-matching
// procedure), and a P3M chaining-mesh evaluator (the Roadrunner-style
// direct particle-particle solver used as the second short-range backend).
// PR 1 made the mesh persistent: Rebuild re-bins in place (retaining CSR
// offsets, accumulators, and per-worker walk scratch) and ComputeForcesPool
// runs the pair kernel over par.Pool with a shared atomic cell cursor.
//
// PR 7 made the kernel copy-free and vector-shaped (the paper's §III BG/Q
// shaping, on x86 terms): production walks call Kernel.ApplyRanges with
// ordered (start,end) spans over the SoA working arrays instead of
// gathering neighbor coordinates (the mesh's z-contiguous CSR layout folds
// the 27-cell stencil into ≤9 spans, see cellLoopRanges), and the inner
// loop dispatches on amd64 to assembly — an AVX2 kernel taking two targets
// per 256-bit vector when CPUID and XGETBV report AVX2 at run time, else a
// 4-lane SSE2 kernel, the two bitwise equal (build tag hacc_noasm opts
// out) — or to a bounds-check-free 4-wide tiled Go loop elsewhere. The copy path (Apply) remains as the scalar oracle; see
// DESIGN.md "Short-range kernel" for the equivalence model and measured
// ns/interaction.
package shortrange
