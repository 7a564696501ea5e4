package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"hacc/internal/core"
	"hacc/internal/machine"
	"hacc/internal/mpi"
	"hacc/internal/pfft"
	"hacc/internal/shortrange"
)

// FFTResult is one row of the Table I reproduction.
type FFTResult struct {
	N       int
	Ranks   int
	Pencil  bool
	R2C     bool    // real-to-complex production path (Hermitian-halved)
	Seconds float64 // wall-clock per 3-D transform
}

// RunFFT times `reps` forward distributed FFTs of an n³ grid on the given
// number of ranks.
func RunFFT(n, ranks int, pencil bool, reps int) (FFTResult, error) {
	res := FFTResult{N: n, Ranks: ranks, Pencil: pencil}
	var elapsed time.Duration
	err := mpi.Run(ranks, func(c *mpi.Comm) {
		var p *pfft.Pencil
		if pencil {
			p = pfft.NewAuto(c, [3]int{n, n, n})
		} else {
			p = pfft.NewSlab(c, [3]int{n, n, n})
		}
		rng := rand.New(rand.NewSource(int64(c.Rank())))
		local := make([]complex128, p.LocalX().Count())
		for i := range local {
			local[i] = complex(rng.NormFloat64(), 0)
		}
		mpi.Barrier(c)
		start := time.Now()
		data := local
		for r := 0; r < reps; r++ {
			spec := p.Forward(data)
			data = p.Inverse(spec)
		}
		mpi.Barrier(c)
		if c.Rank() == 0 {
			elapsed = time.Since(start)
		}
	})
	if err != nil {
		return res, err
	}
	res.Seconds = elapsed.Seconds() / float64(2*reps)
	return res, nil
}

// RunFFTReal times `reps` r2c forward + c2r inverse round trips of an n³
// real field on the given number of ranks — the production long-range path,
// where Hermitian symmetry halves the x transforms, both transposes, and
// the spectral volume.
func RunFFTReal(n, ranks, reps int) (FFTResult, error) {
	res := FFTResult{N: n, Ranks: ranks, Pencil: true, R2C: true}
	var elapsed time.Duration
	err := mpi.Run(ranks, func(c *mpi.Comm) {
		p := pfft.NewAuto(c, [3]int{n, n, n})
		rng := rand.New(rand.NewSource(int64(c.Rank())))
		local := make([]float64, p.LocalX().Count())
		for i := range local {
			local[i] = rng.NormFloat64()
		}
		mpi.Barrier(c)
		start := time.Now()
		for r := 0; r < reps; r++ {
			spec := p.ForwardReal(local)
			p.InverseReal(spec, local)
		}
		mpi.Barrier(c)
		if c.Rank() == 0 {
			elapsed = time.Since(start)
		}
	})
	if err != nil {
		return res, err
	}
	res.Seconds = elapsed.Seconds() / float64(2*reps)
	return res, nil
}

// PrintFFTTable writes Table I-style rows.
func PrintFFTTable(w io.Writer, rows []FFTResult) {
	fmt.Fprintf(w, "%-10s %-8s %-12s %-14s %s\n", "FFT Size", "Ranks", "Decomp", "Wall [s]", "per-rank grid")
	for _, r := range rows {
		d := "pencil"
		if !r.Pencil {
			d = "slab"
		}
		if r.R2C {
			d += "-r2c"
		}
		per := float64(r.N) * float64(r.N) * float64(r.N) / float64(r.Ranks)
		fmt.Fprintf(w, "%4d^3     %-8d %-12s %-14.6f %8.0f\n", r.N, r.Ranks, d, r.Seconds, per)
	}
}

// KernelResult is one point of the Fig. 5 reproduction: force-kernel
// throughput vs. neighbor-list size and thread count.
type KernelResult struct {
	ListSize        int
	Threads         int
	InteractionsSec float64
}

// RunKernel measures the production short-range kernel's pair throughput
// (Kernel.ApplyRanges, the entry point every force walk calls) on synthetic
// leaves of `leafSize` targets against a pre-gathered neighbor list of
// `listSize`, passed as the single span [0, listSize), processed by
// `threads` goroutines (the paper's ranks×threads sweep).
func RunKernel(listSize, leafSize, threads int, dur time.Duration) KernelResult {
	res, err := shortrange.FitGridForce(shortrange.FitOptions{Seed: 1})
	if err != nil {
		panic(err)
	}
	k := shortrange.NewKernel(res.Poly, res.RCut, 0.01, 0.1)
	rng := rand.New(rand.NewSource(2))
	mk := func(n int) []float32 {
		v := make([]float32, n)
		for i := range v {
			v[i] = rng.Float32() * 3
		}
		return v
	}
	type work struct {
		lx, ly, lz, nx, ny, nz, ax, ay, az []float32
		ranges                             [][2]int32
	}
	ws := make([]work, threads)
	for t := range ws {
		ws[t] = work{
			lx: mk(leafSize), ly: mk(leafSize), lz: mk(leafSize),
			nx: mk(listSize), ny: mk(listSize), nz: mk(listSize),
			ax: make([]float32, leafSize), ay: make([]float32, leafSize), az: make([]float32, leafSize),
			ranges: [][2]int32{{0, int32(listSize)}},
		}
	}
	done := make(chan int64, threads)
	start := time.Now()
	for t := 0; t < threads; t++ {
		go func(w *work) {
			var n int64
			for time.Since(start) < dur {
				n += k.ApplyRanges(w.lx, w.ly, w.lz, w.nx, w.ny, w.nz, w.ranges, w.ax, w.ay, w.az)
			}
			done <- n
		}(&ws[t])
	}
	var total int64
	for t := 0; t < threads; t++ {
		total += <-done
	}
	wall := time.Since(start).Seconds()
	return KernelResult{ListSize: listSize, Threads: threads, InteractionsSec: float64(total) / wall}
}

// PrintKernelTable writes the Fig. 5 matrix: % of the best-observed rate.
func PrintKernelTable(w io.Writer, rows []KernelResult) {
	best := 0.0
	for _, r := range rows {
		if r.InteractionsSec > best {
			best = r.InteractionsSec
		}
	}
	fmt.Fprintf(w, "%-10s %-9s %-18s %-12s %s\n", "ListSize", "Threads", "Pairs/s", "%best", "model GFlop/s")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10d %-9d %-18.3e %-12.1f %.2f\n",
			r.ListSize, r.Threads, r.InteractionsSec,
			100*r.InteractionsSec/best,
			r.InteractionsSec*machine.FlopsPerInteraction/1e9)
	}
}

// PoissonResult is one point of the Fig. 6 reproduction.
type PoissonResult struct {
	Ranks       int
	N           int
	Slab        bool
	NsPerPoint  float64 // wall-clock per solve per grid point, ns
	SecPerSolve float64
}

// RunPoisson times full Poisson solves (density → three acceleration
// components) on an n³ grid over `ranks` ranks.
func RunPoisson(n, ranks int, slab bool, reps int) (PoissonResult, error) {
	res := PoissonResult{Ranks: ranks, N: n, Slab: slab}
	cfg := core.Config{
		NGrid: n, NParticles: n, BoxMpc: float64(n) * 10,
		ZInit: 30, ZFinal: 29, Steps: 1, SubCycles: 1,
		Solver: core.PMOnly, Seed: 9, SlabFFT: slab,
	}
	var elapsed time.Duration
	err := mpi.Run(ranks, func(c *mpi.Comm) {
		s, err := core.New(c, cfg)
		if err != nil {
			panic(err)
		}
		mpi.Barrier(c)
		start := time.Now()
		for r := 0; r < reps; r++ {
			if err := s.Step(); err != nil {
				panic(err)
			}
			s.StepIndex = 0 // rewind so the same step can repeat
		}
		mpi.Barrier(c)
		if c.Rank() == 0 {
			elapsed = time.Since(start)
		}
	})
	if err != nil {
		return res, err
	}
	res.SecPerSolve = elapsed.Seconds() / float64(2*reps) // two PM solves/step
	res.NsPerPoint = res.SecPerSolve * 1e9 / (float64(n) * float64(n) * float64(n))
	return res, nil
}

// PrintPoissonTable writes Fig. 6-style rows.
func PrintPoissonTable(w io.Writer, rows []PoissonResult) {
	fmt.Fprintf(w, "%-8s %-8s %-8s %-16s %s\n", "Ranks", "Grid", "Decomp", "s/solve", "ns/point")
	for _, r := range rows {
		d := "pencil"
		if r.Slab {
			d = "slab"
		}
		fmt.Fprintf(w, "%-8d %3d^3    %-8s %-16.5f %.2f\n", r.Ranks, r.N, d, r.SecPerSolve, r.NsPerPoint)
	}
}
