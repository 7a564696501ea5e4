package main

import (
	"fmt"

	"hacc/internal/core"
)

// workload is one named input set of the benchmark: a full simulation
// configuration plus how its ranks are launched.
type workload struct {
	name string
	// why is the one-sentence reason the workload is in the suite (it is
	// also the "why" of BENCHMARK.json).
	why   string
	ranks int
	// wire launches the ranks over loopback TCP (mpi.RunWire) instead of
	// as goroutines of one in-process world (mpi.Run).
	wire bool
	// config returns the workload's configuration for a seed; tiny shrinks
	// it to a few seconds of work for the smoke test.
	config func(seed uint64, tiny bool) core.Config
}

// Each workload stays within ranks × threads ≤ 2 and runs in one process.
var workloads = []workload{
	{
		name:  "tree-halo",
		why:   "clustered halo on the PPTreePM tree, 1 rank x 2 stealing threads: kernel, walk and build carry the step, so short-range and par work shows here",
		ranks: 1,
		config: func(seed uint64, tiny bool) core.Config {
			c := core.Config{
				NGrid: 32, NParticles: 32, BoxMpc: 64,
				// z 3→1 in 6 steps is the clustered IC's reference
				// schedule (ic.ClusteredOptions keeps drift inside the
				// overload shell on it).
				ZInit: 3, ZFinal: 1, Steps: 6, SubCycles: 5,
				Solver: core.PPTreePM, ICKind: "halo",
				Threads: 2, StealWalks: true, Seed: seed,
			}
			if tiny {
				c.NGrid, c.NParticles, c.Steps = 16, 16, 2
			}
			return c
		},
	},
	{
		name:  "pm-lcdm",
		why:   "PM-only Zel'dovich on 2 goroutine ranks: CIC, the pencil Poisson solve and ghost exchange carry the step; the control kernel and tree changes must not move",
		ranks: 2,
		config: func(seed uint64, tiny bool) core.Config {
			c := core.Config{
				NGrid: 64, NParticles: 64, BoxMpc: 256,
				ZInit: 24, ZFinal: 2, Steps: 8, SubCycles: 5,
				Solver: core.PMOnly, Threads: 1, Seed: seed,
			}
			if tiny {
				c.NGrid, c.NParticles, c.Steps = 16, 16, 2
			}
			return c
		},
	},
	{
		name:  "wire-insitu",
		why:   "P3M on 2 ranks over loopback TCP with a checkpoint and in-situ P(k)+FOF every step: the only workload where frames cross sockets and gio and analysis run",
		ranks: 2,
		wire:  true,
		config: func(seed uint64, tiny bool) core.Config {
			c := core.Config{
				// 64 Mpc/h at 32³ is small enough that FOF finds halos by
				// z=0. With 2 sub-cycles, 12 steps keep every particle's
				// drift inside the overload shell (6 steps fail on some
				// seeds).
				NGrid: 32, NParticles: 32, BoxMpc: 64,
				ZInit: 24, ZFinal: 0.5, Steps: 12, SubCycles: 2,
				Solver: core.P3M, Threads: 1, Seed: seed,
				AnalysisEvery: 1, CheckpointEvery: 1,
			}
			if tiny {
				c.NGrid, c.NParticles, c.BoxMpc, c.Steps = 16, 16, 32, 4
			}
			return c
		},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
