package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hacc/internal/core"
	"hacc/internal/mpi"
)

// launch runs body on every rank of the workload's world: goroutine ranks
// of one in-process world, or ranks joined by loopback TCP sockets. The
// rendezvous socket lives under dir (a relative path keeps it inside the
// checkout and under the unix socket path limit).
func launch(w workload, dir string, body func(c *mpi.Comm)) error {
	if !w.wire {
		return mpi.Run(w.ranks, body)
	}
	rdv, err := os.MkdirTemp(dir, "rdv")
	if err != nil {
		return err
	}
	defer os.RemoveAll(rdv)
	return mpi.RunWire(w.ranks, mpi.WireOptions{
		Transport:  "tcp",
		Rendezvous: filepath.Join(rdv, "s"),
		Timeout:    60 * time.Second,
	}, body)
}

// counts are the exact counters a fixed seed must reproduce run to run.
// All are totals over the stepping phase, summed over ranks.
type counts struct {
	Interactions int64 `json:"shortrange.interactions"`
	NodesVisited int64 `json:"tree.nodes_visited"`
	Msgs         int64 `json:"mpi.msgs"`
	Bytes        int64 `json:"mpi.bytes"`
	CkptBytes    int64 `json:"gio.checkpoint_bytes"`
}

// untraced is the outcome of one end-to-end launch with tracing off:
// core.New on every rank, then Simulation.Run to the final redshift.
type untraced struct {
	setup    time.Duration
	steps    []time.Duration // callback to callback on rank 0
	runWall  time.Duration   // the whole Run on rank 0
	substeps int64
	nGlobal  int64
	counts   counts
	flops    float64
	// Timers' model split of the walk+kernel time, summed over ranks.
	modelKernel, modelWalk time.Duration
	final                  finalState
}

// runOpts are the variations of an untraced launch.
type runOpts struct {
	checkRef bool // compare the final P(k) with the stored reference
	// nudge moves every initial position by one ulp (calibration of the
	// reference tolerance).
	nudge bool
}

// runUntraced performs one end-to-end launch of w and checks its outputs;
// the error is a failed launch or a failed correctness check.
func runUntraced(w workload, cfg core.Config, dir string, opt runOpts) (*untraced, error) {
	ckptRoot := ""
	if cfg.CheckpointEvery > 0 {
		ckptRoot = filepath.Join(dir, "u", "ckpt")
		cfg.CheckpointDir = ckptRoot
		defer os.RemoveAll(filepath.Join(dir, "u"))
	}
	res := &untraced{}
	stats := make([]mpi.CommStats, w.ranks)
	finals := make([]rankFinal, w.ranks)
	t0 := time.Now()
	err := launch(w, dir, func(c *mpi.Comm) {
		sim, err := core.New(c, cfg)
		if err != nil {
			panic(err)
		}
		mpi.Barrier(c)
		if c.Rank() == 0 {
			res.setup = time.Since(t0)
		}
		if opt.nudge {
			nudge(sim)
		}
		before := c.Stats()
		start := time.Now()
		last := start
		err = sim.Run(func(step int, a float64) {
			if c.Rank() == 0 {
				now := time.Now()
				res.steps = append(res.steps, now.Sub(last))
				last = now
			}
		})
		if err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			res.runWall = time.Since(start)
			res.substeps = sim.SubstepsDone
		}
		stats[c.Rank()] = diffStats(c.Stats(), before)
		g := sim.GlobalCounters()
		if c.Rank() == 0 {
			res.counts.Interactions = g.KernelInteractions
			res.counts.NodesVisited = g.WalkNodes
			res.flops = g.Flops()
		}
		finals[c.Rank()] = captureFinal(sim)
		// Model split, read as the program reports it.
		finals[c.Rank()].modelKernel = sim.Timers.Get("kernel")
		finals[c.Rank()].modelWalk = sim.Timers.Get("walk")
	})
	if err != nil {
		return nil, fmt.Errorf("launch: %w", err)
	}
	for _, s := range stats {
		res.counts.Msgs += s.Msgs
		res.counts.Bytes += s.Bytes
	}
	for _, f := range finals {
		res.modelKernel += f.modelKernel
		res.modelWalk += f.modelWalk
	}
	res.final = mergeFinal(finals)
	res.nGlobal = res.final.nGlobal
	if ckptRoot != "" {
		n, bytes, err := verifyCheckpoints(ckptRoot, cfg.Steps)
		if err != nil {
			return res, err
		}
		res.counts.CkptBytes = bytes / int64(n)
	}
	return res, checkFinal(w, cfg, res.final, opt.checkRef)
}

func diffStats(a, b mpi.CommStats) mpi.CommStats {
	return mpi.CommStats{
		Msgs: a.Msgs - b.Msgs, Bytes: a.Bytes - b.Bytes,
		WireMsgs: a.WireMsgs - b.WireMsgs, WireBytes: a.WireBytes - b.WireBytes,
	}
}
