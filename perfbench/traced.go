package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"hacc/internal/core"
	"hacc/internal/cosmology"
	"hacc/internal/domain"
	"hacc/internal/grid"
	"hacc/internal/ic"
	"hacc/internal/mpi"
	"hacc/internal/par"
	"hacc/internal/shortrange"
	"hacc/internal/spectral"
	"hacc/internal/timestep"
	"hacc/internal/tree"
)

// layerTimes accumulates one rank's time in each layer call of the traced
// run, timed from outside the call, plus the work counts the calls report.
type layerTimes struct {
	step  time.Duration // Σ step wall time, the no-op walk passes excluded
	noop  time.Duration // the no-op walk passes (kept out of step)
	steps int

	deposit, interp, ghostPost, ghostWait, solve time.Duration
	treeBuild, walk, walkKernel                  time.Duration
	meshBuild, meshWalk, meshWalkKernel          time.Duration
	migratePost, migrateWait                     time.Duration
	refreshPost, refreshWait                     time.Duration
	power, fof, checkpoint                       time.Duration
	// own is the time in core's own loops the benchmark replays (gathering
	// the short-range inputs, scattering accelerations, momentum and
	// position updates): attributed to no layer, but measured.
	own time.Duration

	deposited, interpolated int64 // particles
	solves                  int64
	treeParticles           int64
	meshParticles           int64
	interactions            int64
	noopInteractions        int64
	nodesVisited            int64
	noopNodes               int64
	stolen                  int64
	analyses, checkpoints   int64
}

// add folds another rank's (or run's) totals in.
func (l *layerTimes) add(o *layerTimes) {
	l.step += o.step
	l.noop += o.noop
	l.deposit += o.deposit
	l.interp += o.interp
	l.ghostPost += o.ghostPost
	l.ghostWait += o.ghostWait
	l.solve += o.solve
	l.treeBuild += o.treeBuild
	l.walk += o.walk
	l.walkKernel += o.walkKernel
	l.meshBuild += o.meshBuild
	l.meshWalk += o.meshWalk
	l.meshWalkKernel += o.meshWalkKernel
	l.migratePost += o.migratePost
	l.migrateWait += o.migrateWait
	l.refreshPost += o.refreshPost
	l.refreshWait += o.refreshWait
	l.power += o.power
	l.fof += o.fof
	l.checkpoint += o.checkpoint
	l.own += o.own
	l.steps += o.steps
	l.deposited += o.deposited
	l.interpolated += o.interpolated
	l.solves += o.solves
	l.treeParticles += o.treeParticles
	l.meshParticles += o.meshParticles
	l.interactions += o.interactions
	l.noopInteractions += o.noopInteractions
	l.nodesVisited += o.nodesVisited
	l.noopNodes += o.noopNodes
	l.stolen += o.stolen
	l.analyses += o.analyses
	l.checkpoints += o.checkpoints
}

// layered replays Simulation.Run's step as the sequence of public layer
// calls core makes, on the same particles, with its own copies of the
// persistent solver state (fields, exchangers, Poisson plan, pool, tree or
// chaining mesh). Every call is timed from outside. The arithmetic and its
// order match core exactly, so the final state equals an untraced run's.
type layered struct {
	sim  *core.Simulation
	cfg  core.Config
	lt   layerTimes
	pool *par.Pool

	rho     *grid.Field
	acc     [3]*grid.Field
	rhoEx   *grid.Exchanger
	accEx   *grid.Exchanger
	poisson *spectral.Poisson
	sched   timestep.Schedule

	tr           *tree.Tree
	cm           *shortrange.ChainingMesh
	x, y, z      []float32
	ax, ay, az   []float32
	kickBuf      []float32
	fill         [3]*grid.GhostOp
	refreshInFly bool
	ckptRoot     string
	halos        int // this rank's share of the last halo catalog
}

func newLayered(sim *core.Simulation, ckptRoot string) *layered {
	cfg := sim.Cfg
	c := sim.Comm
	n := [3]int{cfg.NGrid, cfg.NGrid, cfg.NGrid}
	l := &layered{sim: sim, cfg: cfg, pool: par.NewPool(cfg.Threads), ckptRoot: ckptRoot}
	// Field geometry as core builds it: overload shell plus CIC and drift
	// margin.
	ghost := int(math.Ceil(cfg.Overload)) + 2
	box := sim.Dec.Box(c.Rank())
	l.rho = grid.NewField(n, box, ghost)
	l.rhoEx = grid.NewExchanger(c, sim.Dec, l.rho)
	for d := range l.acc {
		l.acc[d] = grid.NewField(n, box, ghost)
	}
	l.accEx = grid.NewExchanger(c, sim.Dec, l.acc[0])
	l.poisson = spectral.NewPoisson(c, sim.Dec, spectral.Options{
		OmegaM: cfg.Cosmo.OmegaM,
		Sigma:  cfg.Sigma,
		Ns:     cfg.NsFilter,
		Filter: !cfg.DisableFilter,
		Slab:   cfg.SlabFFT,
		Pool:   l.pool,
	})
	l.sched = timestep.Schedule{
		AInit:     cosmology.AFromZ(cfg.ZInit),
		AFinal:    cosmology.AFromZ(cfg.ZFinal),
		Steps:     cfg.Steps,
		SubCycles: cfg.SubCycles,
	}
	switch cfg.Solver {
	case core.PPTreePM:
		l.tr = tree.New(cfg.LeafSize)
	case core.P3M:
		l.cm = shortrange.NewMesh(cfg.RCut)
	}
	return l
}

func timed(d *time.Duration, fn func()) {
	t := time.Now()
	fn()
	*d += time.Since(t)
}

// run replays every step; a step spans, as Run's callbacks do, the
// integrator ops, the end-of-step exchange posts, in-situ analysis and the
// checkpoint.
func (l *layered) run() error {
	for l.sim.StepIndex < l.cfg.Steps {
		t0 := time.Now()
		noop0 := l.lt.noop
		if err := l.step(); err != nil {
			return err
		}
		l.lt.step += time.Since(t0) - (l.lt.noop - noop0)
		l.lt.steps++
	}
	l.finishRefresh()
	return nil
}

func (l *layered) step() error {
	s := l.sim
	d := s.Dom
	a0, a1 := l.sched.StepBounds(s.StepIndex)
	for _, op := range timestep.Ops(l.cfg.Cosmo, a0, a1, l.cfg.SubCycles) {
		switch op.Kind {
		case timestep.KickLong:
			l.kickLong(op.W)
		case timestep.KickShort:
			l.finishRefresh()
			l.kickShort(op.W)
			s.SubstepsDone++
		case timestep.Stream:
			l.finishRefresh()
			timed(&l.lt.own, func() { l.stream(op.W) })
		}
	}
	timed(&l.lt.migratePost, d.MigrateBegin)
	timed(&l.lt.migrateWait, d.MigrateEnd)
	timed(&l.lt.refreshPost, d.RefreshBegin)
	l.refreshInFly = true
	s.StepIndex++
	s.A = a1

	if e := l.cfg.AnalysisEvery; e > 0 && s.StepIndex%e == 0 {
		// Analyze's order: P(k) overlaps the refresh, FOF needs it done.
		timed(&l.lt.power, func() { s.PowerSpectrum(l.cfg.AnalysisBins, true) })
		l.finishRefresh()
		timed(&l.lt.fof, func() { l.halos = len(s.FindHalos(l.cfg.FOFLinking, l.cfg.MinHaloSize)) })
		l.lt.analyses++
	}
	if e := l.cfg.CheckpointEvery; e > 0 && s.StepIndex%e == 0 {
		// The replica write reads the passives, so the refresh completes
		// first (core overlaps it with the state write).
		l.finishRefresh()
		var err error
		dir := filepath.Join(l.ckptRoot, fmt.Sprintf("step%06d", s.StepIndex))
		timed(&l.lt.checkpoint, func() { err = s.Checkpoint(dir) })
		if err != nil {
			return err
		}
		l.lt.checkpoints++
	}
	return nil
}

func (l *layered) finishRefresh() {
	if l.refreshInFly {
		timed(&l.lt.refreshWait, l.sim.Dom.RefreshEnd)
		l.refreshInFly = false
	}
}

func (l *layered) kickLong(w float64) {
	s := l.sim
	act := &s.Dom.Active
	timed(&l.lt.deposit, func() {
		l.rho.Fill(0)
		if l.cfg.ThreadedCIC {
			grid.DepositCICParallel(l.rho, act.X, act.Y, act.Z, s.ParticleMass, l.cfg.Threads)
		} else {
			grid.DepositCIC(l.rho, act.X, act.Y, act.Z, s.ParticleMass)
		}
	})
	l.lt.deposited += int64(act.Len())
	var op *grid.GhostOp
	timed(&l.lt.ghostPost, func() { op = l.rhoEx.AccumulateBegin(l.rho) })
	l.finishRefresh()
	timed(&l.lt.ghostWait, op.End)
	timed(&l.lt.solve, func() { l.poisson.Solve(l.rho, &l.acc) })
	l.lt.solves++
	timed(&l.lt.ghostPost, func() {
		for d := range l.fill {
			l.fill[d] = l.accEx.FillBegin(l.acc[d])
		}
	})
	for d := range l.fill {
		timed(&l.lt.ghostWait, l.fill[d].End)
		l.fill[d] = nil
		timed(&l.lt.interp, func() {
			l.gridKick(&s.Dom.Active, d, w)
			l.gridKick(&s.Dom.Passive, d, w)
		})
	}
	l.lt.interpolated += int64(s.Dom.Active.Len() + s.Dom.Passive.Len())
}

// gridKick interpolates acceleration component d and updates that momentum
// component, as core's applyGridKickComponent does.
func (l *layered) gridKick(p *domain.Particles, d int, w float64) {
	n := p.Len()
	if n == 0 {
		return
	}
	l.kickBuf = par.Resize(l.kickBuf, n)
	buf := l.kickBuf
	grid.InterpCICParallel(l.acc[d], p.X, p.Y, p.Z, buf, w, l.pool)
	v := [3][]float32{p.Vx, p.Vy, p.Vz}[d]
	l.pool.For(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v[i] += buf[i]
		}
	})
}

// noopKernel is a counting no-op tree.RangeLeafKernel: it reports the pair
// count the real kernel would evaluate and computes nothing, so a walk with
// it costs the walk alone.
func noopKernel(lx, _, _, _, _, _ []float32, ranges [][2]int32, _, _, _ []float32) int64 {
	var n int64
	for _, r := range ranges {
		n += int64(r[1] - r[0])
	}
	return int64(len(lx)) * n
}

func (l *layered) kickShort(w float64) {
	if l.cfg.Solver == core.PMOnly {
		return
	}
	s := l.sim
	act, pas := &s.Dom.Active, &s.Dom.Passive
	na := act.Len()
	tot := na + pas.Len()
	if tot == 0 {
		return
	}
	timed(&l.lt.own, func() {
		l.x = append(append(l.x[:0], act.X...), pas.X...)
		l.y = append(append(l.y[:0], act.Y...), pas.Y...)
		l.z = append(append(l.z[:0], act.Z...), pas.Z...)
		l.ax = par.Resize(l.ax, tot)
		l.ay = par.Resize(l.ay, tot)
		l.az = par.Resize(l.az, tot)
		ax, ay, az := l.ax, l.ay, l.az
		l.pool.For(tot, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				ax[i], ay[i], az[i] = 0, 0, 0
			}
		})
	})
	kern := s.Kernel.ApplyRanges
	rcut := l.cfg.RCut
	switch l.cfg.Solver {
	case core.PPTreePM:
		tr := l.tr
		timed(&l.lt.treeBuild, func() { tr.Rebuild(l.x, l.y, l.z) })
		l.lt.treeParticles += int64(tot)
		walk := func(k tree.RangeLeafKernel) int64 {
			if l.cfg.StealWalks {
				return tr.ComputeForcesStealRanges(k, rcut, l.pool)
			}
			tr.ComputeForcesPoolRanges(k, rcut, l.pool)
			return 0
		}
		// Walk-only pass first: its time is the walk; the real pass minus
		// it is the kernel. The counters accumulate across both passes
		// until the next Rebuild.
		t := time.Now()
		walk(noopKernel)
		dn := time.Since(t)
		l.lt.walk += dn
		l.lt.noop += dn
		i0, n0 := tr.Interactions.Load(), tr.NodesVisited.Load()
		timed(&l.lt.walkKernel, func() { l.lt.stolen += walk(kern) })
		l.lt.noopInteractions += i0
		l.lt.noopNodes += n0
		l.lt.interactions += tr.Interactions.Load() - i0
		l.lt.nodesVisited += tr.NodesVisited.Load() - n0
		timed(&l.lt.own, func() { tr.AccelInto(l.ax, l.ay, l.az) })
	case core.P3M:
		cm := l.cm
		timed(&l.lt.meshBuild, func() { cm.Rebuild(l.x, l.y, l.z) })
		l.lt.meshParticles += int64(tot)
		t := time.Now()
		cm.ComputeForcesPoolRanges(noopKernel, l.pool)
		dn := time.Since(t)
		l.lt.meshWalk += dn
		l.lt.noop += dn
		i0 := cm.Interactions.Load()
		timed(&l.lt.meshWalkKernel, func() { cm.ComputeForcesPoolRanges(kern, l.pool) })
		l.lt.noopInteractions += i0
		l.lt.interactions += cm.Interactions.Load() - i0
		timed(&l.lt.own, func() { cm.AccelInto(l.ax, l.ay, l.az) })
	}
	timed(&l.lt.own, func() {
		wv := float32(w)
		ax, ay, az := l.ax, l.ay, l.az
		l.pool.For(tot, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if i < na {
					act.Vx[i] += wv * ax[i]
					act.Vy[i] += wv * ay[i]
					act.Vz[i] += wv * az[i]
				} else {
					j := i - na
					pas.Vx[j] += wv * ax[i]
					pas.Vy[j] += wv * ay[i]
					pas.Vz[j] += wv * az[i]
				}
			}
		})
	})
}

func (l *layered) stream(w float64) {
	wv := float32(w)
	act, pas := &l.sim.Dom.Active, &l.sim.Dom.Passive
	na := act.Len()
	l.pool.For(na+pas.Len(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if i < na {
				act.X[i] += wv * act.Vx[i]
				act.Y[i] += wv * act.Vy[i]
				act.Z[i] += wv * act.Vz[i]
			} else {
				j := i - na
				pas.X[j] += wv * pas.Vx[j]
				pas.Y[j] += wv * pas.Vy[j]
				pas.Z[j] += wv * pas.Vz[j]
			}
		}
	})
}

// tracedRun is the outcome of one traced launch.
type tracedRun struct {
	lt       layerTimes // summed over ranks
	counts   counts
	wire     int64 // bytes that crossed a socket during the steps
	latency  mpi.WireLatency
	fit      time.Duration // shortrange.FitGridForce on rank 0
	icGen    time.Duration // IC generation, collective, timed on rank 0
	dispatch float64       // ns per empty pool.For round trip on rank 0
	final    finalState
}

// add folds another traced run in; the exact counts stay the first run's.
func (t *tracedRun) add(o *tracedRun) {
	t.lt.add(&o.lt)
	t.wire += o.wire
	t.fit += o.fit
	t.icGen += o.icGen
	t.dispatch += o.dispatch
	t.latency.P50Ns += o.latency.P50Ns
	t.latency.P99Ns += o.latency.P99Ns
}

// runTraced performs one traced launch: core.New, the set-up layers timed
// on their own, then every step replayed layer by layer (see layered).
func runTraced(w workload, cfg core.Config, dir string, checkRef bool) (*tracedRun, error) {
	ckptRoot := ""
	if cfg.CheckpointEvery > 0 {
		// Same path length as the untraced run's, so the checkpoints (which
		// embed the config) have identical sizes.
		ckptRoot = filepath.Join(dir, "t", "ckpt")
		cfg.CheckpointDir = ckptRoot
		defer os.RemoveAll(filepath.Join(dir, "t"))
	}
	res := &tracedRun{}
	lts := make([]layerTimes, w.ranks)
	stats := make([]mpi.CommStats, w.ranks)
	finals := make([]rankFinal, w.ranks)
	err := launch(w, dir, func(c *mpi.Comm) {
		sim, err := core.New(c, cfg)
		if err != nil {
			panic(err)
		}
		cfg := sim.Cfg
		if cfg.Solver != core.PMOnly && c.Rank() == 0 {
			t := time.Now()
			_, err := shortrange.FitGridForce(shortrange.FitOptions{
				GridN: cfg.FitGridN, RCut: cfg.RCut, Sigma: cfg.Sigma,
				Ns: cfg.NsFilter, Seed: int64(cfg.Seed),
			})
			if err != nil {
				panic(err)
			}
			res.fit = time.Since(t)
		}
		dom := domain.New(c, sim.Dec, cfg.Overload)
		mpi.Barrier(c)
		t := time.Now()
		if cfg.ICKind == "halo" {
			err = ic.GenerateClustered(c, sim.Dec, ic.ClusteredOptions{Np: cfg.NParticles, Seed: cfg.Seed}, dom)
		} else {
			err = ic.Generate(c, sim.Dec, sim.LP, ic.Options{
				Np: cfg.NParticles, BoxMpc: cfg.BoxMpc, AInit: cosmology.AFromZ(cfg.ZInit),
				Seed: cfg.Seed, Fixed: cfg.FixedAmp,
			}, dom)
		}
		if err != nil {
			panic(err)
		}
		mpi.Barrier(c)
		if c.Rank() == 0 {
			res.icGen = time.Since(t)
		}

		l := newLayered(sim, ckptRoot)
		mpi.Barrier(c)
		before := c.Stats()
		if err := l.run(); err != nil {
			panic(err)
		}
		stats[c.Rank()] = diffStats(c.Stats(), before)
		lts[c.Rank()] = l.lt
		lat := mpi.WireLatencySummary(c)
		if c.Rank() == 0 {
			res.latency = lat
			res.dispatch = dispatchNs(l.pool)
		}
		finals[c.Rank()] = captureFinal(sim)
		finals[c.Rank()].halos = l.halos
	})
	if err != nil {
		return nil, fmt.Errorf("launch: %w", err)
	}
	for r := range lts {
		res.lt.add(&lts[r])
		res.counts.Msgs += stats[r].Msgs
		res.counts.Bytes += stats[r].Bytes
		res.wire += stats[r].WireBytes
	}
	res.counts.Interactions = res.lt.interactions
	res.counts.NodesVisited = res.lt.nodesVisited
	res.final = mergeFinal(finals)
	if ckptRoot != "" {
		n, bytes, err := verifyCheckpoints(ckptRoot, cfg.Steps)
		if err != nil {
			return res, err
		}
		res.counts.CkptBytes = bytes / int64(n)
	}
	return res, checkFinal(w, cfg, res.final, checkRef)
}

// dispatchNs times an empty pool.For that reaches every worker of the pool
// and returns the mean round trip in ns.
func dispatchNs(p *par.Pool) float64 {
	const rounds = 2000
	n := p.Workers() * 4096
	body := func(lo, hi int) {}
	p.For(n, body)
	t := time.Now()
	for i := 0; i < rounds; i++ {
		p.For(n, body)
	}
	return float64(time.Since(t).Nanoseconds()) / rounds
}
