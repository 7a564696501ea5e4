package core

import (
	"fmt"
	"math"
	"os"
	"time"

	"hacc/internal/analysis"
	"hacc/internal/balance"
	"hacc/internal/cosmology"
	"hacc/internal/domain"
	"hacc/internal/fault"
	"hacc/internal/grid"
	"hacc/internal/ic"
	"hacc/internal/machine"
	"hacc/internal/mpi"
	"hacc/internal/obs"
	"hacc/internal/par"
	"hacc/internal/shortrange"
	"hacc/internal/snapshot"
	"hacc/internal/spectral"
	"hacc/internal/timestep"
	"hacc/internal/tree"
)

// Simulation is one rank's view of a running HACC simulation.
type Simulation struct {
	Cfg    Config
	Comm   *mpi.Comm
	Dec    *grid.Decomp
	Dom    *domain.Domain
	LP     *cosmology.LinearPower
	Kernel *shortrange.Kernel

	poisson *spectral.Poisson
	rho     *grid.Field
	acc     [3]*grid.Field
	rhoEx   *grid.Exchanger
	accEx   [3]*grid.Exchanger
	sched   timestep.Schedule

	// A is the current scale factor; StepIndex counts completed full steps.
	A         float64
	StepIndex int

	// Mass of one tracer particle in internal units (mean density 1).
	ParticleMass float64
	// ParticleMassMsun is the particle mass in Msun/h.
	ParticleMassMsun float64

	// Timers and Counters accumulate per-rank performance data.
	Timers   *machine.Timers
	Counters machine.Counters

	// SubstepsDone counts executed short-range sub-cycles (for
	// time-per-substep reporting, matching the paper's metric).
	SubstepsDone int64

	// scratch, kickBuf, and pool persist across sub-cycles and steps so
	// the hot stepping path allocates nothing after the first sub-cycle
	// (§VI; the HACC architecture paper's persistent per-rank solver
	// state). pool is this rank's fixed set of worker goroutines.
	scratch shortScratch
	kickBuf []float32
	pool    *par.Pool

	// refreshPending marks an overload refresh whose Begin has been posted
	// but whose End is deferred (overlapped stepping); fillOps holds the
	// in-flight acceleration-component ghost fills.
	refreshPending bool
	fillOps        [3]*grid.GhostOp

	// fof and power are the persistent in-situ analysis plans (built in New
	// when Cfg.AnalysisEvery > 0, or lazily by FindHalos/PowerSpectrum).
	// LastAnalysis holds the most recent in-situ product; its halo and
	// spectrum storage is plan-owned and valid until the next analysis
	// pass.
	fof          *analysis.Plan
	power        *analysis.Power
	LastAnalysis *InSituResult

	// ckpt is the persistent checkpoint machinery (collective gio writer,
	// immutable config JSON + fingerprint, reusable meta/var/counter
	// buffers), built on first Checkpoint.
	ckpt *ckptState

	// balancer drives cost-based domain rebalancing (nil when
	// Cfg.RebalanceThreshold is zero). lastInter/lastWalk record the counter
	// values at the previous cost observation, so each step contributes a
	// delta rather than a running total.
	balancer  *balance.Balancer
	lastInter int64
	lastWalk  int64

	// Observability (PR 10): journal is the per-rank JSONL run journal (nil
	// unless Cfg.TraceDir is set — every method is nil-safe), lastPhaseSec
	// snapshots the timer totals at the previous step record so each record
	// carries per-phase deltas, and the gauges mirror step/a into the
	// world's metric registry for the live debug endpoint.
	journal      *obs.Journal
	lastPhaseSec map[string]float64
	gaugeStep    *obs.Gauge
	gaugeA       *obs.Gauge
}

// InSituResult is one in-situ analysis product: the rank's share of the
// halo catalog (each halo reported by exactly one rank) and the global
// power spectrum.
type InSituResult struct {
	Step     int
	A        float64
	Halos    []analysis.Halo
	Spectrum *analysis.PowerSpectrum
}

// shortScratch holds the buffers and solver structures kickShort reuses
// across sub-cycles: the gathered active+passive coordinate slices, the
// acceleration accumulators, and one lazily-created persistent instance of
// whichever short-range backend the config selects.
type shortScratch struct {
	x, y, z    []float32
	ax, ay, az []float32
	sr         shortSolver
}

// shortSolver is what kickShort needs of every short-range backend
// (*tree.Tree, *tree.Forest, *shortrange.ChainingMesh) besides its one
// force call: rebuild over the gathered coordinates, and scatter the
// accelerations back to gathered order.
type shortSolver interface {
	Rebuild(x, y, z []float32)
	AccelInto(ax, ay, az []float32)
}

// New builds the simulation and generates initial conditions. Collective.
func New(c *mpi.Comm, cfg Config) (*Simulation, error) {
	s, err := newSimulation(c, cfg)
	if err != nil {
		return nil, err
	}
	// Initial conditions.
	if s.Cfg.ICKind == "halo" {
		// Deliberately clustered cold start: the load-balancing stress
		// workload (one deep Plummer halo, decomposition-independent).
		err = ic.GenerateClustered(c, s.Dec, ic.ClusteredOptions{
			Np:   s.Cfg.NParticles,
			Seed: s.Cfg.Seed,
		}, s.Dom)
	} else {
		err = ic.Generate(c, s.Dec, s.LP, ic.Options{
			Np:     s.Cfg.NParticles,
			BoxMpc: s.Cfg.BoxMpc,
			AInit:  s.sched.AInit,
			Seed:   s.Cfg.Seed,
			Fixed:  s.Cfg.FixedAmp,
		}, s.Dom)
	}
	if err != nil {
		return nil, err
	}
	s.Dom.Refresh()
	s.A = s.sched.AInit
	if s.Cfg.AnalysisEvery > 0 {
		s.ensureAnalysis(s.Cfg.AnalysisBins)
	}
	return s, nil
}

// newSimulation builds every persistent structure of a rank — domain,
// fields, exchangers, spectral plan, short-range kernel, worker pool —
// without populating particles. New generates initial conditions on top;
// Restore loads a checkpoint instead. Collective (the kernel fit is
// broadcast from rank 0).
func newSimulation(c *mpi.Comm, cfg Config) (*Simulation, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := [3]int{cfg.NGrid, cfg.NGrid, cfg.NGrid}
	s := &Simulation{Cfg: cfg, Comm: c, Timers: machine.NewTimers()}
	s.pool = par.NewPool(cfg.Threads)
	s.Dec = grid.NewDecomp(n, c.Size())
	s.Dom = domain.New(c, s.Dec, cfg.Overload)
	s.LP = cosmology.NewLinearPower(cfg.Cosmo, cfg.TransferFunc())
	s.sched = timestep.Schedule{
		AInit:     cosmology.AFromZ(cfg.ZInit),
		AFinal:    cosmology.AFromZ(cfg.ZFinal),
		Steps:     cfg.Steps,
		SubCycles: cfg.SubCycles,
	}
	if err := s.sched.Validate(); err != nil {
		return nil, err
	}
	np3 := float64(cfg.NParticles) * float64(cfg.NParticles) * float64(cfg.NParticles)
	ng3 := float64(cfg.NGrid) * float64(cfg.NGrid) * float64(cfg.NGrid)
	s.ParticleMass = ng3 / np3
	s.ParticleMassMsun = cfg.Cosmo.ParticleMass(cfg.NParticles, cfg.BoxMpc)

	// Grid fields: the acceleration fields must cover the overloaded
	// particles for interpolation, and the density deposit halo must be
	// just as wide — actives migrate only at the end of a full step, so
	// during sub-cycling they may stray into the shell and still deposit
	// locally (the no-communication property of overloading, §II). The +2
	// is one cell for the CIC stencil plus one cell of drift margin per
	// step; faster particles are a physical error (raise Overload), which
	// the indexing check reports loudly.
	ghost := int(math.Ceil(cfg.Overload)) + 2
	box := s.Dec.Box(c.Rank())
	s.rho = grid.NewField(n, box, ghost)
	s.rhoEx = grid.NewExchanger(c, s.Dec, s.rho)
	for d := 0; d < 3; d++ {
		s.acc[d] = grid.NewField(n, box, ghost)
	}
	// The exchanger plan depends only on the shape, which is identical for
	// all three components: build once and reuse.
	s.accEx[0] = grid.NewExchanger(c, s.Dec, s.acc[0])
	s.accEx[1] = s.accEx[0]
	s.accEx[2] = s.accEx[0]

	s.poisson = spectral.NewPoisson(c, s.Dec, spectral.Options{
		OmegaM: cfg.Cosmo.OmegaM,
		Sigma:  cfg.Sigma,
		Ns:     cfg.NsFilter,
		Filter: !cfg.DisableFilter,
		Slab:   cfg.SlabFFT,
		Pool:   s.pool,
	})
	s.Counters.FFTGridN = cfg.NGrid

	if cfg.Solver != PMOnly {
		// Fit the short-range residual once on rank 0 and broadcast.
		var poly [6]float64
		if c.Rank() == 0 {
			res, err := shortrange.FitGridForce(shortrange.FitOptions{
				GridN: cfg.FitGridN,
				RCut:  cfg.RCut,
				Sigma: cfg.Sigma,
				Ns:    cfg.NsFilter,
				Seed:  int64(cfg.Seed),
			})
			if err != nil {
				panic(fmt.Sprintf("core: kernel fit failed: %v", err))
			}
			poly = res.Poly
		}
		coef := mpi.Bcast(c, 0, poly[:])
		copy(poly[:], coef)
		gm := 1.5 * cfg.Cosmo.OmegaM * s.ParticleMass / (4 * math.Pi)
		s.Kernel = shortrange.NewKernel(poly, cfg.RCut, cfg.Eps, gm)
	}
	if cfg.RebalanceThreshold > 0 {
		s.balancer = balance.New(balance.Options{
			Threshold: cfg.RebalanceThreshold,
			MinSteps:  cfg.RebalanceMinSteps,
		}, c.Size())
	}
	// Observability arming lives here, not in New, so Restore gets journal
	// and spans too. The gauges go into the world registry — the same one
	// the wire transport feeds its latency histogram — so the debug
	// endpoint's /debug/metrics shows physics progress and wire health side
	// by side.
	s.gaugeStep = c.World().Metrics().Gauge("sim.step")
	s.gaugeA = c.World().Metrics().Gauge("sim.a")
	if cfg.TraceDir != "" {
		if err := obs.ArmTracing(cfg.TraceDir, c.Size()); err != nil {
			return nil, err
		}
		j, err := obs.OpenJournal(cfg.TraceDir, c.Rank())
		if err != nil {
			return nil, err
		}
		s.journal = j
		s.lastPhaseSec = map[string]float64{}
		if c.Rank() == 0 {
			obs.SetDebugRegistry(c.World().Metrics())
			obs.SetDebugJournal(j.Path())
		}
	}
	if cfg.DebugAddr != "" && c.Rank() == 0 {
		// The endpoint serves whatever is registered: metrics always, the
		// journal tail only when -trace armed one. Idempotent across
		// supervised in-process restarts (the first listener wins).
		obs.SetDebugRegistry(c.World().Metrics())
		if _, err := obs.EnableDebug(cfg.DebugAddr); err != nil {
			return nil, fmt.Errorf("core: debug endpoint %s: %w", cfg.DebugAddr, err)
		}
	}
	return s, nil
}

// phase runs fn under both observability layers at once: the named timer
// (the phase-split report) and a trace span (the per-rank timeline). With
// tracing disarmed the span half costs one atomic load.
func (s *Simulation) phase(name string, id obs.SpanID, fn func()) {
	t0 := obs.Begin()
	s.Timers.Time(name, fn)
	obs.End(s.Comm.Rank(), id, t0)
}

// ensureFOF builds the persistent halo-finder plan on first use (purely
// local construction).
func (s *Simulation) ensureFOF() {
	if s.fof == nil {
		s.fof = analysis.NewPlan(s.Dom, s.pool)
	}
}

// ensurePower builds (or rebuilds, when the bin count changes) the
// persistent P(k) estimator plan. Collective when it (re)builds; callers
// invoke it with identical arguments on every rank.
func (s *Simulation) ensurePower(bins int) {
	if s.power == nil || s.power.Bins() != bins {
		s.power = analysis.NewPower(s.Comm, s.Dec, s.pool, s.Cfg.BoxMpc, bins)
	}
}

// ensureAnalysis builds both in-situ plans.
func (s *Simulation) ensureAnalysis(bins int) {
	s.ensureFOF()
	s.ensurePower(bins)
}

// Z returns the current redshift.
func (s *Simulation) Z() float64 { return cosmology.ZFromA(s.A) }

// Step advances the simulation by one full long-range step (two PM kicks
// around SubCycles short-range SKS sub-cycles), then re-establishes domain
// ownership and overloading. Collective. Step is fully synchronous: the
// end-of-step exchange completes before it returns (Run overlaps it with
// the step callback instead).
func (s *Simulation) Step() error {
	if err := s.step(); err != nil {
		return err
	}
	if err := s.maybeAnalyze(); err != nil {
		return err
	}
	if err := s.maybeCheckpoint(); err != nil {
		return err
	}
	s.FinishRefresh()
	return nil
}

// step runs the integrator ops and posts the end-of-step exchange, leaving
// the refresh completion pending (unless overlap is disabled) so callers
// can hide it behind analysis or the next step's long-range kick.
func (s *Simulation) step() error {
	if s.StepIndex >= s.sched.Steps {
		return fmt.Errorf("core: all %d steps already taken", s.sched.Steps)
	}
	// Fault hook: "kill rank 2 at step 3" fires here, before any physics of
	// the step runs, so the surviving checkpoint state is from a completed
	// earlier step. One atomic load when no plan is armed.
	if inj := fault.Armed(); inj != nil {
		if err := inj.HitErr(fault.PointStep, s.Comm.Rank(), s.StepIndex); err != nil {
			return fmt.Errorf("core: step %d: %w", s.StepIndex, err)
		}
	}
	// Rebalance before any physics of the step, so the whole step runs under
	// one geometry and every rank makes the identical collective decision.
	s.maybeRebalance()
	stepT0 := obs.Begin()
	wallT0 := time.Now()
	a0, a1 := s.sched.StepBounds(s.StepIndex)
	ops := timestep.Ops(s.Cfg.Cosmo, a0, a1, s.sched.SubCycles)
	for _, op := range ops {
		switch op.Kind {
		case timestep.KickLong:
			t0 := obs.Begin()
			s.kickLong(op.W)
			obs.End(s.Comm.Rank(), obs.SpanKickLong, t0)
		case timestep.KickShort:
			s.FinishRefresh() // no-op except before the first passive read
			t0 := obs.Begin()
			s.kickShort(op.W)
			obs.End(s.Comm.Rank(), obs.SpanKickShort, t0)
			s.SubstepsDone++
		case timestep.Stream:
			s.FinishRefresh()
			t0 := obs.Begin()
			s.stream(op.W)
			obs.End(s.Comm.Rank(), obs.SpanStream, t0)
		}
	}
	// Migration cannot overlap anything (the refresh classification needs
	// the arrived actives), but the refresh wait can: post it here and let
	// the caller run analysis — or the next deposit+solve — before the End.
	s.phase(machine.CommPost, obs.SpanCommPost, func() { s.Dom.MigrateBegin() })
	s.phase(machine.CommWait, obs.SpanCommWait, func() { s.Dom.MigrateEnd() })
	s.phase(machine.CommPost, obs.SpanCommPost, func() { s.Dom.RefreshBegin() })
	s.refreshPending = true
	if s.Cfg.DisableOverlap {
		s.FinishRefresh()
	}
	s.observeCost()
	s.StepIndex++
	s.A = a1
	obs.End(s.Comm.Rank(), obs.SpanStep, stepT0)
	s.recordStep(a1-a0, time.Since(wallT0))
	return nil
}

// recordStep appends this completed step to the run journal and mirrors the
// run's progress into the metric gauges. No-op without a journal.
func (s *Simulation) recordStep(da float64, wall time.Duration) {
	s.gaugeStep.Set(float64(s.StepIndex))
	s.gaugeA.Set(s.A)
	if s.journal == nil {
		return
	}
	// Timers accumulate for the life of the rank; the record carries this
	// step's contribution, so diff against the previous step's totals.
	var phases map[string]float64
	cur := make(map[string]float64, len(s.lastPhaseSec))
	for _, pf := range s.Timers.Fractions() {
		cur[pf.Name] = pf.Seconds
		if d := pf.Seconds - s.lastPhaseSec[pf.Name]; d > 0 {
			if phases == nil {
				phases = make(map[string]float64)
			}
			phases[pf.Name] = d * 1e3
		}
	}
	s.lastPhaseSec = cur
	s.journal.Record(obs.StepRecord{
		Kind:       "step",
		Step:       s.StepIndex,
		A:          s.A,
		Da:         da,
		WallMs:     float64(wall) / 1e6,
		PhaseMs:    phases,
		Imbalance:  s.Imbalance(),
		Rebalances: s.Counters.Rebalances,
		Restarts:   s.Counters.Restarts,
	})
}

// FinishRefresh completes a pending overlapped overload refresh. It is a
// no-op when none is in flight; Run callbacks that read Dom.Passive must
// call it first.
func (s *Simulation) FinishRefresh() {
	if !s.refreshPending {
		return
	}
	s.phase(machine.CommWait, obs.SpanCommWait, func() { s.Dom.RefreshEnd() })
	s.refreshPending = false
}

// Run advances through all remaining steps, invoking cb (if non-nil) after
// every step. Unless Cfg.DisableOverlap is set, the end-of-step overload
// refresh stays in flight while cb runs and completes behind the next
// step's density deposit, so the exchange wait is hidden twice over; cb may
// read actives freely but must call FinishRefresh before touching
// Dom.Passive.
func (s *Simulation) Run(cb func(step int, a float64)) error {
	// Flush this rank's trace ring however the run ends — completion, a step
	// error, or a panic unwinding toward the supervisor — so a crashed run
	// still leaves its timeline on disk.
	defer func() {
		if obs.TraceArmed() {
			obs.FlushRank(s.Comm.Rank())
		}
	}()
	for s.StepIndex < s.sched.Steps {
		if err := s.step(); err != nil {
			return err
		}
		if err := s.maybeAnalyze(); err != nil {
			return err
		}
		if err := s.maybeCheckpoint(); err != nil {
			return err
		}
		if cb != nil {
			cb(s.StepIndex, s.A)
		}
	}
	s.FinishRefresh()
	return nil
}

// maybeAnalyze runs the in-situ pipeline when the current step index hits
// the configured cadence.
func (s *Simulation) maybeAnalyze() error {
	if s.Cfg.AnalysisEvery <= 0 || s.StepIndex%s.Cfg.AnalysisEvery != 0 {
		return nil
	}
	return s.Analyze()
}

// Analyze runs one in-situ analysis pass — the paper's sky-survey data
// products, produced without writing raw particle dumps. The power
// spectrum runs first: it reads only active particles, so its deposit,
// transform, and binning legally overlap the end-of-step overload refresh
// still in flight; the halo finder reads the passive replicas and
// therefore completes the refresh before linking. Results land in
// LastAnalysis (plan-owned storage, valid until the next pass) and, when
// Cfg.AnalysisDir is set, on disk via the snapshot package. Collective.
func (s *Simulation) Analyze() error {
	s.ensureAnalysis(s.Cfg.AnalysisBins)
	var res InSituResult
	s.phase("analysis", obs.SpanAnalysis, func() {
		res = InSituResult{Step: s.StepIndex, A: s.A}
		res.Spectrum = s.power.Measure(s.Dom, true)
		s.FinishRefresh()
		spacing := float64(s.Cfg.NGrid) / float64(s.Cfg.NParticles)
		res.Halos = s.fof.FindHalos(s.Cfg.FOFLinking*spacing, s.Cfg.MinHaloSize, s.ParticleMassMsun)
	})
	s.LastAnalysis = &res
	if s.Cfg.AnalysisDir == "" {
		return nil
	}
	if err := os.MkdirAll(s.Cfg.AnalysisDir, 0o755); err != nil {
		return fmt.Errorf("core: in-situ output directory: %w", err)
	}
	h := snapshot.Header{
		NGrid:  uint32(s.Cfg.NGrid),
		BoxMpc: s.Cfg.BoxMpc,
		A:      s.A,
		OmegaM: s.Cfg.Cosmo.OmegaM,
		Seed:   s.Cfg.Seed,
	}
	cat := fmt.Sprintf("%s/halos_step%04d.r%d.bin", s.Cfg.AnalysisDir, s.StepIndex, s.Comm.Rank())
	if err := snapshot.SaveHalos(cat, h, res.Halos); err != nil {
		return fmt.Errorf("core: in-situ halo catalog: %w", err)
	}
	if s.Comm.Rank() == 0 {
		pk := fmt.Sprintf("%s/spectrum_step%04d.bin", s.Cfg.AnalysisDir, s.StepIndex)
		if err := snapshot.SaveSpectrum(pk, h, res.Spectrum); err != nil {
			return fmt.Errorf("core: in-situ spectrum: %w", err)
		}
	}
	return nil
}

// kickLong deposits the density, runs the spectral Poisson solve, and
// applies p += w·a_pm to actives and passives. Communication is posted
// early and completed late: the density ghost-accumulate flies while a
// deferred overload refresh unpacks, and the three acceleration-component
// fills are all posted before any completes, so component d's wait overlaps
// the interpolation of components < d. Every overlap is bitwise neutral
// (the deposit needs only actives; each fill touches only its own field;
// each momentum component updates its own array).
func (s *Simulation) kickLong(w float64) {
	s.phase("cic", obs.SpanCIC, func() {
		s.rho.Fill(0)
		if s.Cfg.ThreadedCIC {
			grid.DepositCICParallel(s.rho, s.Dom.Active.X, s.Dom.Active.Y, s.Dom.Active.Z, s.ParticleMass, s.Cfg.Threads)
		} else {
			grid.DepositCIC(s.rho, s.Dom.Active.X, s.Dom.Active.Y, s.Dom.Active.Z, s.ParticleMass)
		}
		s.Counters.CICOps += int64(s.Dom.Active.Len())
	})
	var rhoOp *grid.GhostOp
	s.phase(machine.CommPost, obs.SpanCommPost, func() { rhoOp = s.rhoEx.AccumulateBegin(s.rho) })
	// Complete a refresh deferred from the previous step while the ghost
	// sums are in flight (first passive read of this step is below).
	s.FinishRefresh()
	s.phase(machine.CommWait, obs.SpanCommWait, func() { rhoOp.End() })
	s.phase("fft", obs.SpanFFT, func() {
		s.poisson.Solve(s.rho, &s.acc)
		// One r2c forward + three c2r gradient inverses; Hermitian symmetry
		// halves each, so the flop model counts 4×½ = 2 complex-transform
		// equivalents.
		s.Counters.FFT3D += 2
	})
	s.phase(machine.CommPost, obs.SpanCommPost, func() {
		for d := 0; d < 3; d++ {
			s.fillOps[d] = s.accEx[d].FillBegin(s.acc[d])
		}
	})
	for d := 0; d < 3; d++ {
		s.phase(machine.CommWait, obs.SpanCommWait, func() { s.fillOps[d].End() })
		s.fillOps[d] = nil
		s.phase("cic", obs.SpanCIC, func() {
			s.applyGridKickComponent(&s.Dom.Active, d, w)
			s.applyGridKickComponent(&s.Dom.Passive, d, w)
		})
	}
	s.Counters.CICOps += 3 * int64(s.Dom.Active.Len()+s.Dom.Passive.Len())
}

// applyGridKick interpolates the PM acceleration and updates momenta for
// all three components (the non-pipelined form, kept for benchmarks and
// callers outside the overlapped step).
func (s *Simulation) applyGridKick(p *domain.Particles, w float64) {
	for d := 0; d < 3; d++ {
		s.applyGridKickComponent(p, d, w)
	}
}

// applyGridKickComponent interpolates one acceleration component and
// updates that momentum component. Both the CIC gather and the momentum
// update are threaded (per-particle independent, so the result is identical
// to the serial path), and the interpolation buffer is persistent.
func (s *Simulation) applyGridKickComponent(p *domain.Particles, d int, w float64) {
	n := p.Len()
	if n == 0 {
		return
	}
	if cap(s.kickBuf) < n {
		s.kickBuf = make([]float32, n)
	}
	buf := s.kickBuf[:n]
	grid.InterpCICParallel(s.acc[d], p.X, p.Y, p.Z, buf, w, s.pool)
	v := [3][]float32{p.Vx, p.Vy, p.Vz}[d]
	s.pool.For(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v[i] += buf[i]
		}
	})
}

// kickShort evaluates the short-range force with the configured backend
// over actives+passives and applies p += w·a_sr.
func (s *Simulation) kickShort(w float64) {
	if s.Cfg.Solver == PMOnly {
		return
	}
	na := s.Dom.Active.Len()
	npass := s.Dom.Passive.Len()
	tot := na + npass
	if tot == 0 {
		return
	}
	// Gather into the persistent scratch (grown once, reused forever).
	sc := &s.scratch
	sc.x = append(append(sc.x[:0], s.Dom.Active.X...), s.Dom.Passive.X...)
	sc.y = append(append(sc.y[:0], s.Dom.Active.Y...), s.Dom.Passive.Y...)
	sc.z = append(append(sc.z[:0], s.Dom.Active.Z...), s.Dom.Passive.Z...)
	sc.ax = par.Resize(sc.ax, tot)
	sc.ay = par.Resize(sc.ay, tot)
	sc.az = par.Resize(sc.az, tot)
	x, y, z, ax, ay, az := sc.x, sc.y, sc.z, sc.ax, sc.ay, sc.az
	s.pool.For(tot, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ax[i], ay[i], az[i] = 0, 0, 0
		}
	})

	sr := s.shortSolver()
	s.phase("build", obs.SpanBuild, func() { sr.Rebuild(x, y, z) })
	var inter, nodes, stolen int64
	s.phase("walk+kernel", obs.SpanWalk, func() { inter, nodes, stolen = s.shortForces(sr) })
	s.Counters.KernelInteractions += inter
	s.Counters.WalkNodes += nodes
	s.Counters.StolenLeaves += stolen
	sr.AccelInto(ax, ay, az)

	// Threaded momentum update over both particle sets: shards of the
	// combined (active-first) index range map directly onto the scratch
	// acceleration layout.
	wv := float32(w)
	act, pas := &s.Dom.Active, &s.Dom.Passive
	s.pool.For(tot, func(lo, hi int) {
		aEnd, pBegin := splitAtActive(na, lo, hi)
		for i := lo; i < aEnd; i++ {
			act.Vx[i] += wv * ax[i]
			act.Vy[i] += wv * ay[i]
			act.Vz[i] += wv * az[i]
		}
		for i := pBegin; i < hi; i++ {
			j := i - na
			pas.Vx[j] += wv * ax[i]
			pas.Vy[j] += wv * ay[i]
			pas.Vz[j] += wv * az[i]
		}
	})
}

// shortSolver returns the persistent short-range backend the config
// selects, creating it on first use.
func (s *Simulation) shortSolver() shortSolver {
	sc := &s.scratch
	if sc.sr == nil {
		switch {
		case s.Cfg.Solver == P3M:
			sc.sr = shortrange.NewMesh(s.Cfg.RCut)
		case s.Cfg.NTrees > 1:
			sc.sr = tree.NewForest(s.Cfg.LeafSize, s.Cfg.NTrees, s.Cfg.RCut, s.pool)
		default:
			sc.sr = tree.New(s.Cfg.LeafSize)
		}
	}
	return sc.sr
}

// shortForces runs the backend's one force path on the worker pool and
// returns its pair interactions, walk node visits and stolen leaves. The
// walk and the kernel interleave leaf by leaf, so they are timed as one
// phase; perfbench --trace 1 measures the split between them.
func (s *Simulation) shortForces(sr shortSolver) (inter, nodes, stolen int64) {
	kern, rcut := s.Kernel.ApplyRanges, s.Cfg.RCut
	switch b := sr.(type) {
	case *tree.Forest:
		stolen = b.ComputeForcesStealRanges(kern, rcut)
		return b.Interactions(), b.NodesVisited(), stolen
	case *tree.Tree:
		if s.Cfg.StealWalks {
			stolen = b.ComputeForcesStealRanges(kern, rcut, s.pool)
		} else {
			b.ComputeForcesPoolRanges(kern, rcut, s.pool)
		}
		return b.Interactions.Load(), b.NodesVisited.Load(), stolen
	case *shortrange.ChainingMesh:
		b.ComputeForcesPoolRanges(kern, s.pool)
		return b.Interactions.Load(), 0, 0
	}
	panic("core: unknown short-range backend")
}

// splitAtActive clamps a shard [lo,hi) of the combined active-first index
// range against the active prefix [0,na): active indices are [lo,aEnd),
// passive combined indices are [pBegin,hi) (subtract na for the passive-
// local index). Shared by every loop over the combined particle layout.
func splitAtActive(na, lo, hi int) (aEnd, pBegin int) {
	aEnd = hi
	if aEnd > na {
		aEnd = na
	}
	pBegin = lo
	if pBegin < na {
		pBegin = na
	}
	return
}

// stream advances positions x += w·p for actives and passives, sharded
// across the worker pool (per-particle independent, so identical to
// serial).
func (s *Simulation) stream(w float64) {
	t0 := time.Now()
	wv := float32(w)
	act, pas := &s.Dom.Active, &s.Dom.Passive
	na := act.Len()
	s.pool.For(na+pas.Len(), func(lo, hi int) {
		aEnd, pBegin := splitAtActive(na, lo, hi)
		for i := lo; i < aEnd; i++ {
			act.X[i] += wv * act.Vx[i]
			act.Y[i] += wv * act.Vy[i]
			act.Z[i] += wv * act.Vz[i]
		}
		for i := pBegin; i < hi; i++ {
			j := i - na
			pas.X[j] += wv * pas.Vx[j]
			pas.Y[j] += wv * pas.Vy[j]
			pas.Z[j] += wv * pas.Vz[j]
		}
	})
	s.Timers.Add("stream", time.Since(t0))
}

// PowerSpectrum measures P(k) of the current particle distribution on the
// persistent pencil-r2c estimator plan (built on first use, rebuilt only
// when the bin count changes). The returned spectrum is caller-owned — it
// stays valid across later measurements; zero-allocation consumers use
// the plan's Measure directly. Collective.
func (s *Simulation) PowerSpectrum(bins int, subtractShot bool) *analysis.PowerSpectrum {
	s.ensurePower(bins)
	ps := s.power.Measure(s.Dom, subtractShot)
	return &analysis.PowerSpectrum{
		K:         append([]float64(nil), ps.K...),
		P:         append([]float64(nil), ps.P...),
		NModes:    append([]int64(nil), ps.NModes...),
		ShotNoise: ps.ShotNoise,
	}
}

// FindHalos runs the distributed FOF finder on the persistent analysis
// plan; b is the linking length as a fraction of the mean interparticle
// spacing (0.2 is standard). It reads the passive replicas, so it
// completes any overlapped refresh first. Each halo is reported by exactly
// one rank; the returned slice is plan-owned, valid until the next call.
// Collective.
func (s *Simulation) FindHalos(b float64, minN int) []analysis.Halo {
	s.FinishRefresh()
	s.ensureFOF()
	spacing := float64(s.Cfg.NGrid) / float64(s.Cfg.NParticles)
	return s.fof.FindHalos(b*spacing, minN, s.ParticleMassMsun)
}

// SaveSnapshot writes this rank's active particles to path as a particle
// snapshot container carrying the run's header (grid, box, scale factor,
// cosmology, seed). Per-rank products use per-rank paths, as in haccsim.
func (s *Simulation) SaveSnapshot(path string) error {
	h := snapshot.Header{
		NGrid:  uint32(s.Cfg.NGrid),
		BoxMpc: s.Cfg.BoxMpc,
		A:      s.A,
		OmegaM: s.Cfg.Cosmo.OmegaM,
		Seed:   s.Cfg.Seed,
	}
	return snapshot.SaveFile(path, h, &s.Dom.Active)
}

// DensityStats deposits the density and returns its statistics. Collective.
func (s *Simulation) DensityStats() analysis.DensityStats {
	s.rho.Fill(0)
	grid.DepositCIC(s.rho, s.Dom.Active.X, s.Dom.Active.Y, s.Dom.Active.Z, s.ParticleMass)
	s.rhoEx.Accumulate(s.rho)
	local := analysis.MeasureDensityStats(s.rho.Owned())
	// Combine across ranks.
	v := mpi.AllReduce(s.Comm, []float64{local.Variance * float64(len(s.rho.Owned()))}, mpi.SumF64)
	n := mpi.AllReduce(s.Comm, []float64{float64(len(s.rho.Owned()))}, mpi.SumF64)
	mx := mpi.AllReduce(s.Comm, []float64{local.Max}, mpi.MaxF64)
	mn := mpi.AllReduce(s.Comm, []float64{local.Min}, mpi.MinF64)
	return analysis.DensityStats{
		Variance: v[0] / n[0],
		Max:      mx[0],
		Min:      mn[0],
		NegFrac:  local.NegFrac,
	}
}

// GlobalCounters reduces the per-rank counters across the communicator. The
// communication totals come from each rank's own Comm.Stats() slot and merge
// through the same collective — never by reading peers' memory, which does
// not exist when ranks are separate OS processes on a wire transport.
func (s *Simulation) GlobalCounters() machine.Counters {
	cs := s.Comm.Stats()
	vals := []int64{s.Counters.KernelInteractions, s.Counters.FFT3D, s.Counters.CICOps,
		s.Counters.WalkNodes, s.Counters.StolenLeaves,
		cs.Msgs, cs.Bytes, cs.WireMsgs, cs.WireBytes}
	tot := mpi.AllReduce(s.Comm, vals, mpi.SumI64)
	return machine.Counters{
		KernelInteractions: tot[0],
		FFT3D:              s.Counters.FFT3D, // global transforms, not per-rank sums
		FFTGridN:           s.Counters.FFTGridN,
		CICOps:             tot[2],
		WalkNodes:          tot[3],
		StolenLeaves:       tot[4],
		MsgsSent:           tot[5],
		BytesSent:          tot[6],
		WireMsgs:           tot[7],
		WireBytes:          tot[8],
		// Collective events, identical on every rank: kept, not summed.
		Restarts:        s.Counters.Restarts,
		CkptRetries:     s.Counters.CkptRetries,
		CkptQuarantined: s.Counters.CkptQuarantined,
		Rebalances:      s.Counters.Rebalances,
	}
}

// MemoryMB estimates this rank's particle + field memory in MB (the
// Table II/III memory column).
func (s *Simulation) MemoryMB() float64 {
	bytes := s.Dom.MemoryBytes()
	bytes += int64(len(s.rho.Data)+3*len(s.acc[0].Data)) * 8
	return float64(bytes) / (1 << 20)
}
