package main

import (
	"fmt"
	"time"
)

// layers is the --trace 1 mode: pairs of one untraced and one traced run
// of the same seed, alternating which goes first, until the budget is spent
// (at least one pair). The untraced run gives the reference step time,
// counts and spectrum; the per-layer metrics are totals over the traced
// runs.
func (b *bench) layers() {
	start := time.Now()
	cfg := b.config()
	tol := 0.0 // the traced replay is exact unless a reference says otherwise
	if !b.tiny {
		if refs, err := loadRefs(); err == nil && refs[b.w.name] != nil {
			tol = refs[b.w.name].Tolerance
		}
	}
	var ut untraced // untraced totals: steps and model inputs
	var tot tracedRun
	pairs := 0
	var pkDiff float64
	for i := 0; ; i++ {
		t := time.Now()
		var u *untraced
		var tr *tracedRun
		var uerr, terr error
		untracedRun := func() { fresh(); u, uerr = runUntraced(b.w, cfg, b.dir, runOpts{checkRef: !b.tiny}) }
		tracedRun := func() { fresh(); tr, terr = runTraced(b.w, cfg, b.dir, !b.tiny) }
		if i%2 == 0 {
			untracedRun()
			tracedRun()
		} else {
			tracedRun()
			untracedRun()
		}
		if terr == nil && uerr == nil {
			terr = sameCounts(u.counts, tr.counts)
		}
		if terr == nil && uerr == nil {
			pkDiff = max(pkDiff, maxRelDiff(tr.final.spectrum, u.final.spectrum))
			if !(pkDiff <= tol) {
				terr = fmt.Errorf("traced final P(k) differs from the untraced one by %.3g (tolerance %.3g)", pkDiff, tol)
			}
		}
		uok := b.attempt("untraced run", uerr)
		tok := b.attempt("traced run", terr)
		if uok && tok {
			if pairs == 0 {
				b.rec.model(u)
				b.rec.Counts = map[string]counts{"untraced": u.counts, "traced": tr.counts}
				ut, tot = *u, *tr
			} else {
				ut.steps = append(ut.steps, u.steps...)
				tot.add(tr)
			}
			pairs++
		}
		if time.Since(start)+time.Since(t) > b.budget {
			break
		}
	}
	if pairs == 0 {
		return
	}
	b.rec.Info["pairs"] = float64(pairs)
	b.rec.Info["traced_pk_max_rel_diff"] = pkDiff
	b.layerMetrics(&ut, &tot, pairs)
}

// sameCounts is the exact-count self-check: a fixed seed must reproduce
// every count exactly.
func sameCounts(want, got counts) error {
	if want != got {
		return fmt.Errorf("exact counts differ between runs of one seed: untraced %+v, traced %+v", want, got)
	}
	return nil
}

// ratio is a/b, or 0 when there is no work to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics turns the traced totals (summed over ranks and runs) into
// the per-layer metrics. A per-step time is the mean over ranks; an
// ns-per-unit rate is the calls' wall time summed over ranks divided by the
// work summed over ranks.
func (b *bench) layerMetrics(u *untraced, t *tracedRun, runs int) {
	cfg := b.rec.Config
	lt := &t.lt
	r := float64(b.w.ranks)
	steps := float64(lt.steps) / r // full steps replayed, all runs
	nRuns := float64(runs)
	np := float64(cfg.NParticles) * float64(cfg.NParticles) * float64(cfg.NParticles)
	points := float64(cfg.NGrid) * float64(cfg.NGrid) * float64(cfg.NGrid)
	ns := func(d time.Duration) float64 { return float64(d.Nanoseconds()) }
	perStep := func(d time.Duration) float64 { return d.Seconds() / r / steps }
	v := b.rec.value

	kernel := lt.walkKernel - lt.walk + lt.meshWalkKernel - lt.meshWalk
	v("shortrange.kernel_ns_per_interaction", "ns", ratio(ns(kernel), float64(lt.interactions)))
	v("shortrange.interactions", "count", float64(lt.interactions)/steps)
	v("shortrange.kernel_share", "ratio", ratio(kernel.Seconds(), (lt.walkKernel+lt.meshWalkKernel).Seconds()))
	v("tree.walk_ns_per_node", "ns", ratio(ns(lt.walk), float64(lt.noopNodes)))
	v("tree.nodes_visited", "count", float64(lt.nodesVisited)/steps)
	v("tree.build_ns_per_particle", "ns", ratio(ns(lt.treeBuild), float64(lt.treeParticles)))
	v("tree.stolen_leaves", "count", float64(lt.stolen)/steps)
	v("shortrange.mesh_build_ns_per_particle", "ns", ratio(ns(lt.meshBuild), float64(lt.meshParticles)))
	v("par.dispatch_ns", "ns", t.dispatch/nRuns)
	v("grid.deposit_ns_per_particle", "ns", ratio(ns(lt.deposit), float64(lt.deposited)))
	v("grid.interp_ns_per_particle", "ns", ratio(ns(lt.interp), float64(lt.interpolated)))
	v("grid.ghost_post_s", "s", perStep(lt.ghostPost))
	v("grid.ghost_wait_s", "s", perStep(lt.ghostWait))
	v("spectral.solve_ns_per_point", "ns", ratio(ns(lt.solve), float64(lt.solves)/r*points))
	v("domain.migrate_post_s", "s", perStep(lt.migratePost))
	v("domain.migrate_wait_s", "s", perStep(lt.migrateWait))
	v("domain.refresh_post_s", "s", perStep(lt.refreshPost))
	v("domain.refresh_wait_s", "s", perStep(lt.refreshWait))
	v("mpi.msgs", "count", float64(t.counts.Msgs)/float64(cfg.Steps))
	v("mpi.bytes", "count", float64(t.counts.Bytes)/float64(cfg.Steps))
	v("mpi.wire_bytes", "count", float64(t.wire)/steps)
	v("mpi.wire_latency_p50_ns", "ns", float64(t.latency.P50Ns)/nRuns)
	v("mpi.wire_latency_p99_ns", "ns", float64(t.latency.P99Ns)/nRuns)
	ckpts := float64(lt.checkpoints) / r
	ckptS := ratio(lt.checkpoint.Seconds()/r, ckpts)
	v("gio.checkpoint_s", "s", ckptS)
	v("gio.checkpoint_mb_per_s", "MB/s", ratio(float64(t.counts.CkptBytes)/1e6, ckptS))
	v("gio.checkpoint_bytes", "count", float64(t.counts.CkptBytes))
	analyses := float64(lt.analyses) / r
	v("analysis.power_ns_per_particle", "ns", ratio(ns(lt.power), analyses*np))
	v("analysis.fof_ns_per_particle", "ns", ratio(ns(lt.fof), analyses*np))
	v("shortrange.fit_s", "s", t.fit.Seconds()/nRuns)
	v("ic.generate_s", "s", t.icGen.Seconds()/nRuns)

	layersSum := lt.deposit + lt.interp + lt.ghostPost + lt.ghostWait + lt.solve +
		lt.treeBuild + lt.walkKernel + lt.meshBuild + lt.meshWalkKernel +
		lt.migratePost + lt.migrateWait + lt.refreshPost + lt.refreshWait +
		lt.power + lt.fof + lt.checkpoint
	other := lt.step - layersSum
	v("core.other_s", "s", perStep(other))
	v("core.unattributed_frac", "ratio", ratio((other-lt.own).Seconds(), lt.step.Seconds()))
	var untracedStep time.Duration
	for _, s := range u.steps {
		untracedStep += s
	}
	untracedMean := untracedStep.Seconds() / float64(len(u.steps))
	tracedMean := lt.step.Seconds() / r / steps
	v("trace.overhead_frac", "ratio", ratio(tracedMean-untracedMean, untracedMean))

	b.rec.Info["step_s.untraced_mean"] = untracedMean
	b.rec.Info["step_s.traced_mean"] = tracedMean
	b.rec.Info["layers_sum_s_per_step"] = perStep(layersSum)
	b.rec.Info["core.own_loops_s_per_step"] = perStep(lt.own)
	b.rec.Info["noop_walk_s_per_step"] = perStep(lt.noop)
	b.rec.Info["noop_vs_real_interactions"] = ratio(float64(lt.noopInteractions), float64(lt.interactions))
}
