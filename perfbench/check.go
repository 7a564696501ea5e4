package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"hacc/internal/core"
	"hacc/internal/gio"
)

// spectrumBins is the P(k) binning of every correctness comparison (the
// estimator drops empty bins, so a spectrum may have fewer). The
// spectra are compared without shot-noise subtraction, so every bin stays
// positive.
const spectrumBins = 16

// rankFinal is one rank's view of the end state of a run.
type rankFinal struct {
	nGlobal                int64
	badPos                 int // non-finite or outside [0, NGrid)
	halos                  int // this rank's share of the last halo catalog
	spectrum               []float64
	modelKernel, modelWalk time.Duration
}

// finalState is the merged end state the correctness gate reads.
type finalState struct {
	nGlobal  int64
	badPos   int
	halos    int
	spectrum []float64
}

// captureFinal records the end state of a rank's run. Collective.
func captureFinal(sim *core.Simulation) rankFinal {
	sim.FinishRefresh()
	f := rankFinal{nGlobal: sim.Dom.NGlobal()}
	n := float32(sim.Cfg.NGrid)
	a := &sim.Dom.Active
	for i := range a.X {
		for _, v := range [3]float32{a.X[i], a.Y[i], a.Z[i]} {
			if !(v >= 0 && v < n) { // false for NaN too
				f.badPos++
				break
			}
		}
	}
	if sim.LastAnalysis != nil {
		f.halos = len(sim.LastAnalysis.Halos)
	}
	ps := sim.PowerSpectrum(spectrumBins, false)
	if sim.Comm.Rank() == 0 {
		f.spectrum = ps.P
	}
	return f
}

func mergeFinal(rs []rankFinal) finalState {
	m := finalState{nGlobal: rs[0].nGlobal, spectrum: rs[0].spectrum}
	for _, r := range rs {
		m.badPos += r.badPos
		m.halos += r.halos
	}
	return m
}

// checkFinal is the correctness gate on one run's end state: particle count
// conserved, every position finite and inside the box, halos found when
// in-situ analysis ran, and the final P(k) within the stored reference's
// tolerance for the seed (see refs.json).
func checkFinal(w workload, cfg core.Config, f finalState, checkRef bool) error {
	want := int64(cfg.NParticles) * int64(cfg.NParticles) * int64(cfg.NParticles)
	if f.nGlobal != want {
		return fmt.Errorf("particle count %d, want %d", f.nGlobal, want)
	}
	if f.badPos > 0 {
		return fmt.Errorf("%d particles non-finite or outside the box", f.badPos)
	}
	if cfg.AnalysisEvery > 0 && f.halos == 0 {
		return fmt.Errorf("in-situ FOF found no halos")
	}
	if !checkRef {
		return nil
	}
	return checkSpectrum(w.name, cfg.Seed, f.spectrum)
}

// verifyCheckpoints opens every cadenced checkpoint step directory under
// root with core.OpenCheckpoint, CRC-verifies both of its containers with
// gio Reader.Verify, and returns how many there are and their total size.
func verifyCheckpoints(root string, steps int) (int, int64, error) {
	var total int64
	for i := 1; i <= steps; i++ {
		dir := filepath.Join(root, fmt.Sprintf("step%06d", i))
		gr, info, err := core.OpenCheckpoint(dir)
		if err != nil {
			return 0, 0, err
		}
		err = gr.Verify()
		gr.Close()
		if err != nil {
			return 0, 0, fmt.Errorf("checkpoint %s: %w", dir, err)
		}
		if info.StepIndex != i {
			return 0, 0, fmt.Errorf("checkpoint %s records step %d", dir, info.StepIndex)
		}
		rr, err := gio.Open(filepath.Join(dir, core.ReplicaFile))
		if err != nil {
			return 0, 0, err
		}
		err = rr.Verify()
		rr.Close()
		if err != nil {
			return 0, 0, fmt.Errorf("checkpoint %s replicas: %w", dir, err)
		}
		for _, name := range []string{core.StateFile, core.ReplicaFile} {
			st, err := os.Stat(filepath.Join(dir, name))
			if err != nil {
				return 0, 0, err
			}
			total += st.Size()
		}
	}
	return steps, total, nil
}

// reference is one workload's stored final P(k) data, written by
// -calibrate.
type reference struct {
	// Seeds maps a seed to its final P(k). A run of a stored seed must
	// match it within Tolerance (max relative difference over bins).
	Seeds map[string][]float64 `json:"seeds"`
	// Tolerance is toleranceFactor × the largest relative change of the
	// final P(k) that a one-ulp nudge of every initial position causes,
	// measured over the stored seeds: the roundoff sensitivity of the run,
	// so a change that only reorders float arithmetic stays inside it.
	Tolerance float64 `json:"tolerance"`
	// LogMean and LogHalfWidth are the seed envelope for seeds that are
	// not stored: per bin, the mean of ln P over the stored seeds and
	// envelopeSigmas × its standard deviation. It is a gross-error check
	// only: cosmic variance in these small boxes is heavy-tailed (seeds
	// outside the stored set have landed 6σ out in a low-k bin).
	LogMean      []float64 `json:"log_mean"`
	LogHalfWidth []float64 `json:"log_half_width"`
}

const (
	toleranceFactor = 10
	envelopeSigmas  = 10
)

//go:embed refs.json
var refsJSON []byte

func loadRefs() (map[string]*reference, error) {
	refs := map[string]*reference{}
	if err := json.Unmarshal(refsJSON, &refs); err != nil {
		return nil, fmt.Errorf("refs.json: %w", err)
	}
	return refs, nil
}

// checkSpectrum compares a final P(k) with the workload's reference for the
// seed, or with the seed envelope when the seed is not stored.
func checkSpectrum(name string, seed uint64, p []float64) error {
	refs, err := loadRefs()
	if err != nil {
		return err
	}
	ref := refs[name]
	if ref == nil {
		return fmt.Errorf("no stored reference for workload %s", name)
	}
	if want, ok := ref.Seeds[strconv.FormatUint(seed, 10)]; ok {
		if d := maxRelDiff(p, want); !(d <= ref.Tolerance) {
			return fmt.Errorf("final P(k) differs from the seed-%d reference by %.3g (tolerance %.3g)", seed, d, ref.Tolerance)
		}
		return nil
	}
	if len(p) != len(ref.LogMean) {
		return fmt.Errorf("final P(k) has %d bins, reference %d", len(p), len(ref.LogMean))
	}
	for i, v := range p {
		if !(v > 0) || math.Abs(math.Log(v)-ref.LogMean[i]) > ref.LogHalfWidth[i] {
			return fmt.Errorf("final P(k) bin %d = %g outside the seed envelope [%g, %g]", i, v,
				math.Exp(ref.LogMean[i]-ref.LogHalfWidth[i]), math.Exp(ref.LogMean[i]+ref.LogHalfWidth[i]))
		}
	}
	return nil
}

// maxRelDiff is the largest |a−b|/|b| over bins; +Inf when the lengths
// differ, NaN when a value is NaN.
func maxRelDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var m float64
	for i := range a {
		if a[i] == b[i] {
			continue
		}
		d := math.Abs(a[i]-b[i]) / math.Abs(b[i])
		if math.IsNaN(d) {
			return d
		}
		m = math.Max(m, d)
	}
	return m
}
