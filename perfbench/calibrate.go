package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"

	"hacc/internal/core"
)

// calibrationSeeds are the seeds refs.json stores spectra for: the default
// and held-out seeds, and enough others to measure the seed envelope.
var calibrationSeeds = func() []uint64 {
	s := []uint64{defaultSeed, heldOutSeed}
	for i := uint64(0); i <= 24; i++ {
		if i != defaultSeed {
			s = append(s, i)
		}
	}
	return s
}()

// nudge moves every active particle by one ulp along x: a roundoff-sized
// perturbation of the initial state.
func nudge(sim *core.Simulation) {
	x := sim.Dom.Active.X
	for i, v := range x {
		x[i] = math.Nextafter32(v, v+1)
	}
	sim.Dom.Refresh()
}

// writeRefs runs every workload at every calibration seed, plain and
// nudged, and writes the reference spectra, the roundoff tolerance and the
// seed envelope to path.
func writeRefs(path string, log io.Writer) error {
	dir, err := workDir("calibrate")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	refs := map[string]*reference{}
	for _, w := range workloads {
		ref := &reference{Seeds: map[string][]float64{}}
		var logs [][]float64
		for _, seed := range calibrationSeeds {
			cfg := w.config(seed, false)
			u, err := runUntraced(w, cfg, dir, runOpts{})
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			n, err := runUntraced(w, cfg, dir, runOpts{nudge: true})
			if err != nil {
				return fmt.Errorf("%s seed %d nudged: %w", w.name, seed, err)
			}
			d := maxRelDiff(n.final.spectrum, u.final.spectrum)
			ref.Tolerance = math.Max(ref.Tolerance, d)
			ref.Seeds[strconv.FormatUint(seed, 10)] = u.final.spectrum
			l := make([]float64, len(u.final.spectrum))
			for i, p := range u.final.spectrum {
				l[i] = math.Log(p)
			}
			logs = append(logs, l)
			fmt.Fprintf(log, "calibrate %s seed %d: nudge changes P(k) by %.3g\n", w.name, seed, d)
		}
		ref.Tolerance *= toleranceFactor
		nb := len(logs[0])
		ref.LogMean = make([]float64, nb)
		ref.LogHalfWidth = make([]float64, nb)
		n := float64(len(logs))
		for i := 0; i < nb; i++ {
			for _, l := range logs {
				ref.LogMean[i] += l[i] / n
			}
			var ss float64
			for _, l := range logs {
				ss += (l[i] - ref.LogMean[i]) * (l[i] - ref.LogMean[i])
			}
			ref.LogHalfWidth[i] = envelopeSigmas * math.Sqrt(ss/(n-1))
		}
		refs[w.name] = ref
	}
	js, err := json.MarshalIndent(refs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(js, '\n'), 0o644)
}
