package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"hacc/internal/core"
)

// record is everything one invocation measured, with where it came from;
// it is written as JSON next to the build and summarized on stdout.
type record struct {
	Provenance provenance  `json:"provenance"`
	Workload   string      `json:"workload"`
	Why        string      `json:"why"`
	Ranks      int         `json:"ranks"`
	Wire       bool        `json:"wire"`
	Seed       uint64      `json:"seed"`
	Trace      int         `json:"trace"`
	Config     core.Config `json:"config"`
	Metrics    []recMetric `json:"metrics"`
	// Info holds measured numbers that are not benchmark metrics: the
	// honesty checks' inputs and the untraced/traced comparisons.
	Info       map[string]float64 `json:"info,omitempty"`
	Model      *modelled          `json:"model,omitempty"`
	Counts     map[string]counts  `json:"exact_counts,omitempty"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	FailedFrac float64            `json:"failed_frac"`
	Failures   []string           `json:"failures,omitempty"`
}

// recMetric is one metric with its sample statistics.
type recMetric struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"` // the median for sampled timings
	Samples int     `json:"samples"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	TailPct float64 `json:"tail_pct,omitempty"` // see tailPercentile
	Tail    float64 `json:"tail,omitempty"`
}

func newRecord(w workload, seed uint64, trace int, cfg core.Config) *record {
	return &record{
		Provenance: getProvenance(), Workload: w.name, Why: w.why, Ranks: w.ranks, Wire: w.wire,
		Seed: seed, Trace: trace, Config: cfg.WithDefaults(), Info: map[string]float64{},
	}
}

func (r *record) metric(name, unit string, samples []float64) {
	m := recMetric{Name: name, Unit: unit, Value: median(samples), Samples: len(samples)}
	for i, v := range samples {
		if i == 0 || v < m.Min {
			m.Min = v
		}
		if i == 0 || v > m.Max {
			m.Max = v
		}
	}
	if q, v, ok := tailPercentile(samples); ok {
		m.TailPct, m.Tail = q, v
	}
	r.Metrics = append(r.Metrics, m)
}

// value reports a single measured number as a metric.
func (r *record) value(name, unit string, v float64) { r.metric(name, unit, []float64{v}) }

func (r *record) fail(what string, err error) {
	r.Failures = append(r.Failures, what+": "+err.Error())
}

// model keeps the modelled numbers of the first successful run.
func (r *record) model(u *untraced) {
	if r.Model == nil {
		m := modelOf(u)
		r.Model = &m
	}
}

func (r *record) print(out io.Writer) {
	p := r.Provenance
	fmt.Fprintf(out, "perfbench %s seed=%d trace=%d ranks=%d wire=%t\n", r.Workload, r.Seed, r.Trace, r.Ranks, r.Wire)
	fmt.Fprintf(out, "  why: %s\n", r.Why)
	fmt.Fprintf(out, "  git %s dirty=%s host=%s nproc=%d GOMAXPROCS=%d %s %s/%s\n",
		p.GitSHA, p.GitDirty, p.Host, p.NumCPU, p.GOMAXPROCS, p.GoVersion, p.OS, p.Arch)
	for _, m := range r.Metrics {
		fmt.Fprintf(out, "  %-40s %14.6g %-6s", m.Name, m.Value, m.Unit)
		if m.Samples > 1 {
			fmt.Fprintf(out, " median of %d, min %.4g max %.4g", m.Samples, m.Min, m.Max)
			if m.TailPct > 0 {
				fmt.Fprintf(out, ", p%.0f %.4g", m.TailPct, m.Tail)
			}
		}
		fmt.Fprintln(out)
	}
	for _, k := range sortedKeys(r.Info) {
		fmt.Fprintf(out, "  info %-35s %14.6g\n", k, r.Info[k])
	}
	if m := r.Model; m != nil {
		fmt.Fprintf(out, "  model host GFlop/s (counted-flop model)          %10.4g\n", m.HostGFlops)
		fmt.Fprintf(out, "  model BG/Q 1-node ns/particle/substep             %10.4g\n", m.BGQNsPerParticleSubstep)
		fmt.Fprintf(out, "  model Timers kernel share of walk+kernel          %10.4g\n", m.KernelShare)
		for _, x := range r.Metrics {
			if x.Name == "shortrange.kernel_share" {
				fmt.Fprintf(out, "  measured kernel share of walk+kernel (no-op walk) %10.4g\n", x.Value)
			}
		}
	}
	for _, name := range []string{"untraced", "traced"} {
		if c, ok := r.Counts[name]; ok {
			fmt.Fprintf(out, "  counts %-8s %+v\n", name, c)
		}
	}
	fmt.Fprintf(out, "  attempted %d failed %d failed_frac %g\n", r.Attempted, r.Failed, r.FailedFrac)
	for _, f := range r.Failures {
		fmt.Fprintf(out, "  FAILED %s\n", f)
	}
}

// write stores the record as JSON in dir and returns its path.
func (r *record) write(dir string) (string, error) {
	sha := r.Provenance.GitSHA
	if len(sha) > 12 {
		sha = sha[:12]
	}
	path := filepath.Join(dir, fmt.Sprintf("BENCH_%s_%s_seed%d_trace%d.json", sha, r.Workload, r.Seed, r.Trace))
	js, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(js, '\n'), 0o644)
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
