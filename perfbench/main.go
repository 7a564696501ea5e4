// Command perfbench is the canonical benchmark of the hacc reproduction.
// It runs one named workload, prints every metric by name and unit, checks
// the program's outputs, writes a JSON record under .bench_build/records,
// and ends its standard output with one JSON line:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value", "unit"}}}
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload tree-halo --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the workload runs end to end through core.New and
// Simulation.Run, tracing off, as many times as fit in --seconds, and the
// end-to-end metrics are reported. With --trace 1 one untraced run is
// followed by traced runs that replay each step as the sequence of public
// layer calls core makes, timed from outside; the per-layer metrics are
// reported, with the part of the step no layer accounts for.
//
// Seeds: 1 is the default seed for tuning and development; 7919 is held
// out, for verifying a performance claim on a seed it was not tuned on.
// Both have stored reference spectra (refs.json, written by --calibrate).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"hacc/internal/core"
	"hacc/internal/machine"
)

const (
	defaultSeed  = 1
	heldOutSeed  = 7919
	buildDir     = ".bench_build"
	recordSubdir = "records"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: tree-halo, pm-lcdm or wire-insitu")
	seed := fs.Uint64("seed", defaultSeed, fmt.Sprintf("input seed (%d default, %d held out)", defaultSeed, heldOutSeed))
	seconds := fs.Int("seconds", 20, "how long to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced runs")
	tiny := fs.Bool("tiny", false, "shrink the workload to a few seconds (smoke test; no reference spectra)")
	calibrate := fs.String("calibrate", "", "write reference spectra for every workload to this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *calibrate != "" {
		if err := writeRefs(*calibrate, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload tree-halo|pm-lcdm|wire-insitu, --seconds ≥1, --trace 0|1")
		return 2
	}
	if _, err := loadRefs(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	work, err := workDir(w.name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	b := &bench{w: w, seed: *seed, tiny: *tiny, dir: work, budget: time.Duration(*seconds) * time.Second,
		out: stdout, log: stderr}
	b.rec = newRecord(w, *seed, *trace, b.config())
	if *trace == 1 {
		b.layers()
	} else {
		b.endToEnd()
	}
	return b.finish()
}

// bench is one invocation: a workload at a seed, its results and record.
type bench struct {
	w         workload
	seed      uint64
	tiny      bool
	dir       string
	budget    time.Duration
	out, log  io.Writer
	rec       *record
	attempted int
	failed    int
}

func (b *bench) config() core.Config { return b.w.config(b.seed, b.tiny) }

// attempt counts one run and its outcome.
func (b *bench) attempt(what string, err error) bool {
	b.attempted++
	if err != nil {
		b.failed++
		b.rec.fail(what, err)
		fmt.Fprintf(b.log, "perfbench: %s %s: %v\n", b.w.name, what, err)
		return false
	}
	return true
}

// endToEnd repeats full untraced runs until the budget is spent (at least
// one) and reports medians.
func (b *bench) endToEnd() {
	start := time.Now()
	var setups, steps, perPart []float64
	for {
		fresh()
		t := time.Now()
		u, err := runUntraced(b.w, b.config(), b.dir, runOpts{checkRef: !b.tiny})
		if b.attempt("run", err) {
			setups = append(setups, u.setup.Seconds())
			for _, s := range u.steps {
				steps = append(steps, s.Seconds())
			}
			perPart = append(perPart, nsPerParticleSubstep(u))
			b.rec.model(u)
		}
		if time.Since(start)+time.Since(t) > b.budget {
			break
		}
	}
	b.rec.metric("setup_s", "s", setups)
	b.rec.metric("step_s", "s", steps)
	b.rec.metric("ns_per_particle_substep", "ns", perPart)
	b.rec.value("rss_peak_mb", "MB", peakRSSMB())
}

func nsPerParticleSubstep(u *untraced) float64 {
	return float64(u.runWall.Nanoseconds()) / (float64(u.substeps) * float64(u.nGlobal))
}

func (b *bench) finish() int {
	b.rec.Attempted, b.rec.Failed = b.attempted, b.failed
	b.rec.FailedFrac = float64(b.failed) / float64(b.attempted)
	b.rec.print(b.out)
	path, err := b.rec.write(mkdir(buildDir, recordSubdir))
	if err != nil {
		fmt.Fprintln(b.log, "perfbench: record:", err)
	} else {
		fmt.Fprintf(b.out, "record: %s\n", path)
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{b.failed == 0, b.attempted, b.failed, map[string]metric{}}
	for _, m := range b.rec.Metrics {
		line.Metrics[m.Name] = metric{Value: m.Value, Unit: m.Unit}
	}
	js, _ := json.Marshal(line) // plain structs of numbers and strings
	fmt.Fprintln(b.out, string(js))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workDir makes a fresh scratch directory for one invocation. Its name has
// a fixed length: checkpoints embed the config, checkpoint directory
// included, and their byte counts must repeat exactly run to run.
func workDir(name string) (string, error) {
	dir := filepath.Join(buildDir, "work", fmt.Sprintf("%s-%010d", name, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// mkdir creates (if needed) and returns a directory under the build
// directory, relative to the working directory.
func mkdir(parts ...string) string {
	p := filepath.Join(parts...)
	_ = os.MkdirAll(p, 0o755) // a failure surfaces at the first use of p
	return p
}

// peakRSSMB is the process's peak resident set in MB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// fresh collects the previous run's garbage and returns it to the OS, so
// every run starts from the same heap and the peak RSS is one run's peak.
func fresh() { debug.FreeOSMemory() }

// median of a non-empty sample set (0 for an empty one).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tailPercentile returns the highest percentile with at least ten samples
// beyond it, and false when there are too few samples for one.
func tailPercentile(v []float64) (q, val float64, ok bool) {
	n := len(v)
	if n < 11 {
		return 0, 0, false
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := n - 11 // s[i] has exactly ten samples above it
	return float64(i+1) / float64(n) * 100, s[i], true
}

// provenance identifies the code, host and toolchain a record came from.
type provenance struct {
	GitSHA     string `json:"git_sha"`
	GitDirty   string `json:"git_dirty"` // "true", "false", or "unknown"
	Host       string `json:"host"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func getProvenance() provenance {
	p := provenance{GitSHA: "unknown", GitDirty: "unknown", NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH}
	p.Host, _ = os.Hostname() // empty when unknown
	// The benchmark may run from a plain export of the tree, where git has
	// nothing to report (or would report an enclosing repository); the
	// fields then stay "unknown".
	top, err := exec.Command("git", "rev-parse", "--show-toplevel").Output()
	wd, _ := os.Getwd()
	if err != nil || strings.TrimSpace(string(top)) != wd {
		return p
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p.GitSHA = strings.TrimSpace(string(out))
		if out, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil {
			p.GitDirty = fmt.Sprint(len(out) > 0)
		}
	}
	return p
}

// modelled reports the program's modelled numbers for one untraced run.
// None of them is a measurement.
type modelled struct {
	// HostGFlops is the machine package's counted-flop model over the
	// measured run wall time.
	HostGFlops float64 `json:"host_gflops_model"`
	// BGQNsPerParticleSubstep projects the counted flops onto one BG/Q node
	// at the paper's sustained efficiency.
	BGQNsPerParticleSubstep float64 `json:"bgq_1node_ns_per_particle_substep_model"`
	// KernelShare is the program's own Timers split of walk+kernel time
	// (core.kernelShare's 1/8-gather rule).
	KernelShare float64 `json:"timers_kernel_share_model"`
}

func modelOf(u *untraced) modelled {
	m := modelled{HostGFlops: u.flops / u.runWall.Seconds() / 1e9}
	if u.substeps > 0 {
		perSub := u.flops / float64(u.substeps)
		m.BGQNsPerParticleSubstep = float64(machine.BGQTimePerSubstep(perSub, 1).Nanoseconds()) / float64(u.nGlobal)
	}
	if kw := u.modelKernel + u.modelWalk; kw > 0 {
		m.KernelShare = u.modelKernel.Seconds() / kw.Seconds()
	}
	return m
}
