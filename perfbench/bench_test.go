package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the benchmark must agree with.
type spec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	js, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(js, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWorkloadsMatchSpec pins the workload table to BENCHMARK.json.
func TestWorkloadsMatchSpec(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)",
				i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
}

// TestSmoke runs every workload at a tiny size in both modes and checks
// that the result line is correct and names exactly the metrics, with
// their units, that BENCHMARK.json lists for the mode.
func TestSmoke(t *testing.T) {
	s := loadSpec(t)
	want := map[string]map[string]string{"0": {}, "1": {}}
	for _, m := range s.EndToEnd {
		want["0"][m.Name] = m.Unit
	}
	for _, m := range s.PerLayer {
		want["1"][m.Name] = m.Unit
	}
	t.Chdir(t.TempDir())
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			var out bytes.Buffer
			args := []string{"--workload", w.name, "--seed", "3", "--seconds", "1", "--trace", trace, "--tiny"}
			if code := run(args, &out, io.Discard); code != 0 {
				t.Fatalf("%s trace %s: exit %d\n%s", w.name, trace, code, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]metric
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct=%t attempted=%d failed=%d\n%s",
					w.name, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			got := map[string]string{}
			for name, m := range res.Metrics {
				got[name] = m.Unit
			}
			if !sameMap(got, want[trace]) {
				t.Errorf("%s trace %s: metrics\n got %v\nwant %v", w.name, trace, keys(got), keys(want[trace]))
			}
		}
	}
}

// TestRefsCoverWorkloads checks that refs.json holds the default and
// held-out seeds, a tolerance and an envelope for every workload.
func TestRefsCoverWorkloads(t *testing.T) {
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		r := refs[w.name]
		if r == nil {
			t.Fatalf("refs.json has no %s", w.name)
		}
		nb := len(r.LogMean)
		for _, seed := range []string{"1", "7919"} {
			if len(r.Seeds[seed]) != nb || nb == 0 {
				t.Errorf("%s: no %d-bin reference for seed %s", w.name, nb, seed)
			}
		}
		if !(r.Tolerance > 0) || len(r.LogHalfWidth) != nb {
			t.Errorf("%s: incomplete tolerance or envelope", w.name)
		}
	}
}

func sameMap(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func keys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
