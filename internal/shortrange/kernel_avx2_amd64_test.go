//go:build !hacc_noasm

package shortrange

import (
	"bufio"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
)

// noAVX2 is the skip reason of every AVX2-only test and benchmark.
const noAVX2 = "host lacks AVX2 or the OS has not enabled YMM state"

// forceKernelPath pins applyRangesDispatch to one assembly kernel ("sse2"
// or "avx2") for the rest of tb, skipping when the host cannot run it.
func forceKernelPath(tb testing.TB, path string) {
	tb.Helper()
	var want bool
	switch path {
	case "sse2":
	case "avx2":
		if !hasAVX2 {
			tb.Skip(noAVX2)
		}
		want = true
	default:
		tb.Fatalf("unknown kernel path %q", path)
	}
	saved := useAVX2
	useAVX2 = want
	tb.Cleanup(func() { useAVX2 = saved })
}

// TestFsrSpan2AVX2BitExact pins the AVX2 kernel's contract the same way
// TestFsrSpanSSEBitExact pins the SSE2 one: each of the two targets must
// match, bitwise, the scalar lane model — per-pair FSR terms, lane L
// accumulating neighbors j≡L (mod 4), reduced as (l0+l2)+(l1+l3).
func TestFsrSpan2AVX2BitExact(t *testing.T) {
	if !hasAVX2 {
		t.Skip(noAVX2)
	}
	poly := [6]float64{0.2695, -0.0520, 0.0101, -1.25e-3, 8.6e-5, -2.45e-6}
	k := NewKernel(poly, 3.0, 0.01, 0.1)
	rng := rand.New(rand.NewSource(4321))
	for _, n := range []int{0, 4, 8, 64, 252} {
		// One spare element so &nx[0] is valid for the empty span.
		nx := make([]float32, n+1)
		ny := make([]float32, n+1)
		nz := make([]float32, n+1)
		for j := 0; j < n; j++ {
			nx[j] = rng.Float32() * 9
			ny[j] = rng.Float32() * 9
			nz[j] = rng.Float32() * 9
		}
		var tgt [2][3]float32
		for i := range tgt {
			tgt[i] = [3]float32{rng.Float32() * 9, rng.Float32() * 9, rng.Float32() * 9}
		}

		var want [2][3]float32
		for i, p := range tgt {
			var lane [4][3]float32
			for j := 0; j < n; j++ {
				dx := nx[j] - p[0]
				dy := ny[j] - p[1]
				dz := nz[j] - p[2]
				f := k.FSR(dx*dx + dy*dy + dz*dz)
				l := j % 4
				lane[l][0] += dx * f
				lane[l][1] += dy * f
				lane[l][2] += dz * f
			}
			for c := 0; c < 3; c++ {
				want[i][c] = (lane[0][c] + lane[2][c]) + (lane[1][c] + lane[3][c])
			}
		}

		sx0, sy0, sz0, sx1, sy1, sz1 := fsrSpan2AVX2(tgt[0][0], tgt[0][1], tgt[0][2], tgt[1][0], tgt[1][1], tgt[1][2],
			&nx[0], &ny[0], &nz[0], int64(n), k.kc)
		got := [2][3]float32{{sx0, sy0, sz0}, {sx1, sy1, sz1}}
		for i := range got {
			for c := 0; c < 3; c++ {
				if math.Float32bits(got[i][c]) != math.Float32bits(want[i][c]) {
					t.Fatalf("n=%d target %d comp %d: asm %v (bits %08x), scalar lane model %v (bits %08x)",
						n, i, c, got[i][c], math.Float32bits(got[i][c]), want[i][c], math.Float32bits(want[i][c]))
				}
			}
		}
	}
}

// TestApplyRangesAVX2MatchesSSE2 drives ApplyRanges through both kernels
// on randomized problems — odd and even target counts (so the odd last
// target takes the SSE2 path), empty spans, spans shorter than one 4-block,
// ragged tails, and gaps between spans — and requires bitwise-identical
// accelerations and equal interaction counts.
func TestApplyRangesAVX2MatchesSSE2(t *testing.T) {
	if !hasAVX2 {
		t.Skip(noAVX2)
	}
	poly := [6]float64{0.2695, -0.0520, 0.0101, -1.25e-3, 8.6e-5, -2.45e-6}
	k := NewKernel(poly, 3.0, 0.01, 0.1)
	rng := rand.New(rand.NewSource(99))
	mk := func(n int) []float32 {
		v := make([]float32, n)
		for i := range v {
			v[i] = rng.Float32() * 9
		}
		return v
	}
	run := func(path string, lx, ly, lz, px, py, pz []float32, ranges [][2]int32, a0 []float32) (int64, [3][]float32) {
		var acc [3][]float32
		for c := range acc {
			acc[c] = append([]float32(nil), a0...)
		}
		saved := useAVX2
		defer func() { useAVX2 = saved }()
		useAVX2 = path == "avx2"
		n := k.ApplyRanges(lx, ly, lz, px, py, pz, ranges, acc[0], acc[1], acc[2])
		return n, acc
	}
	const pool = 1024
	px, py, pz := mk(pool), mk(pool), mk(pool)
	for trial := 0; trial < 300; trial++ {
		nt := 1 + rng.Intn(70)
		lx, ly, lz := mk(nt), mk(nt), mk(nt)
		a0 := mk(nt) // nonzero start: ApplyRanges accumulates
		var ranges [][2]int32
		pos := int32(rng.Intn(8))
		for s := rng.Intn(10); s > 0; s-- {
			n := int32(rng.Intn(41))
			if pos+n > pool {
				break
			}
			ranges = append(ranges, [2]int32{pos, pos + n})
			pos += n + int32(rng.Intn(3)*rng.Intn(20)) // often adjacent, sometimes a gap
		}
		nSSE, sse := run("sse2", lx, ly, lz, px, py, pz, ranges, a0)
		nAVX, avx := run("avx2", lx, ly, lz, px, py, pz, ranges, a0)
		if nSSE != nAVX {
			t.Fatalf("trial %d: interaction counts sse2=%d avx2=%d", trial, nSSE, nAVX)
		}
		for c := range sse {
			for i := range sse[c] {
				if math.Float32bits(sse[c][i]) != math.Float32bits(avx[c][i]) {
					t.Fatalf("trial %d (nt=%d, spans=%v): target %d comp %d: sse2 %v, avx2 %v",
						trial, nt, ranges, i, c, sse[c][i], avx[c][i])
				}
			}
		}
	}
}

// TestDetectAVX2MatchesCPUInfo cross-checks the CPUID/XGETBV detection
// against the kernel's view in /proc/cpuinfo. Linux drops the avx and avx2
// flags when it does not enable XSAVE with YMM state, so they must agree
// with detectAVX2 — which catches a detector that trusts CPUID alone.
// Kernels that hide the osxsave flag still list xsave once it is in use.
func TestDetectAVX2MatchesCPUInfo(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("/proc/cpuinfo is Linux-only")
	}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	defer f.Close()
	flags := map[string]bool{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(key) == "flags" {
			for _, fl := range strings.Fields(val) {
				flags[fl] = true
			}
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading /proc/cpuinfo: %v", err)
	}
	if len(flags) == 0 {
		t.Skip("/proc/cpuinfo has no flags line")
	}
	osxsave := flags["osxsave"] || flags["xsave"]
	want := flags["avx"] && flags["avx2"] && osxsave
	if got := detectAVX2(); got != want {
		t.Fatalf("detectAVX2() = %v, /proc/cpuinfo says %v (avx=%v avx2=%v osxsave=%v xsave=%v)",
			got, want, flags["avx"], flags["avx2"], flags["osxsave"], flags["xsave"])
	}
	if hasAVX2 != want {
		t.Fatalf("hasAVX2 = %v, want %v", hasAVX2, want)
	}
}
