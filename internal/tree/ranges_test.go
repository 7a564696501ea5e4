package tree

import (
	"math"
	"math/rand"
	"testing"

	"hacc/internal/par"
)

// leafKernel is the copy-list kernel signature of the test oracles: the
// leaf's neighbors arrive gathered into contiguous (nx,ny,nz).
type leafKernel func(lx, ly, lz, nx, ny, nz, ax, ay, az []float32) int64

// copyAdapter turns a copy-list kernel into a RangeLeafKernel by gathering
// the spans into a contiguous list, in span order. Running the range walk
// through this adapter must reproduce copyWalk bitwise: the two walks are
// then proven to present identical neighbor sets in identical order, and
// any difference between production paths is confined to the kernel's
// documented-ULP accumulation (shortrange.TestApplyRangesULPBound).
func copyAdapter(kern leafKernel) RangeLeafKernel {
	return func(lx, ly, lz, px, py, pz []float32, ranges [][2]int32, ax, ay, az []float32) int64 {
		var nx, ny, nz []float32
		for _, r := range ranges {
			nx = append(nx, px[r[0]:r[1]]...)
			ny = append(ny, py[r[0]:r[1]]...)
			nz = append(nz, pz[r[0]:r[1]]...)
		}
		return kern(lx, ly, lz, nx, ny, nz, ax, ay, az)
	}
}

// copyWalk is the gathering reference walk, serial: for each leaf it
// descends to every overlapping leaf (no whole-subtree short-cut), copies
// their coordinates into one contiguous list in ascending leaf order, and
// calls kern. Forces land in AX/AY/AZ (zeroed first) and Interactions
// counts as in the production walks.
func copyWalk(t *Tree, kern leafKernel, rcut float64) {
	t.prepForces()
	rc := float32(rcut)
	var nbrX, nbrY, nbrZ []float32
	var stack []int32
	for _, li := range t.leaves {
		leaf := &t.nodes[li]
		var lo, hi [3]float32
		for d := 0; d < 3; d++ {
			lo[d] = leaf.lo[d] - rc
			hi[d] = leaf.hi[d] + rc
		}
		nbrX, nbrY, nbrZ = nbrX[:0], nbrY[:0], nbrZ[:0]
		stack = append(stack[:0], 0)
		for len(stack) > 0 {
			nd := &t.nodes[stack[len(stack)-1]]
			stack = stack[:len(stack)-1]
			if nd.lo[0] > hi[0] || nd.hi[0] < lo[0] ||
				nd.lo[1] > hi[1] || nd.hi[1] < lo[1] ||
				nd.lo[2] > hi[2] || nd.hi[2] < lo[2] {
				continue
			}
			if nd.left < 0 {
				nbrX = append(nbrX, t.X[nd.start:nd.end]...)
				nbrY = append(nbrY, t.Y[nd.start:nd.end]...)
				nbrZ = append(nbrZ, t.Z[nd.start:nd.end]...)
				continue
			}
			stack = append(stack, nd.right, nd.left)
		}
		s, e := leaf.start, leaf.end
		t.Interactions.Add(kern(t.X[s:e], t.Y[s:e], t.Z[s:e], nbrX, nbrY, nbrZ,
			t.AX[s:e], t.AY[s:e], t.AZ[s:e]))
	}
}

// TestRangeWalkMatchesCopyWalk is the bitwise walk oracle: the range walk
// (with leaf-span coalescing and whole-subtree subsumption) fed through the
// copy adapter must equal the copy walk exactly, for a spread of leaf sizes
// and cutoffs, on a multi-worker pool.
func TestRangeWalkMatchesCopyWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	kern := testKernel(4)
	pool := par.NewPool(3)
	for _, leafSize := range []int{1, 8, 64} {
		for _, rcut := range []float64{0.5, 2, 6} {
			x, y, z := randomParticles(700, 16, rng)
			tr := Build(x, y, z, leafSize)
			copyWalk(tr, kern, rcut)
			ax0 := append([]float32(nil), tr.AX...)
			ay0 := append([]float32(nil), tr.AY...)
			az0 := append([]float32(nil), tr.AZ...)
			copyInter := tr.Interactions.Load()

			tr.Interactions.Store(0)
			tr.ComputeForcesPoolRanges(copyAdapter(kern), rcut, pool)
			if got, want := tr.Interactions.Load(), copyInter; got != want {
				t.Fatalf("leaf=%d rcut=%g: range walk evaluated %d interactions, copy walk %d",
					leafSize, rcut, got, want)
			}
			for i := range ax0 {
				if math.Float32bits(tr.AX[i]) != math.Float32bits(ax0[i]) ||
					math.Float32bits(tr.AY[i]) != math.Float32bits(ay0[i]) ||
					math.Float32bits(tr.AZ[i]) != math.Float32bits(az0[i]) {
					t.Fatalf("leaf=%d rcut=%g: particle %d differs: (%v %v %v) vs (%v %v %v)",
						leafSize, rcut, i, tr.AX[i], tr.AY[i], tr.AZ[i], ax0[i], ay0[i], az0[i])
				}
			}
		}
	}
}

// TestForestRangeWalkMatchesCopyWalk extends the walk oracle across the
// multi-tree forest path (halo construction included): the forest's
// stealing walk against copyWalk over each of its trees.
func TestForestRangeWalkMatchesCopyWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x, y, z := randomParticles(900, 20, rng)
	kern := testKernel(4)
	const rcut = 2.0

	f0 := buildForest(x, y, z, 16, 3, rcut, 1)
	for _, tr := range f0.Trees {
		copyWalk(tr, kern, rcut)
	}
	ax0 := make([]float32, len(x))
	ay0 := make([]float32, len(x))
	az0 := make([]float32, len(x))
	f0.AccelInto(ax0, ay0, az0)

	f1 := buildForest(x, y, z, 16, 3, rcut, 3)
	f1.ComputeForcesStealRanges(copyAdapter(kern), rcut)
	if got, want := f1.Interactions(), f0.Interactions(); got != want {
		t.Fatalf("range walk evaluated %d interactions, copy walk %d", got, want)
	}
	ax1 := make([]float32, len(x))
	ay1 := make([]float32, len(x))
	az1 := make([]float32, len(x))
	f1.AccelInto(ax1, ay1, az1)

	for i := range ax0 {
		if math.Float32bits(ax1[i]) != math.Float32bits(ax0[i]) ||
			math.Float32bits(ay1[i]) != math.Float32bits(ay0[i]) ||
			math.Float32bits(az1[i]) != math.Float32bits(az0[i]) {
			t.Fatalf("particle %d differs: (%v %v %v) vs (%v %v %v)",
				i, ax1[i], ay1[i], az1[i], ax0[i], ay0[i], az0[i])
		}
	}
}

// TestRangeWalkThreadInvariance: the range walk partitions leaves over
// workers dynamically, but per-leaf spans are deterministic, so results
// must be independent of the pool size.
func TestRangeWalkThreadInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x, y, z := randomParticles(600, 12, rng)
	kern := copyAdapter(testKernel(4))
	tr := Build(x, y, z, 24)
	tr.ComputeForcesPoolRanges(kern, 2, par.NewPool(1))
	ax0 := append([]float32(nil), tr.AX...)
	for _, workers := range []int{2, 5} {
		tr.ComputeForcesPoolRanges(kern, 2, par.NewPool(workers))
		for i := range ax0 {
			if math.Float32bits(tr.AX[i]) != math.Float32bits(ax0[i]) {
				t.Fatalf("workers=%d: particle %d: %v vs %v", workers, i, tr.AX[i], ax0[i])
			}
		}
	}
}

// TestDepthIterative pins the iterative Depth against the structural
// recurrence on a freshly built tree (and the degenerate deep case).
func TestDepthIterative(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	x, y, z := randomParticles(512, 10, rng)
	tr := Build(x, y, z, 4)
	var rec func(n int32) int
	rec = func(n int32) int {
		nd := &tr.nodes[n]
		if nd.left < 0 {
			return 1
		}
		l, r := rec(nd.left), rec(nd.right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	if got, want := tr.Depth(), rec(0); got != want {
		t.Fatalf("Depth() = %d, recursive reference %d", got, want)
	}
	// Degenerate: identical coordinates force index-median splits all the
	// way down; depth must be ~log2(n/leaf)+1 and must not stack-overflow.
	n := 1 << 12
	xs := make([]float32, n)
	deep := Build(xs, xs, xs, 1)
	if got := deep.Depth(); got != 13 {
		t.Fatalf("degenerate depth = %d, want 13", got)
	}
}
