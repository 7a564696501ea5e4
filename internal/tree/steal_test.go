package tree

import (
	"math"
	"math/rand"
	"testing"

	"hacc/internal/par"
)

// TestStealWalkMatchesPoolWalk pins the stealing dispatch against the
// shared-cursor dispatch on a single tree: bitwise-identical accelerations
// and identical walk statistics for every pool size.
func TestStealWalkMatchesPoolWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	kern := copyAdapter(testKernel(4))
	const rcut = 2.0
	x, y, z := randomParticles(800, 16, rng)
	tr := Build(x, y, z, 16)
	tr.ComputeForcesPoolRanges(kern, rcut, par.NewPool(1))
	ax0 := append([]float32(nil), tr.AX...)
	ay0 := append([]float32(nil), tr.AY...)
	az0 := append([]float32(nil), tr.AZ...)
	inter0, visit0 := tr.Interactions.Load(), tr.NodesVisited.Load()
	for _, workers := range []int{1, 2, 3, 5} {
		tr.Interactions.Store(0)
		tr.NodesVisited.Store(0)
		tr.ComputeForcesStealRanges(kern, rcut, par.NewPool(workers))
		if tr.Interactions.Load() != inter0 || tr.NodesVisited.Load() != visit0 {
			t.Fatalf("workers=%d: stats (%d,%d) differ from cursor walk (%d,%d)",
				workers, tr.Interactions.Load(), tr.NodesVisited.Load(), inter0, visit0)
		}
		for i := range ax0 {
			if math.Float32bits(tr.AX[i]) != math.Float32bits(ax0[i]) ||
				math.Float32bits(tr.AY[i]) != math.Float32bits(ay0[i]) ||
				math.Float32bits(tr.AZ[i]) != math.Float32bits(az0[i]) {
				t.Fatalf("workers=%d: particle %d differs: (%v %v %v) vs (%v %v %v)",
					workers, i, tr.AX[i], tr.AY[i], tr.AZ[i], ax0[i], ay0[i], az0[i])
			}
		}
	}
}

// TestForestStealMatchesStatic pins the flattened (tree, leaf) stealing
// dispatch across worker counts against the 1-worker pool, where every
// leaf runs serially in (tree, leaf) order — the static schedule: the
// schedules must agree bitwise on scattered accelerations and exactly on
// the summed statistics.
func TestForestStealMatchesStatic(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	kern := copyAdapter(testKernel(4))
	const rcut = 2.0
	// Clustered distribution: most particles in one slab so a static
	// per-tree split is badly imbalanced — the case stealing exists for.
	n := 900
	x := make([]float32, n)
	y := make([]float32, n)
	z := make([]float32, n)
	for i := range x {
		if i < 700 {
			x[i] = rng.Float32() * 3
		} else {
			x[i] = rng.Float32() * 20
		}
		y[i] = rng.Float32() * 20
		z[i] = rng.Float32() * 20
	}

	f0 := buildForest(x, y, z, 16, 3, rcut, 1)
	f0.ComputeForcesStealRanges(kern, rcut)
	ax0 := make([]float32, n)
	ay0 := make([]float32, n)
	az0 := make([]float32, n)
	f0.AccelInto(ax0, ay0, az0)
	inter0, visit0 := f0.Interactions(), f0.NodesVisited()

	for _, workers := range []int{2, 3, 4} {
		f1 := buildForest(x, y, z, 16, 3, rcut, workers)
		f1.ComputeForcesStealRanges(kern, rcut)
		if f1.Interactions() != inter0 || f1.NodesVisited() != visit0 {
			t.Fatalf("workers=%d: stats (%d,%d) differ from 1-worker (%d,%d)",
				workers, f1.Interactions(), f1.NodesVisited(), inter0, visit0)
		}
		ax1 := make([]float32, n)
		ay1 := make([]float32, n)
		az1 := make([]float32, n)
		f1.AccelInto(ax1, ay1, az1)
		for i := range ax0 {
			if math.Float32bits(ax1[i]) != math.Float32bits(ax0[i]) ||
				math.Float32bits(ay1[i]) != math.Float32bits(ay0[i]) ||
				math.Float32bits(az1[i]) != math.Float32bits(az0[i]) {
				t.Fatalf("workers=%d: particle %d differs: (%v %v %v) vs (%v %v %v)",
					workers, i, ax1[i], ay1[i], az1[i], ax0[i], ay0[i], az0[i])
			}
		}
	}
}

// TestForestStealEmpty covers the zero-particle and empty-tree paths.
func TestForestStealEmpty(t *testing.T) {
	f := buildForest(nil, nil, nil, 16, 3, 2, 3)
	if stolen := f.ComputeForcesStealRanges(copyAdapter(testKernel(4)), 2); stolen != 0 {
		t.Fatalf("empty forest stole %d leaves", stolen)
	}
}
