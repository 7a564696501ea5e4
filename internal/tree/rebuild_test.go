package tree

import (
	"math/rand"
	"slices"
	"testing"

	"hacc/internal/par"
)

// treeForces computes forces on a pool of the given size and scatters
// them to caller order.
func treeForces(tr *Tree, n, workers int) (ax, ay, az []float32) {
	tr.ComputeForcesPoolRanges(copyAdapter(testKernel(9)), 3, par.NewPool(workers))
	ax = make([]float32, n)
	ay = make([]float32, n)
	az = make([]float32, n)
	tr.AccelInto(ax, ay, az)
	return
}

// TestRebuildMatchesBuild reuses one Tree across particle sets of varying
// size and checks the result is bitwise identical to a fresh Build each
// time — the persistent solver state must be indistinguishable from the
// seed's rebuild-from-scratch behavior.
func TestRebuildMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	persistent := New(24)
	for _, n := range []int{400, 1000, 120, 0, 700} {
		x, y, z := randomParticles(n, 10, rng)
		persistent.Rebuild(x, y, z)
		fresh := Build(x, y, z, 24)
		if persistent.Leaves() != fresh.Leaves() || len(persistent.nodes) != len(fresh.nodes) {
			t.Fatalf("n=%d: structure differs: %d/%d leaves, %d/%d nodes",
				n, persistent.Leaves(), fresh.Leaves(), len(persistent.nodes), len(fresh.nodes))
		}
		for i := range fresh.orig {
			if persistent.orig[i] != fresh.orig[i] ||
				persistent.X[i] != fresh.X[i] || persistent.Y[i] != fresh.Y[i] || persistent.Z[i] != fresh.Z[i] {
				t.Fatalf("n=%d: slot %d differs after rebuild", n, i)
			}
		}
		pax, pay, paz := treeForces(persistent, n, 3)
		fax, fay, faz := treeForces(fresh, n, 3)
		for i := 0; i < n; i++ {
			if pax[i] != fax[i] || pay[i] != fay[i] || paz[i] != faz[i] {
				t.Fatalf("n=%d: force %d differs: (%g,%g,%g) vs (%g,%g,%g)",
					n, i, pax[i], pay[i], paz[i], fax[i], fay[i], faz[i])
			}
		}
		if persistent.Interactions.Load() != fresh.Interactions.Load() {
			t.Fatalf("n=%d: interaction counts differ: %d vs %d",
				n, persistent.Interactions.Load(), fresh.Interactions.Load())
		}
	}
}

// TestRebuildResetsStats checks the per-build statistics contract.
func TestRebuildResetsStats(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	x, y, z := randomParticles(300, 8, rng)
	tr := Build(x, y, z, 16)
	tr.ComputeForcesPoolRanges(copyAdapter(testKernel(9)), 3, par.NewPool(2))
	if tr.Interactions.Load() == 0 {
		t.Fatal("no interactions counted")
	}
	tr.Rebuild(x, y, z)
	if tr.Interactions.Load() != 0 || tr.NodesVisited.Load() != 0 {
		t.Fatal("Rebuild did not reset statistics")
	}
}

// TestComputeForcesPoolMatches checks the 4-worker pooled dispatch against
// the serial 1-worker run (bitwise: leaves own disjoint output ranges).
func TestComputeForcesPoolMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	x, y, z := randomParticles(600, 12, rng)
	kern := copyAdapter(testKernel(9))
	a := Build(x, y, z, 24)
	a.ComputeForcesPoolRanges(kern, 3, par.NewPool(4))
	b := Build(x, y, z, 24)
	b.ComputeForcesPoolRanges(kern, 3, par.NewPool(1))
	for i := range a.AX {
		if a.AX[i] != b.AX[i] || a.AY[i] != b.AY[i] || a.AZ[i] != b.AZ[i] {
			t.Fatalf("pooled force %d differs", i)
		}
	}
	if a.Interactions.Load() != b.Interactions.Load() {
		t.Fatalf("interaction counts differ: %d vs %d", a.Interactions.Load(), b.Interactions.Load())
	}
}

// TestForestRebuildMatchesBuild reuses one Forest per pool size across
// particle sets and compares each against a fresh forest built on a
// 1-worker pool: the pooled concurrent sub-tree builds must give the same
// trees, and the stealing walk the same forces and counts, bitwise.
func TestForestRebuildMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	kern := copyAdapter(testKernel(4))
	workers := []int{1, 2, 4}
	persistent := make([]*Forest, len(workers))
	for i, w := range workers {
		persistent[i] = NewForest(16, 4, 2, par.NewPool(w))
	}
	for _, n := range []int{800, 250, 0, 1200} {
		x, y, z := randomParticles(n, 20, rng)
		fresh := buildForest(x, y, z, 16, 4, 2, 1)
		fresh.ComputeForcesStealRanges(kern, 2)
		for i, w := range workers {
			p := persistent[i]
			p.Rebuild(x, y, z)
			p.ComputeForcesStealRanges(kern, 2)
			if len(p.Trees) != len(fresh.Trees) {
				t.Fatalf("workers=%d n=%d: tree counts differ: %d vs %d", w, n, len(p.Trees), len(fresh.Trees))
			}
			for ti, ft := range fresh.Trees {
				pt := p.Trees[ti]
				if !slices.Equal(pt.nodes, ft.nodes) || !slices.Equal(pt.orig, ft.orig) ||
					!slices.Equal(pt.X, ft.X) || !slices.Equal(pt.Y, ft.Y) || !slices.Equal(pt.Z, ft.Z) {
					t.Fatalf("workers=%d n=%d tree %d: structure differs", w, n, ti)
				}
				if !slices.Equal(pt.AX, ft.AX) || !slices.Equal(pt.AY, ft.AY) || !slices.Equal(pt.AZ, ft.AZ) {
					t.Fatalf("workers=%d n=%d tree %d: forces differ", w, n, ti)
				}
			}
			if p.Interactions() != fresh.Interactions() || p.NodesVisited() != fresh.NodesVisited() {
				t.Fatalf("workers=%d n=%d: counts (%d,%d) vs (%d,%d)", w, n,
					p.Interactions(), p.NodesVisited(), fresh.Interactions(), fresh.NodesVisited())
			}
		}
	}
}
