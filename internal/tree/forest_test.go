package tree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hacc/internal/par"
)

// buildForest returns a forest over the particles, built on a fresh pool of
// the given size.
func buildForest(x, y, z []float32, leafSize, nsub int, rcut float64, workers int) *Forest {
	f := NewForest(leafSize, nsub, rcut, par.NewPool(workers))
	f.Rebuild(x, y, z)
	return f
}

func TestForestMatchesSingleTree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x, y, z := randomParticles(1500, 20, rng)
	const rcut = 2.5
	kern := copyAdapter(testKernel(rcut * rcut))

	single := Build(x, y, z, 32)
	single.ComputeForcesPoolRanges(kern, rcut, par.NewPool(2))
	sx := make([]float32, len(x))
	sy := make([]float32, len(x))
	sz := make([]float32, len(x))
	single.AccelInto(sx, sy, sz)

	for _, nsub := range []int{1, 2, 4, 7} {
		forest := buildForest(x, y, z, 32, nsub, rcut, 4)
		forest.ComputeForcesStealRanges(kern, rcut)
		fx := make([]float32, len(x))
		fy := make([]float32, len(x))
		fz := make([]float32, len(x))
		forest.AccelInto(fx, fy, fz)
		var scale float64
		for i := range sx {
			scale = math.Max(scale, math.Abs(float64(sx[i])))
		}
		for i := range sx {
			if math.Abs(float64(fx[i]-sx[i])) > 2e-4*scale ||
				math.Abs(float64(fy[i]-sy[i])) > 2e-4*scale ||
				math.Abs(float64(fz[i]-sz[i])) > 2e-4*scale {
				t.Fatalf("nsub=%d particle %d: forest (%g,%g,%g) single (%g,%g,%g)",
					nsub, i, fx[i], fy[i], fz[i], sx[i], sy[i], sz[i])
			}
		}
	}
}

func TestForestClampsNarrowSlabs(t *testing.T) {
	// 100 particles in a 4-cell span with rcut=2: at most 2 slabs fit.
	rng := rand.New(rand.NewSource(3))
	x, y, z := randomParticles(100, 4, rng)
	f := buildForest(x, y, z, 16, 16, 2.0, 1)
	if len(f.Trees) > 2 {
		t.Errorf("forest kept %d slabs for a 4-cell span at rcut=2", len(f.Trees))
	}
}

func TestForestEmptyAndSingle(t *testing.T) {
	kern := copyAdapter(testKernel(4))
	f := buildForest(nil, nil, nil, 16, 4, 2, 2)
	f.ComputeForcesStealRanges(kern, 2)
	f.AccelInto(nil, nil, nil)
	if f.Interactions() != 0 {
		t.Error("empty forest did work")
	}
	x := []float32{1}
	y := []float32{2}
	z := []float32{3}
	f = buildForest(x, y, z, 16, 4, 2, 2)
	f.ComputeForcesStealRanges(kern, 2)
	ax := make([]float32, 1)
	f.AccelInto(ax, ax, ax)
}

func TestForestOwnershipPartitionProperty(t *testing.T) {
	// Every particle is owned by exactly one sub-tree, so the scattered
	// acceleration of a "count ones" kernel equals the single-tree result.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 100 + rng.Intn(400)
		nsub := 1 + rng.Intn(6)
		x, y, z := randomParticles(n, 16, rng)
		countKern := func(lx, ly, lz, nx, ny, nz, ax, ay, az []float32) int64 {
			for i := range lx {
				ax[i] += 1 // one per leaf evaluation of this particle
			}
			return int64(len(lx)) * int64(len(nx))
		}
		forest := buildForest(x, y, z, 24, nsub, 2.0, 3)
		ax := make([]float32, n)
		ay := make([]float32, n)
		az := make([]float32, n)
		forest.ComputeForcesStealRanges(copyAdapter(countKern), 2.0)
		forest.AccelInto(ax, ay, az)
		for i := range ax {
			if ax[i] != 1 {
				return false // double-owned or orphaned particle
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
