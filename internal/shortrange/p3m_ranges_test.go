package shortrange

import (
	"math"
	"math/rand"
	"testing"

	"hacc/internal/par"
)

// copyKernel is the copy-list kernel signature of the mesh oracles: a
// cell's neighbors arrive gathered into contiguous (nx,ny,nz).
type copyKernel func(lx, ly, lz, nx, ny, nz, ax, ay, az []float32) int64

// meshCopyAdapter gathers spans into a contiguous list, in span order —
// the mesh-side bitwise walk oracle (see tree.TestRangeWalkMatchesCopyWalk
// for the tree side).
func meshCopyAdapter(kern copyKernel) RangeKernel {
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

// meshCopyWalk is the gathering reference walk, serial: each non-empty
// cell's particles see the 27 surrounding cells concatenated into one
// contiguous list in (dx,dy,dz) order. Forces land in AX/AY/AZ (zeroed
// first) and Interactions counts as in the production walk.
func meshCopyWalk(m *ChainingMesh, kern copyKernel) {
	m.prepForces()
	var nbrX, nbrY, nbrZ []float32
	ncell := m.dims[0] * m.dims[1] * m.dims[2]
	for c := 0; c < ncell; c++ {
		s, e := m.starts[c], m.starts[c+1]
		if s == e {
			continue
		}
		cz := c % m.dims[2]
		cy := (c / m.dims[2]) % m.dims[1]
		cx := c / (m.dims[1] * m.dims[2])
		nbrX, nbrY, nbrZ = nbrX[:0], nbrY[:0], nbrZ[:0]
		for x := cx - 1; x <= cx+1; x++ {
			for y := cy - 1; y <= cy+1; y++ {
				for z := cz - 1; z <= cz+1; z++ {
					if x < 0 || x >= m.dims[0] || y < 0 || y >= m.dims[1] || z < 0 || z >= m.dims[2] {
						continue
					}
					nc := (x*m.dims[1]+y)*m.dims[2] + z
					ns, ne := m.starts[nc], m.starts[nc+1]
					nbrX = append(nbrX, m.X[ns:ne]...)
					nbrY = append(nbrY, m.Y[ns:ne]...)
					nbrZ = append(nbrZ, m.Z[ns:ne]...)
				}
			}
		}
		m.Interactions.Add(kern(m.X[s:e], m.Y[s:e], m.Z[s:e], nbrX, nbrY, nbrZ,
			m.AX[s:e], m.AY[s:e], m.AZ[s:e]))
	}
}

// TestMeshRangeWalkMatchesCopyWalk: the z-column span walk (≤9 coalesced
// spans per cell) fed through the copy adapter must reproduce the 27-cell
// gather walk bitwise, including boundary cells with clamped stencils and
// empty cells inside a column.
func TestMeshRangeWalkMatchesCopyWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	poly := [6]float64{0.25, -0.05, 0.01, -1e-3, 8e-5, -2e-6}
	k := NewKernel(poly, 3.0, 0.01, 0.5)
	const n = 800
	x := make([]float32, n)
	y := make([]float32, n)
	z := make([]float32, n)
	for i := range x {
		// Clustered distribution: leaves some cells empty so columns span
		// empty interiors, and pushes particles to the domain faces.
		x[i] = float32(rng.Float64()*rng.Float64()) * 18
		y[i] = float32(rng.Float64()) * 18
		z[i] = float32(rng.Float64()*rng.Float64()) * 18
	}
	m := buildMesh(x, y, z, k.RCut)
	meshCopyWalk(m, k.applyCopy)
	ax0 := append([]float32(nil), m.AX...)
	ay0 := append([]float32(nil), m.AY...)
	az0 := append([]float32(nil), m.AZ...)
	inter0 := m.Interactions.Load()

	pool := par.NewPool(3)
	m.Interactions.Store(0)
	m.ComputeForcesPoolRanges(meshCopyAdapter(k.applyCopy), pool)
	if got := m.Interactions.Load(); got != inter0 {
		t.Fatalf("range walk evaluated %d interactions, copy walk %d", got, inter0)
	}
	for i := range ax0 {
		if math.Float32bits(m.AX[i]) != math.Float32bits(ax0[i]) ||
			math.Float32bits(m.AY[i]) != math.Float32bits(ay0[i]) ||
			math.Float32bits(m.AZ[i]) != math.Float32bits(az0[i]) {
			t.Fatalf("particle %d differs: (%v %v %v) vs (%v %v %v)",
				i, m.AX[i], m.AY[i], m.AZ[i], ax0[i], ay0[i], az0[i])
		}
	}

	// The production configuration (ApplyRanges) agrees within the kernel's
	// documented-ULP model: compare against the copy result with a bound
	// scaled by the local interaction count.
	m.ComputeForcesPoolRanges(k.ApplyRanges, pool)
	for i := range ax0 {
		for c, pair := range [3][2]float32{{m.AX[i], ax0[i]}, {m.AY[i], ay0[i]}, {m.AZ[i], az0[i]}} {
			diff := math.Abs(float64(pair[0]) - float64(pair[1]))
			scale := math.Abs(float64(pair[1])) + 1e-4
			if diff > 1e-3*scale {
				t.Fatalf("particle %d comp %d: production %v vs oracle %v", i, c, pair[0], pair[1])
			}
		}
	}
}
