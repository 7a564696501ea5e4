package tree

import "hacc/internal/par"

// Forest is the multi-tree configuration the paper lists as the next
// load-balancing step (§VI: "improve (nodal) load balancing by using
// multiple trees at each rank, enabling an improved threading of the
// tree-build"). The rank's particles are split into slabs along the
// longest axis; each slab gets its own RCB tree, built concurrently on the
// forest's worker pool, and the leaves of every tree are walked by one
// stealing dispatch over the same pool. A slab's tree also holds halo
// copies of particles within RCut of its boundaries so that its owned
// particles see every neighbor; forces computed for halo copies are
// discarded (their owning slab computes them).
type Forest struct {
	Trees []*Tree
	// gather[t] lists the caller indices in tree t's build set, owned
	// particles first; owned[t] is the count of owned entries.
	gather [][]int32
	owned  []int32

	pool   *par.Pool
	maxSub int
	rcut   float64
	// Full-capacity backing arrays; Trees/gather/owned are views of these,
	// resliced per rebuild (the effective slab count varies with the
	// particle extent). Sub-trees and per-tree coordinate scratch persist.
	trees      []*Tree
	gatherBuf  [][]int32
	ownedBuf   []int32
	tx, ty, tz [][]float32
}

// NewForest returns an empty forest of up to nsub slab trees with the given
// fat-leaf capacity and cutoff, built and walked on pool; call Rebuild to
// populate it.
func NewForest(leafSize, nsub int, rcut float64, pool *par.Pool) *Forest {
	if nsub < 1 {
		nsub = 1
	}
	f := &Forest{
		pool:      pool,
		maxSub:    nsub,
		rcut:      rcut,
		trees:     make([]*Tree, nsub),
		gatherBuf: make([][]int32, nsub),
		ownedBuf:  make([]int32, nsub),
		tx:        make([][]float32, nsub),
		ty:        make([][]float32, nsub),
		tz:        make([][]float32, nsub),
	}
	for t := 0; t < nsub; t++ {
		f.trees[t] = New(leafSize)
	}
	return f
}

// Rebuild repartitions the particles and reconstructs every sub-tree in
// place, reusing the gather lists, coordinate scratch, and tree storage.
func (f *Forest) Rebuild(x, y, z []float32) {
	n := len(x)
	nsub := f.maxSub
	rcut := f.rcut
	f.Trees = f.trees[:nsub]
	f.gather = f.gatherBuf[:nsub]
	f.owned = f.ownedBuf[:nsub]
	for t := 0; t < nsub; t++ {
		f.gather[t] = f.gather[t][:0]
	}
	if n == 0 {
		for t := 0; t < nsub; t++ {
			f.Trees[t].Rebuild(nil, nil, nil)
			f.owned[t] = 0
		}
		return
	}
	// Longest axis and its range.
	var lo, hi [3]float32
	lo = [3]float32{x[0], y[0], z[0]}
	hi = lo
	for i := 0; i < n; i++ {
		lo[0] = min32(lo[0], x[i])
		lo[1] = min32(lo[1], y[i])
		lo[2] = min32(lo[2], z[i])
		hi[0] = max32(hi[0], x[i])
		hi[1] = max32(hi[1], y[i])
		hi[2] = max32(hi[2], z[i])
	}
	dim := 0
	for d := 1; d < 3; d++ {
		if hi[d]-lo[d] > hi[dim]-lo[dim] {
			dim = d
		}
	}
	coords := [3][]float32{x, y, z}[dim]
	span := float64(hi[dim]-lo[dim]) + 1e-6
	// Slabs narrower than the cutoff would need halo copies from beyond
	// their immediate neighbors; cap the tree count instead.
	if rcut > 0 {
		if lim := int(span / rcut); nsub > lim {
			nsub = lim
		}
		if nsub < 1 {
			nsub = 1
		}
		f.Trees = f.Trees[:nsub]
		f.gather = f.gather[:nsub]
		f.owned = f.owned[:nsub]
	}
	slabOf := func(v float32) int {
		s := int(float64(v-lo[dim]) / span * float64(nsub))
		if s < 0 {
			s = 0
		}
		if s >= nsub {
			s = nsub - 1
		}
		return s
	}
	// Owned membership first, then halo copies within rcut of each slab.
	for i := 0; i < n; i++ {
		s := slabOf(coords[i])
		f.gather[s] = append(f.gather[s], int32(i))
	}
	for t := 0; t < nsub; t++ {
		f.owned[t] = int32(len(f.gather[t]))
	}
	rc := float32(rcut)
	for i := 0; i < n; i++ {
		s := slabOf(coords[i])
		slo := lo[dim] + float32(float64(s)*span/float64(nsub))
		shi := lo[dim] + float32(float64(s+1)*span/float64(nsub))
		if s > 0 && coords[i]-slo < rc {
			f.gather[s-1] = append(f.gather[s-1], int32(i))
		}
		if s < nsub-1 && shi-coords[i] < rc {
			f.gather[s+1] = append(f.gather[s+1], int32(i))
		}
	}
	// Concurrent builds (the threading-of-tree-build payoff): one tree per
	// pool index, each built exactly as a serial Rebuild would build it.
	f.pool.ForGrain(nsub, 1, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			idx := f.gather[t]
			tx := par.Resize(f.tx[t], len(idx))
			ty := par.Resize(f.ty[t], len(idx))
			tz := par.Resize(f.tz[t], len(idx))
			for j, g := range idx {
				tx[j], ty[j], tz[j] = x[g], y[g], z[g]
			}
			f.tx[t], f.ty[t], f.tz[t] = tx, ty, tz
			f.Trees[t].Rebuild(tx, ty, tz)
		}
	})
}

// ComputeForcesStealRanges evaluates every sub-tree with leaves distributed
// by the forest pool's deque-stealing dispatch over the flattened (tree,
// leaf) index space: any worker can walk any tree's leaves, so the forest
// self-balances when clustering makes per-slab cost diverge. Bitwise
// independent of the worker count, and of any static split of workers over
// trees: each leaf accumulates only into its own span of its tree's arrays.
// Returns the number of stolen leaves.
func (f *Forest) ComputeForcesStealRanges(kern RangeLeafKernel, rcut float64) int64 {
	pool := f.pool
	total := 0
	for _, tr := range f.Trees {
		tr.prepForces()
		tr.walk = par.Resize(tr.walk, pool.Workers())
		total += len(tr.leaves)
	}
	if total == 0 {
		return 0
	}
	rc := float32(rcut)
	trees := f.Trees
	return pool.ForSteal(total, 1, func(w, lo, hi int) {
		// Locate the tree containing global leaf lo; trees are short slices,
		// so a linear scan beats a prefix-sum search.
		t, base := 0, 0
		for lo >= base+len(trees[t].leaves) {
			base += len(trees[t].leaves)
			t++
		}
		for g := lo; g < hi; g++ {
			for g >= base+len(trees[t].leaves) {
				base += len(trees[t].leaves)
				t++
			}
			tr := trees[t]
			ws := &tr.walk[w]
			i, v := tr.walkLeafRanges(ws, g-base, kern, rc)
			tr.Interactions.Add(i)
			tr.NodesVisited.Add(v)
		}
	})
}

// NodesVisited sums walk node visits across the sub-trees.
func (f *Forest) NodesVisited() int64 {
	var s int64
	for _, t := range f.Trees {
		s += t.NodesVisited.Load()
	}
	return s
}

// AccelInto scatters the accelerations of owned particles back to the
// caller's order; halo-copy results are discarded.
func (f *Forest) AccelInto(ax, ay, az []float32) {
	for t, tr := range f.Trees {
		idx := f.gather[t]
		nOwn := f.owned[t]
		for i, o := range tr.orig {
			if o >= nOwn {
				continue
			}
			g := idx[o]
			ax[g] += tr.AX[i]
			ay[g] += tr.AY[i]
			az[g] += tr.AZ[i]
		}
	}
}

// Interactions sums pair-interaction counts across the sub-trees (halo
// duplication included: it is real work done).
func (f *Forest) Interactions() int64 {
	var s int64
	for _, t := range f.Trees {
		s += t.Interactions.Load()
	}
	return s
}
