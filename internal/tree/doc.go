// Package tree implements HACC's rank-local recursive coordinate bisection
// (RCB) tree (paper §III). The design follows the paper's two principles:
//
//   - Spatial locality: particles are recursively partitioned in place, so
//     after the build each subtree occupies a contiguous memory range and
//     leaf force evaluation touches only nearby memory.
//   - Walk minimization: leaves are "fat" (tens to hundreds of particles);
//     every particle in a leaf shares one contiguous interaction list, so
//     work shifts from slow pointer-chasing walks into the streaming force
//     kernel.
//
// The short-range force is compact (zero beyond RCut), and periodic images
// are materialized as overloaded replica particles by package domain, so
// the tree is strictly local with open boundaries and no multipoles.
//
// Tree and the multi-tree Forest are persistent: Rebuild re-partitions in
// place, retaining coordinate copies, accumulators, the node pool, the leaf
// cache, and per-worker walk scratch. Each has one production force path,
// dispatched on par.Pool:
//
//   - Tree.ComputeForcesPoolRanges: workers pull leaves from a shared
//     atomic cursor.
//   - Tree.ComputeForcesStealRanges: the same per-leaf walk on the pool's
//     deque-stealing dispatch (par.ForSteal), for clustered leaf costs.
//   - Forest.ComputeForcesStealRanges: one stealing dispatch over the
//     flattened (tree, leaf) index space of every sub-tree. NewForest
//     takes the pool, and Rebuild builds the sub-trees on it too.
//
// All three are bitwise independent of the worker count. The walk is
// copy-free: it hands the kernel (shortrange.Kernel.ApplyRanges) ordered
// (start,end) spans over the tree's leaf-contiguous SoA arrays instead of
// gathering neighbor coordinates. Leaves are visited in ascending index
// order so adjacent spans coalesce, and a subtree entirely inside the
// search box is emitted as one span without descending — both invisible
// to the kernel, because span order equals a gathering walk's
// concatenation order. That gathering walk survives only as a test oracle
// (copyWalk in ranges_test.go), pinned bitwise against the range walk by
// TestRangeWalkMatchesCopyWalk and its forest variant.
package tree
