package euler

// First-order flop and memory-traffic estimates of the discretization's
// kernels. They live here, next to the kernels they describe, so the
// virtual-machine cost model (internal/core) and the measured wall-clock
// profiler (internal/prof) account the same work with the same
// constants. The counts need only be right to first order: the model's
// scaling shapes come from how they distribute over ranks, and the
// profiler's roofline ratios from their order of magnitude.

// EdgeFluxFlops is the floating-point work per edge of one first-order
// flux evaluation, counted by hand from the written-out kernels (an edit
// that changes their arithmetic must re-count): fluxEdges4 does 72
// multiplies, divides, adds and subtracts per edge, fluxEdges5 47 more — the
// pressures, the divisions by ρ and the energy row are not O(b) extras,
// so the formula is the line through the two counted points, not a law
// in b. Square roots, absolute values and comparisons are not counted.
func EdgeFluxFlops(b int) int64 { return int64(72 + 47*(b-4)) }

// FluxTrafficBytes estimates the memory traffic of one flux evaluation
// over a subdomain with nvLocal vertices and edgesLocal edges: with the
// cache-friendly (interlaced, edge-sorted) layouts the paper's code
// uses, vertex state/residual/coordinate data is read from cache after
// its first touch, so traffic is one sweep over the vertex arrays plus
// the streaming read of the edge normals. This keeps the flux phase
// instruction-bound rather than memory-bound — the paper's explicit
// observation, and the premise of its hybrid-threading study.
func FluxTrafficBytes(nvLocal, b int, edgesLocal int64) int64 {
	return int64(nvLocal)*int64(8*(2*b+3)) + edgesLocal*24
}

// EdgeSubsetFlops estimates the floating-point work of a ResidualEdges
// pass over nEdges edges: the same per-edge flux arithmetic as the full
// sweep.
func EdgeSubsetFlops(nEdges, b int) int64 {
	return int64(nEdges) * EdgeFluxFlops(b)
}

// EdgeSubsetBytes estimates the memory traffic of a ResidualEdges pass:
// two state gathers, two residual read-modify-writes, and the streamed
// edge normal per edge. Subset sweeps visit vertices in partition
// order, so no whole-array reuse is assumed (unlike FluxTrafficBytes).
func EdgeSubsetBytes(nEdges, b int) int64 {
	return int64(nEdges) * int64(8*(2*b+2*2*b)+24)
}

// PrivateGatherFlops is the floating-point work of summing the extra
// redundant private residual arrays of a threaded sweep into the shared
// residual: one add per entry per extra worker.
func PrivateGatherFlops(extra, n int64) int64 { return extra * n }

// PrivateGatherBytes is the memory traffic of the same gather: per
// entry, a read-modify-write of the shared residual (8 bytes in, 8
// bytes out) plus a streaming read of the private copy (8 bytes) — 24
// bytes per entry per extra worker.
func PrivateGatherBytes(extra, n int64) int64 { return 24 * extra * n }

// JacobianAssemblyFlops estimates per-edge work of the analytical
// first-order Jacobian: two b×b physical Jacobians plus block
// accumulation.
func JacobianAssemblyFlops(b int) int64 { return int64(12 * b * b) }

// JacobianAssemblyBytes estimates per-edge traffic of assembly: four
// b×b blocks read and written — the two stored off-diagonal blocks as
// well, whose lines a write-allocating cache reads before the store.
func JacobianAssemblyBytes(b int) int64 { return int64(4 * 2 * 8 * b * b) }

// SweepFlops is the flop count of one residual evaluation on this
// discretization.
func (d *Discretization) SweepFlops() int64 {
	return int64(len(d.edges)) * EdgeFluxFlops(d.Sys.B())
}

// SweepBytes is the memory traffic of one residual evaluation on this
// discretization.
func (d *Discretization) SweepBytes() int64 {
	return FluxTrafficBytes(d.M.NumVertices(), d.Sys.B(), int64(len(d.edges)))
}

// gradientFlops estimates the least-squares gradient (+limiter) pass:
// each edge is visited from both endpoints with O(b) arithmetic, plus
// the per-vertex 3×3 back-substitutions.
func (d *Discretization) gradientFlops() int64 {
	b := int64(d.Sys.B())
	e := int64(len(d.edges))
	nv := int64(d.M.NumVertices())
	return 2*e*8*b + nv*18*b
}

// gradientBytes estimates the gradient pass traffic: one sweep over the
// state, one write of the gradients (3 per component), the LSQ inverses,
// and the streamed coordinates.
func (d *Discretization) gradientBytes() int64 {
	b := int64(d.Sys.B())
	nv := int64(d.M.NumVertices())
	return nv * (8*b + 24*b + 72 + 24)
}

// jacobianFlops is the flop count of one Jacobian assembly.
func (d *Discretization) jacobianFlops() int64 {
	return int64(len(d.edges)) * JacobianAssemblyFlops(d.Sys.B())
}

// jacobianBytes is the memory traffic of one Jacobian assembly.
func (d *Discretization) jacobianBytes() int64 {
	return int64(len(d.edges)) * JacobianAssemblyBytes(d.Sys.B())
}

// Flops is the flop count of one Assemble: the assembly's per-edge work
// over the plan's edges.
func (p *LocalJacobian) Flops() int64 {
	return int64(len(p.plan.idx)) * JacobianAssemblyFlops(p.d.Sys.B())
}

// Bytes is the memory traffic of one Assemble.
func (p *LocalJacobian) Bytes() int64 {
	return int64(len(p.plan.idx)) * JacobianAssemblyBytes(p.d.Sys.B())
}
