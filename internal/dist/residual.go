package dist

import (
	"fmt"
	"math"

	"petscfun3d/internal/euler"
	"petscfun3d/internal/mpi"
	"petscfun3d/internal/par"
	"petscfun3d/internal/prof"
	"petscfun3d/internal/sparse"
)

// Residual is one rank's share of the distributed first-order euler
// residual: the flux edge loop split into interior edges (both
// endpoints owned) computed while the ghost-state exchange is in
// flight, and frontier edges (one ghost endpoint) computed after it —
// the same overlap structure as Matrix.MulVec, applied to the
// function-evaluation side of the solver.
//
// State and residual vectors are full global-length interlaced arrays
// of which each rank maintains only its owned entries (plus, inside
// Eval, the ghost entries the halo fills). The plan is built
// collectively; Eval must also be called collectively.
type Residual struct {
	Comm *mpi.Comm
	D    *euler.Discretization

	// Prof, when non-nil, receives this rank's measured phase timings.
	// Each rank runs on its own goroutine, so each rank needs its own
	// profiler (see Matrix.Prof).
	Prof *prof.Profiler

	ownedMask []bool
	nOwned    int
	interior  []int32 // edge indices, both endpoints owned
	frontier  []int32 // edge indices, exactly one endpoint owned
	halo      *Halo   // ghost-state exchange in global vertex numbering
}

// NewResidual builds rank c.Rank()'s share of the distributed residual
// under the vertex partition part (length NumVertices). The
// discretization must be first-order, inviscid, and interlaced — the
// configuration the paper's parallel preconditioner path uses.
func NewResidual(c *mpi.Comm, d *euler.Discretization, part []int32) (*Residual, error) {
	if d.Opts.Order != 1 {
		return nil, fmt.Errorf("dist: distributed residual requires a first-order discretization, got order %d", d.Opts.Order)
	}
	if d.Opts.Viscosity != 0 {
		return nil, fmt.Errorf("dist: distributed residual does not support viscosity")
	}
	if d.Opts.Layout != sparse.Interlaced {
		return nil, fmt.Errorf("dist: distributed residual requires the interlaced layout")
	}
	nv := d.M.NumVertices()
	if len(part) != nv {
		return nil, fmt.Errorf("dist: partition length %d for %d vertices", len(part), nv)
	}
	me := int32(c.Rank())
	counts := make([]int, c.Size())
	for v, q := range part {
		if q < 0 || int(q) >= c.Size() {
			return nil, fmt.Errorf("dist: vertex %d assigned to invalid rank %d", v, q)
		}
		counts[q]++
	}
	for q, n := range counts {
		if n == 0 {
			return nil, fmt.Errorf("dist: rank %d owns no vertices", q)
		}
	}
	r := &Residual{Comm: c, D: d, ownedMask: make([]bool, nv)}
	for v := int32(0); v < int32(nv); v++ {
		if part[v] == me {
			r.ownedMask[v] = true
			r.nOwned++
		}
	}
	r.interior, r.frontier = d.SplitEdges(func(v int32) bool { return r.ownedMask[v] })
	// Ghosts: the unowned endpoint of every frontier edge, deduplicated
	// and grouped by owning rank in ascending global order (vertex
	// iteration order fixes the wire order deterministically).
	ghost := make([]bool, nv)
	for _, ei := range r.frontier {
		a, b := d.EdgeEndpoints(ei)
		if !r.ownedMask[a] {
			ghost[a] = true
		}
		if !r.ownedMask[b] {
			ghost[b] = true
		}
	}
	needFrom := map[int][]int32{}
	for v := int32(0); v < int32(nv); v++ {
		if ghost[v] {
			needFrom[int(part[v])] = append(needFrom[int(part[v])], v) //lint:alloc-ok one-time plan negotiation at partition setup
		}
	}
	asked, err := negotiateHalo(c, needFrom)
	if err != nil {
		return nil, err
	}
	for q, rows := range asked {
		for _, v := range rows {
			if !r.ownedMask[v] {
				return nil, fmt.Errorf("dist: rank %d asked rank %d for vertex %d it does not own", q, me, v)
			}
		}
	}
	// Global numbering on both sides: pack straight out of q, unpack
	// straight into q.
	r.halo = newHalo(c, d.Sys.B(), mpi.TagHalo, asked, needFrom)
	return r, nil
}

// Eval computes the owned entries of the steady first-order residual
// res(q), overlapping the ghost-state exchange with the interior edges.
// q must hold this rank's owned values; its ghost entries are filled
// (overwritten) from the owning ranks. res is zeroed in full first —
// frontier edges also accumulate into their ghost endpoint, and those
// entries are meaningless here (the owning rank computes them).
func (r *Residual) Eval(q, res []float64) error {
	sp := r.Prof.Begin(prof.PhaseFlux)
	defer sp.End(0, 0) // the work is charged by the nested interior/boundary spans
	for i := range res {
		res[i] = 0
	}
	b := r.D.Sys.B()
	if err := r.halo.Start(r.Prof, q); err != nil {
		return err
	}
	isp := r.Prof.Begin(prof.PhaseInterior)
	r.D.ResidualEdges(q, res, r.interior)
	isp.End(euler.EdgeSubsetFlops(len(r.interior), b), euler.EdgeSubsetBytes(len(r.interior), b))
	if err := r.halo.Finish(r.Prof, q); err != nil {
		return err
	}
	bsp := r.Prof.Begin(prof.PhaseBoundary)
	r.D.ResidualEdges(q, res, r.frontier)
	r.D.BoundaryResidualMasked(q, res, r.ownedMask)
	bsp.End(euler.EdgeSubsetFlops(len(r.frontier), b), euler.EdgeSubsetBytes(len(r.frontier), b))
	return nil
}

// OwnedNorm2 returns the global Euclidean norm of a distributed
// global-length vector, summing only owned entries on each rank (ghost
// and far entries are other ranks' responsibility — counting them would
// double-count). A collective: the local sums meet in one reduction,
// charged to the reduce phase as one inner product.
func (r *Residual) OwnedNorm2(x []float64) float64 {
	b := r.D.Sys.B()
	sp := r.Prof.Begin(prof.PhaseReduce)
	defer sp.End(par.MDotFlops(1, r.nOwned*b), par.MDotBytes(1, r.nOwned*b))
	var s float64
	for v, owned := range r.ownedMask {
		if !owned {
			continue
		}
		for k := 0; k < b; k++ {
			xi := x[v*b+k]
			s += xi * xi
		}
	}
	return math.Sqrt(r.Comm.AllReduceSum(s))
}

// Owned reports whether this rank owns vertex v.
func (r *Residual) Owned(v int32) bool { return r.ownedMask[v] }

// NumOwned returns the number of owned vertices.
func (r *Residual) NumOwned() int { return r.nOwned }
