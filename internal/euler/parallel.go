package euler

import (
	"fmt"

	"petscfun3d/internal/par"
	"petscfun3d/internal/prof"
)

// ResidualParallel evaluates the residual with the pool's workers
// splitting the edge loop — the shared-memory parallelism the paper
// studies for the flux phase (Table 5). Because two workers may touch
// the same vertex's residual, each worker accumulates into a private
// copy of the residual vector and the copies are summed afterwards —
// precisely the "redundant work arrays ... required by the lack of a
// vector-reduce in OpenMP (version 1)" whose gather cost the paper
// discusses. Boundary fluxes are applied by the calling goroutine.
//
// The private arrays are scratch buffers kept on the Discretization and
// sized lazily to the largest worker count seen, so repeated calls on
// the Table 5 hot path do not re-allocate O(n·threads) memory; as a
// consequence, concurrent ResidualParallel calls on the same
// Discretization are not allowed (concurrent calls on distinct
// Discretizations are fine). A nil pool runs the whole sweep inline.
//
// First-order fluxes only (the paper threads only the flux phase).
func (d *Discretization) ResidualParallel(q, r []float64, p *par.Pool) error {
	if d.Opts.Order != 1 {
		return fmt.Errorf("euler: ResidualParallel supports first-order fluxes only")
	}
	nw := p.Workers()
	sp := prof.Begin(prof.PhaseFlux)
	prof.NoteThreads(prof.PhaseFlux, nw)
	n := d.N()
	for i := range r[:n] {
		r[i] = 0
	}
	// Private residual arrays (the redundant work arrays) for workers
	// 1..nw-1; worker 0 accumulates directly into r. Reused across
	// calls, grown lazily; each worker zeroes its own buffer so the
	// clearing cost is parallelized along with the flux work.
	for len(d.privRes) < nw-1 {
		d.privRes = append(d.privRes, make([]float64, n)) //lint:alloc-ok grown once to the worker count, then reused across residual sweeps
	}
	t := &d.fluxT
	t.d, t.q, t.r = d, q, r
	p.Run(t)
	t.q, t.r = nil, nil
	// Gather: sum the private arrays (memory-bandwidth-bound, the cost
	// that can offset the threading benefit).
	gatherPrivate(r[:n], d.privRes[:nw-1])
	d.boundaryResidual(q, r)
	// The gather adds one read-modify-write sweep of the shared residual
	// plus a streaming read of each private copy per extra worker.
	extra := int64(nw - 1)
	sp.End(d.SweepFlops()+PrivateGatherFlops(extra, int64(n)),
		d.SweepBytes()+PrivateGatherBytes(extra, int64(n)))
	return nil
}

// fluxTask is the reusable worker-pool task of ResidualParallel: one
// contiguous edge stripe per worker, swept by the same edge kernel as
// Residual into the worker's own residual array.
type fluxTask struct {
	d    *Discretization
	q, r []float64
}

// RunShard implements par.Task.
func (t *fluxTask) RunShard(w, nw int) {
	d := t.d
	n := d.N()
	rr := t.r[:n]
	if w > 0 {
		rr = d.privRes[w-1][:n]
		for i := range rr {
			rr[i] = 0
		}
	}
	ne := len(d.edges)
	lo, hi := ne*w/nw, ne*(w+1)/nw
	d.fluxEdges(d.edges[lo:hi], nil, t.q, rr)
}

// gatherPrivate sums the redundant private residual arrays into the
// shared residual — the bandwidth-bound reduction Table 5 charges
// against the threading benefit. Each entry is one add over a
// read-modify-write of r plus a streaming read of the private copy.
func gatherPrivate(r []float64, priv [][]float64) {
	for _, pt := range priv {
		pt = pt[:len(r)] // bce: ties len(pt) to len(r); the range index serves both unchecked
		for i := range r {
			r[i] += pt[i]
		}
	}
}
