package core

import (
	"fmt"

	"petscfun3d/internal/euler"
	"petscfun3d/internal/machine"
)

// FluxPhaseTime models the Table 5 experiment: the flux (function
// evaluation) phase only, on `nodes` nodes, exploiting each node's
// second processor either with a second MPI rank (procsPerNode=2,
// threads=1) or with a second thread (procsPerNode=1, threads=2).
//
// The two mechanisms trade differently, as in the paper:
//   - MPI ranks double the subdomain count: more cut edges mean more
//     redundant flux work and more/smaller messages (surface-to-volume
//     worsens with rank count).
//   - Threads split the edge loop inside one subdomain with no halo
//     growth, but pay a memory-bandwidth-bound gather of the private
//     residual arrays (OpenMP 1's missing vector-reduce).
//
// Returns the modeled seconds for `evals` function evaluations.
func FluxPhaseTime(cfg Config, nodes, procsPerNode, threads, evals int) (float64, error) {
	if nodes < 2 || procsPerNode < 1 || procsPerNode > 2 || threads < 1 || threads > 2 {
		return 0, fmt.Errorf("core: FluxPhaseTime nodes=%d procsPerNode=%d threads=%d unsupported",
			nodes, procsPerNode, threads)
	}
	if procsPerNode == 2 && threads == 2 {
		return 0, fmt.Errorf("core: cannot use both two ranks and two threads per node")
	}
	ranks := nodes * procsPerNode
	cfg.Ranks = ranks
	p, err := Build(cfg)
	if err != nil {
		return 0, err
	}
	loads := buildLoads(p)
	mach, err := machine.New(ranks, cfg.Profile)
	if err != nil {
		return 0, err
	}
	b := p.Sys.B()
	// The flux kernel is instruction-scheduling bound (not memory bound),
	// so a second thread on the node nearly doubles the sustained rate.
	rate := cfg.Profile.FluxFlopRate * float64(threads)
	for e := 0; e < evals; e++ {
		if err := mach.Exchange(loads.partners, loads.sendBytes); err != nil {
			return 0, err
		}
		for r := 0; r < ranks; r++ {
			mach.Compute(r,
				loads.edges[r]*euler.EdgeFluxFlops(b),
				euler.FluxTrafficBytes(loads.localN[r]/b, b, loads.edges[r]),
				rate)
			if threads > 1 {
				// Gather of the private residual copies: a read-modify-write
				// sweep of the shared residual plus a streaming read of each
				// private copy per extra thread, bandwidth-bound on the
				// node's shared memory bus. Charged through the same formula
				// the measured kernel (euler.ResidualParallel) reports, so
				// model and profiler agree on the 24 bytes per entry.
				gatherBytes := float64(euler.PrivateGatherBytes(int64(threads-1), int64(loads.localN[r])))
				mach.ComputeTimeDirect(r, gatherBytes/cfg.Profile.NodeStreamBW, 0)
			}
		}
	}
	return mach.Elapsed(), nil
}
