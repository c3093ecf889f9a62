package core

import (
	"fmt"
	"sort"

	"petscfun3d/internal/euler"
	"petscfun3d/internal/ilu"
	"petscfun3d/internal/krylov"
	"petscfun3d/internal/machine"
	"petscfun3d/internal/newton"
	"petscfun3d/internal/schwarz"
)

// ParallelResult reports a domain-decomposed solve: real convergence
// history plus the virtual machine's modeled execution profile.
type ParallelResult struct {
	Problem *Problem
	Newton  *newton.Result
	Report  machine.Report
	// HaloBytesPerExchange is the total data (bytes, all ranks) moved by
	// one ghost-point scatter — Table 3's "total data sent per
	// iteration" grows with rank count through this number.
	HaloBytesPerExchange int64
	// MaxVerticesPerRank and MinVerticesPerRank describe the partition.
	MaxVerticesPerRank int
	MinVerticesPerRank int
	// LinearSolveSeconds is the mean per-rank modeled time spent in the
	// Krylov solve phases (Table 2's "Linear Solve" column).
	LinearSolveSeconds float64
	// FactorStorageBytes is what the subdomain factorizations keep for
	// values, all ranks (Table 2's memory column).
	FactorStorageBytes int64
}

// rankLoads precomputes per-rank workload for the cost model.
type rankLoads struct {
	ranks     int
	b         int
	localN    []int   // owned scalar unknowns
	edges     []int64 // flux edges computed by the rank (cut edges count twice: redundant work)
	partners  [][]int
	sendBytes [][]int64 // bytes of one b-vector halo exchange
	haloTotal int64
}

func buildLoads(p *Problem) *rankLoads {
	ranks := p.Part.NParts
	b := p.Sys.B()
	l := &rankLoads{
		ranks:     ranks,
		b:         b,
		localN:    make([]int, ranks),
		edges:     make([]int64, ranks),
		partners:  make([][]int, ranks),
		sendBytes: make([][]int64, ranks),
	}
	for _, q := range p.Part.Part {
		l.localN[q] += b
	}
	for _, e := range p.Mesh.Edges {
		pa, pb := p.Part.Part[e.A], p.Part.Part[e.B]
		l.edges[pa]++
		if pb != pa {
			// Cut edges are computed by both owners — the redundant
			// work whose fraction grows with rank count.
			l.edges[pb]++
		}
	}
	for r := 0; r < ranks; r++ {
		h := &p.Halos[r]
		qs := make([]int32, 0, len(h.Sends))
		for q := range h.Sends {
			qs = append(qs, q)
		}
		sort.Slice(qs, func(i, j int) bool { return qs[i] < qs[j] })
		for _, q := range qs {
			l.partners[r] = append(l.partners[r], int(q))
			bytes := int64(len(h.Sends[q])) * int64(b) * 8
			l.sendBytes[r] = append(l.sendBytes[r], bytes)
			l.haloTotal += bytes
		}
	}
	return l
}

// RunParallel builds the problem, runs the real ψNKS solve, and models
// its execution on cfg.Ranks ranks of cfg.Profile nodes.
func RunParallel(cfg Config) (*ParallelResult, error) {
	if cfg.Ranks < 2 {
		return nil, fmt.Errorf("core: RunParallel needs Ranks >= 2, got %d", cfg.Ranks)
	}
	p, err := Build(cfg)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	loads := buildLoads(p)
	mach, err := machine.New(cfg.Ranks, cfg.Profile)
	if err != nil {
		return nil, err
	}
	var lastPC *schwarz.Preconditioner
	b := p.Sys.B()

	// The hooks below run deep inside the Newton solve and cannot return
	// errors through it; the first failure is latched here and reported
	// after Solve returns instead of panicking mid-solve.
	var hookErr error
	chargeHalo := func() {
		if hookErr != nil {
			return
		}
		if err := mach.Exchange(loads.partners, loads.sendBytes); err != nil {
			hookErr = fmt.Errorf("core: modeled halo exchange: %w", err)
		}
	}
	chargeFlux := func() {
		for r := 0; r < cfg.Ranks; r++ {
			mach.Compute(r,
				loads.edges[r]*euler.EdgeFluxFlops(b),
				euler.FluxTrafficBytes(loads.localN[r]/b, b, loads.edges[r]),
				cfg.Profile.FluxFlopRate)
		}
	}
	chargeVecOps := func(sweeps int) {
		for r := 0; r < cfg.Ranks; r++ {
			mach.Compute(r,
				int64(sweeps)*vecSweepFlops(loads.localN[r]),
				int64(sweeps)*vecSweepBytes(loads.localN[r]),
				0)
		}
	}

	hooks := &newton.Hooks{
		// A Newton-level residual evaluation: ghost update, flux sweep,
		// norm reduction.
		AfterResidual: func() {
			chargeHalo()
			chargeFlux()
			mach.AllReduce(1)
		},
		// Preconditioner refresh: Jacobian assembly plus subdomain ILU
		// factorization; with overlap, also the exchange of overlapped
		// matrix rows.
		AfterJacobian: func() {
			for r := 0; r < cfg.Ranks; r++ {
				edges := loads.edges[r]
				mach.Compute(r, edges*euler.JacobianAssemblyFlops(b), edges*euler.JacobianAssemblyBytes(b), 0)
			}
			if lastPC != nil {
				for r, sub := range lastPC.Subs {
					nnzb := sub.Factor.NNZBlocks()
					vb := sub.Factor.BytesPerValue()
					mach.Compute(r, ilu.FactorFlopsFor(nnzb, b), ilu.FactorBytesFor(nnzb, b, vb), 0)
					if ghost := sub.GhostRows(); ghost > 0 {
						// Overlapped matrix rows communicated once per
						// refresh: approximate as extra bytes in a halo
						// exchange pattern.
						mach.ComputeTimeDirect(r,
							float64(ghost*b*b*8*16)/cfg.Profile.NetBW, 0)
					}
				}
			}
		},
		// One GMRES matvec: ghost update, matrix-free flux evaluation,
		// the iteration's vector work, and the orthogonalization/norm
		// reductions. The synchronization count follows the mechanism the
		// solve runs (krylov.Options.Mechanism, which resolves the
		// default) — krylov.Stats.Reductions draws the same distinction
		// in the real solve: per-vector mgs pays one single-word round
		// per basis vector plus the norm (half the restart length on
		// average), the fused cgs/cgs2 paths batch the whole projection
		// column into ONE multi-word round plus the norm, and cgs1 folds
		// the norm scalars into that one round. Validate has already
		// rejected any other name.
		WrapOperator: func(op krylov.Operator) krylov.Operator {
			return krylov.OperatorFunc(func(v, y []float64) {
				op.Apply(v, y)
				mach.SetTag("linear")
				chargeHalo()
				chargeFlux()
				chargeVecOps(krylovVecSweeps)
				meanCol := cfg.Newton.Krylov.Restart/2 + 1
				switch cfg.Newton.Krylov.Mechanism() {
				case "mgs":
					for i := 0; i < meanCol; i++ {
						mach.AllReduce(1)
					}
					mach.AllReduce(1)
				case "cgs":
					mach.AllReduce(meanCol)
					mach.AllReduce(1)
				case "cgs2":
					// The batch carries the pre-projection norm too.
					mach.AllReduce(meanCol + 1)
					mach.AllReduce(1)
				case "cgs1":
					// ... and the newest basis vector's norm; no second round.
					mach.AllReduce(meanCol + 2)
				}
				mach.SetTag("")
			})
		},
		// One preconditioner application: subdomain triangular solves
		// (memory-bandwidth-bound), plus the RASM ghost update when
		// overlapped.
		WrapPreconditioner: func(pc krylov.Preconditioner) krylov.Preconditioner {
			return krylov.PrecondFunc(func(rv, z []float64) {
				pc.Apply(rv, z)
				mach.SetTag("linear")
				if cfg.Overlap > 0 {
					chargeHalo()
				}
				if lastPC != nil {
					for r, sub := range lastPC.Subs {
						mach.Compute(r, sub.SolveFlops(), sub.SolveBytes(), 0)
					}
				}
				mach.SetTag("")
			})
		},
	}

	nopts := cfg.Newton
	nopts.Krylov.Pool = p.Pool
	s := &newton.Solver{
		Disc:  p.Disc,
		Disc2: p.Disc2,
		PC:    p.PCFactory(&lastPC),
		Opts:  nopts,
		Hooks: hooks,
	}
	q := p.Disc.FreestreamVector()
	res, err := s.Solve(q)
	if hookErr != nil {
		return nil, hookErr
	}
	if err != nil {
		return nil, err
	}
	sizes := p.Part.Sizes()
	min, max := sizes[0], sizes[0]
	for _, s := range sizes {
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	var factorBytes int64
	if lastPC != nil {
		for _, sub := range lastPC.Subs {
			factorBytes += sub.Factor.StorageBytes()
		}
	}
	return &ParallelResult{
		Problem:              p,
		Newton:               res,
		Report:               mach.Report(),
		LinearSolveSeconds:   mach.TagSeconds("linear"),
		FactorStorageBytes:   factorBytes,
		HaloBytesPerExchange: loads.haloTotal,
		MaxVerticesPerRank:   max,
		MinVerticesPerRank:   min,
	}, nil
}
