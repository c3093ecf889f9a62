package main

import (
	"fmt"

	"petscfun3d/internal/core"
	"petscfun3d/internal/dist"
)

// workload is one fixed input of the benchmark: a core.Config the
// solver is handed, and the path the solve takes.
type workload struct {
	name string
	// why records what the workload is in the benchmark for.
	why string
	// delta is the change against core.DefaultConfig(), for reports.
	delta string
	// warm solves run first and are checked but not timed; at least
	// reps solves are then timed, whatever the time budget. The two
	// workloads whose solve outlasts the budget time their first solve
	// too (the cost a CLI user pays on every run) rather than discard
	// half of what the run can afford.
	warm, reps int
	// ranks > 0 sends the solve through mpi.Run + dist.NewtonSolve at
	// that many ranks; 0 solves through core.RunSequential.
	ranks  int
	config func() core.Config
}

// Sizes are fixed: the lattice generator rounds a target to whole
// (nx, ny, nz), so any seed-drawn change of target either keeps the
// mesh or jumps the vertex count by 2-5 % — more than the bound on
// solve_s. The seed feeds the replay vectors instead.
var workloads = []workload{
	{
		name:  "seq-22k",
		delta: "TargetVertices=22677",
		why: "Paper's smallest M6 size, matrix-free, 1 rank, 1 thread: the plain baseline with Jacobian and " +
			"factors over 20x L2, where ILU setup, triangular solves and flux all carry weight.",
		reps: 2,
		config: func() core.Config {
			cfg := core.DefaultConfig()
			cfg.TargetVertices = 22677
			return cfg
		},
	},
	{
		name:  "seq-3k",
		delta: "TargetVertices=3000",
		why: "Same code path near cache residence, many samples: a bandwidth or layout gain shows on seq-22k and " +
			"not here; a per-call overhead or allocation gain shows here first.",
		warm: 2,
		reps: 1,
		config: func() core.Config {
			cfg := core.DefaultConfig()
			cfg.TargetVertices = 3000
			return cfg
		},
	},
	{
		name: "altpath-10k",
		delta: "TargetVertices=10000 System=compressible FillLevel=1 SinglePrecision Ranks=4 Overlap=1 " +
			"Orthogonalization=cgs AssembledOperator Threads=2",
		why: "The other branch of every switch: b=5 blocks, ILU(1) fill, float32 factors, 4 overlapping " +
			"subdomains, fused MDot/MAxpy, 2-thread SpMV and tri-solve; flux bypassed.",
		reps: 2,
		config: func() core.Config {
			cfg := core.DefaultConfig()
			cfg.TargetVertices = 10000
			cfg.System = "compressible"
			cfg.FillLevel = 1
			cfg.SinglePrecision = true
			cfg.Ranks = 4
			cfg.Overlap = 1
			cfg.Newton.Krylov.Orthogonalization = "cgs"
			cfg.Newton.AssembledOperator = true
			cfg.Threads = 2
			return cfg
		},
	},
	{
		name:  "dist2-10k",
		delta: "TargetVertices=10000 Ranks=2 (k-way), dist.DefaultNewtonOptions() with MaxSteps=100",
		why: "The only workload through mpi and dist (2 ranks): halo overlap, scatter wait, batched reductions, " +
			"block Jacobi; flux bypassed, preconditioner setup at its smallest share.",
		warm:  1,
		reps:  1,
		ranks: 2,
		config: func() core.Config {
			cfg := core.DefaultConfig()
			cfg.TargetVertices = 10000
			cfg.Ranks = 2
			return cfg
		},
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// distOptions are the distributed solver's settings on dist2-10k.
func distOptions() dist.NewtonOptions {
	o := dist.DefaultNewtonOptions()
	o.MaxSteps = 100
	return o
}
