// Package petscfun3d is a Go reproduction of the PETSc-FUN3D system of
// Gropp, Kaushik, Keyes & Smith, "Performance Modeling and Tuning of an
// Unstructured Mesh CFD Application" (SC 2000): a pseudo-transient
// Newton-Krylov-Schwarz solver for three-dimensional Euler flow on
// unstructured tetrahedral meshes, together with the memory-centric
// performance models and the virtual parallel machine used to reproduce
// the paper's tuning studies.
//
// The package is a facade over the repo's internal packages. A minimal
// solve:
//
//	cfg := petscfun3d.DefaultConfig()
//	cfg.TargetVertices = 22677
//	res, err := petscfun3d.Solve(cfg)
//
// Parallel performance studies run the same numerics while modeling
// execution on a virtual machine:
//
//	cfg.Ranks = 128
//	cfg.Profile = petscfun3d.ASCIRed
//	out, err := petscfun3d.SolveParallel(cfg)
//	fmt.Println(out.Report.Elapsed, out.Report.PctWait)
package petscfun3d

import (
	"petscfun3d/internal/core"
	"petscfun3d/internal/perfmodel"
)

// Config selects the mesh, flow system, discretization, solver
// parameters, preconditioner, and (for parallel studies) the partition
// and machine profile. See core.Config for field documentation.
type Config = core.Config

// Problem is the assembled mesh/discretization/partition bundle.
type Problem = core.Problem

// SequentialResult is the outcome of Solve.
type SequentialResult = core.SequentialResult

// ParallelResult is the outcome of SolveParallel.
type ParallelResult = core.ParallelResult

// Profile describes a machine node for the performance model.
type Profile = perfmodel.Profile

// The machine profiles of the paper's platforms.
var (
	ASCIRed     = perfmodel.ASCIRed
	CrayT3E     = perfmodel.CrayT3E
	BluePacific = perfmodel.BluePacific
	Origin2000  = perfmodel.Origin2000
)

// DefaultConfig returns a small incompressible problem on one rank.
func DefaultConfig() Config { return core.DefaultConfig() }

// Build assembles the mesh, discretization, and partition for cfg
// without solving.
func Build(cfg Config) (*Problem, error) { return core.Build(cfg) }

// Solve runs the ψNKS steady-state solve in one address space and
// reports real wall-clock times.
func Solve(cfg Config) (*SequentialResult, error) { return core.RunSequential(cfg) }

// SolveParallel runs the same numerics domain-decomposed over cfg.Ranks
// virtual ranks, reporting the modeled parallel execution profile
// (elapsed time, efficiency factors, communication breakdown).
func SolveParallel(cfg Config) (*ParallelResult, error) { return core.RunParallel(cfg) }

// FluxPhaseTime models the hybrid-parallelism experiment of the paper's
// Table 5: the flux phase on `nodes` nodes using either a second MPI
// rank or a second thread per node. See core.FluxPhaseTime.
func FluxPhaseTime(cfg Config, nodes, procsPerNode, threads, evals int) (float64, error) {
	return core.FluxPhaseTime(cfg, nodes, procsPerNode, threads, evals)
}

// ProfileByName looks up a built-in machine profile ("ASCI Red",
// "Cray T3E", "Blue Pacific", "Origin 2000").
func ProfileByName(name string) (Profile, error) { return perfmodel.ProfileByName(name) }
