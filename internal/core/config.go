// Package core is the PETSc-FUN3D facade: it assembles the mesh,
// discretization, partitioner, Schwarz-preconditioned ψNKS solver, and —
// for parallel studies — the virtual machine cost model, behind a single
// Config. The benchmark harness (cmd/benchtables) and the examples drive
// everything through this package.
package core

import (
	"fmt"
	"os"

	"petscfun3d/internal/euler"
	"petscfun3d/internal/ilu"
	"petscfun3d/internal/krylov"
	"petscfun3d/internal/mesh"
	"petscfun3d/internal/newton"
	"petscfun3d/internal/par"
	"petscfun3d/internal/partition"
	"petscfun3d/internal/perfmodel"
	"petscfun3d/internal/schwarz"
	"petscfun3d/internal/sparse"
)

// Config selects a complete solver setup. Zero values get defaults from
// DefaultConfig.
type Config struct {
	// Mesh: a mesh file (see mesh.Read) when MeshFile is set; otherwise
	// explicit lattice dimensions, or a target vertex count when NX==0.
	MeshFile       string
	NX, NY, NZ     int
	TargetVertices int

	// System is "incompressible" (4 unknowns/vertex) or "compressible"
	// (5 unknowns/vertex).
	System string

	// Order is the flux discretization order (1 or 2). SwitchOrderAt > 0
	// builds the second-order Disc2 and forces Disc to first order, but
	// never switches: nothing copies it into newton.Options.SwitchOrderAt,
	// so the whole solve runs first order.
	Order         int
	Limit         bool
	SwitchOrderAt float64
	// Viscosity adds Galerkin-type momentum diffusion (laminar
	// Navier-Stokes); 0 solves the Euler equations.
	Viscosity float64

	// RCM renumbers vertices by Reverse Cuthill-McKee (the paper's
	// locality ordering); EdgeOrdering is "sorted" or "colored".
	RCM          bool
	EdgeOrdering string

	// Newton configures the pseudo-transient Newton-Krylov driver.
	Newton newton.Options

	// Schwarz preconditioner: subdomain overlap, ILU fill level, and
	// single-precision factor storage (the default: the triangular
	// solves run at STREAM, so halving the factor bytes nearly doubles
	// their rate — the paper's Table 2; false stores float64).
	Overlap         int
	FillLevel       int
	SinglePrecision bool

	// Parallel setup: rank count, partitioner ("kway" or "pway"), and
	// the machine profile for the cost model. The Newton options carry
	// the remaining algorithmic switches (assembled vs matrix-free
	// operator, orthogonalization, SER law, ...).
	Ranks       int
	Partitioner string
	Profile     perfmodel.Profile

	// Threads is the node-level worker count for the threaded kernels
	// (flux sweeps, triangular solves, SpMV, Krylov reductions). 0 or 1
	// runs everything sequentially. The threaded kernels are bitwise
	// identical to sequential at every thread count.
	Threads int
}

// DefaultConfig returns a small incompressible problem on one rank,
// solved the paper's way: float32 factor storage and classical
// Gram-Schmidt (krylov.Orthogonalizations[0], which Newton.Krylov's
// unset Orthogonalization selects).
func DefaultConfig() Config {
	return Config{
		TargetVertices:  2000,
		System:          "incompressible",
		Order:           1,
		RCM:             true,
		EdgeOrdering:    "sorted",
		Newton:          newton.DefaultOptions(),
		Overlap:         0,
		FillLevel:       0,
		SinglePrecision: true,
		Ranks:           1,
		Threads:         1,
		Partitioner:     "kway",
		Profile:         perfmodel.ASCIRed,
	}
}

// Validate rejects configurations Build cannot honor, with errors that
// name the offending field. Build calls it first, so a bad knob fails
// fast instead of surfacing as a confusing downstream error (or
// silently running a different discretization than asked for).
func (cfg Config) Validate() error {
	if cfg.Order != 0 && cfg.Order != 1 && cfg.Order != 2 {
		return fmt.Errorf("core: invalid Order %d (want 1 or 2)", cfg.Order)
	}
	switch cfg.EdgeOrdering {
	case "", "sorted", "colored":
	default:
		return fmt.Errorf("core: unknown EdgeOrdering %q (want \"sorted\" or \"colored\")", cfg.EdgeOrdering)
	}
	if cfg.Overlap < 0 {
		return fmt.Errorf("core: negative Overlap %d", cfg.Overlap)
	}
	if cfg.FillLevel < 0 {
		return fmt.Errorf("core: negative FillLevel %d", cfg.FillLevel)
	}
	if cfg.Ranks < 1 {
		return fmt.Errorf("core: nonpositive Ranks %d", cfg.Ranks)
	}
	if cfg.Threads < 0 {
		return fmt.Errorf("core: negative Threads %d", cfg.Threads)
	}
	if cfg.MeshFile == "" && cfg.NX <= 0 && cfg.TargetVertices <= 0 {
		return fmt.Errorf("core: nonpositive TargetVertices %d with no MeshFile or lattice dimensions", cfg.TargetVertices)
	}
	if cfg.NX > 0 && (cfg.NY <= 0 || cfg.NZ <= 0) {
		return fmt.Errorf("core: lattice dimensions %dx%dx%d need all of NX, NY, NZ positive", cfg.NX, cfg.NY, cfg.NZ)
	}
	if !(cfg.SwitchOrderAt >= 0) { // rejects NaN too
		return fmt.Errorf("core: SwitchOrderAt %g, want >= 0", cfg.SwitchOrderAt)
	}
	if err := cfg.Newton.Validate(); err != nil {
		return fmt.Errorf("core: Newton: %w", err)
	}
	if err := cfg.Newton.Krylov.Validate(); err != nil {
		return fmt.Errorf("core: Newton.Krylov: %w", err)
	}
	return nil
}

// Problem holds everything Build assembles from a Config.
type Problem struct {
	Cfg   Config
	Mesh  *mesh.Mesh
	Sys   euler.System
	Graph sparse.Graph
	Disc  *euler.Discretization // active-order discretization
	Disc2 *euler.Discretization // second-order (when continuation is on)
	Part  *partition.Partition
	Halos []partition.Halo
	// Pool is the node-level worker pool (nil when Cfg.Threads <= 1);
	// Close releases it.
	Pool *par.Pool
}

// Close releases the problem's worker pool (safe on nil pools).
func (p *Problem) Close() { p.Pool.Close() }

// Build assembles a problem.
func Build(cfg Config) (*Problem, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var m *mesh.Mesh
	var err error
	switch {
	case cfg.MeshFile != "":
		f, ferr := os.Open(cfg.MeshFile)
		if ferr != nil {
			return nil, fmt.Errorf("core: %w", ferr)
		}
		m, err = mesh.Read(f)
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("core: %w", cerr)
		}
	case cfg.NX > 0:
		m, err = mesh.GenerateWing(mesh.DefaultWingSpec(cfg.NX, cfg.NY, cfg.NZ))
	default:
		m, err = mesh.GenerateWingN(cfg.TargetVertices)
	}
	if err != nil {
		return nil, err
	}
	if cfg.RCM {
		m = m.Renumber(mesh.RCM(m))
	}
	var sys euler.System
	switch cfg.System {
	case "", "incompressible":
		sys = euler.NewIncompressible()
	case "compressible":
		sys = euler.NewCompressible()
	default:
		return nil, fmt.Errorf("core: unknown system %q", cfg.System)
	}
	p := &Problem{Cfg: cfg, Mesh: m, Sys: sys}
	if cfg.Threads > 1 {
		p.Pool = par.New(cfg.Threads)
	}
	p.Graph = sparse.Graph{NV: m.NumVertices(), XAdj: m.XAdj, Adj: m.Adj}

	order := cfg.Order
	if order == 0 {
		order = 1
	}
	baseOrder := order
	if cfg.SwitchOrderAt > 0 {
		baseOrder = 1
	}
	p.Disc, err = euler.NewDiscretization(m, nil, sys, euler.Options{
		Order: baseOrder, EdgeOrdering: cfg.EdgeOrdering, Limit: cfg.Limit && baseOrder == 2,
		Viscosity: cfg.Viscosity,
	})
	if err != nil {
		return nil, err
	}
	if cfg.SwitchOrderAt > 0 {
		p.Disc2, err = euler.NewDiscretization(m, p.Disc.Geo, sys, euler.Options{
			Order: 2, EdgeOrdering: cfg.EdgeOrdering, Limit: cfg.Limit,
			Viscosity: cfg.Viscosity,
		})
		if err != nil {
			return nil, err
		}
	}
	if cfg.Ranks > 1 {
		switch cfg.Partitioner {
		case "", "kway":
			p.Part, err = partition.KWay(p.Graph, cfg.Ranks)
		case "pway":
			p.Part, err = partition.PWay(p.Graph, cfg.Ranks)
		default:
			return nil, fmt.Errorf("core: unknown partitioner %q", cfg.Partitioner)
		}
		if err != nil {
			return nil, err
		}
		p.Halos = partition.BuildHalos(p.Graph, p.Part)
	} else {
		p.Part = &partition.Partition{NParts: 1, Part: make([]int32, m.NumVertices())}
		p.Halos = partition.BuildHalos(p.Graph, p.Part)
	}
	return p, nil
}

// schwarzOptions is the preconditioner configuration Cfg selects.
func (p *Problem) schwarzOptions() schwarz.Options {
	return schwarz.Options{
		Overlap: p.Cfg.Overlap,
		ILU:     ilu.Options{Level: p.Cfg.FillLevel, SinglePrecision: p.Cfg.SinglePrecision},
		Pool:    p.Pool,
	}
}

// PCFactory returns the Schwarz preconditioner factory for the problem's
// partition and Config. The factory's first call builds the
// preconditioner (schwarz.New); every later call refreshes that same
// preconditioner in place from the new values (Refresh — the Jacobian's
// sparsity pattern is fixed by the mesh, and a matrix of another
// pattern is an error). Each call stores the preconditioner through
// last, when non-nil, so the parallel cost model can read per-subdomain
// work.
func (p *Problem) PCFactory(last **schwarz.Preconditioner) newton.PCFactory {
	var pc *schwarz.Preconditioner
	return func(a *sparse.BCSR) (krylov.Preconditioner, error) {
		if pc == nil {
			built, err := schwarz.New(a, p.Part.Part, p.Part.NParts, p.schwarzOptions())
			if err != nil {
				return nil, err
			}
			pc = built
		} else if err := pc.Refresh(a); err != nil {
			return nil, err
		}
		if last != nil {
			*last = pc
		}
		return pc, nil
	}
}
