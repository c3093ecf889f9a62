package experiments

import (
	"fmt"
	"time"

	"petscfun3d/internal/cachesim"
	"petscfun3d/internal/euler"
	"petscfun3d/internal/ilu"
	"petscfun3d/internal/mesh"
	"petscfun3d/internal/sparse"
)

// Table1Row is one layout-enhancement combination of the paper's Table 1.
type Table1Row struct {
	Interlacing bool `col:"interlacing"`
	Blocking    bool `col:"blocking"`
	Reordering  bool `col:"reordering"`
	// FluxKernels is the kernel family of the row's flux sweep
	// (Discretization.FluxKernelFamily): "AVX2" where the host has the
	// vector kernel for the layout, so an interlaced row's ratio is the
	// layout's and the vector form's together.
	FluxKernels string `col:"flux kernels"`
	// SpMVKernels is the kernel family of the row's SpMV
	// (sparse.KernelFamily for the blocked product; the scalar CSR
	// product has only its Go kernel).
	SpMVKernels string `col:"spmv kernels"`
	// PerStep is the measured wall-clock time of one representative
	// pseudo-timestep of kernel work on the host.
	PerStep time.Duration `col:"measured,%.3f,ms,1e6"`
	Ratio   float64       `col:"ratio,%.2f"` // baseline measured time / this measured time
	// Modeled is the same step's time on the paper's 250 MHz R10000,
	// from the trace-driven simulator and per-miss penalties — the
	// paper's memory-centric model. Modern hosts hide part of the
	// locality effects behind large caches; the modeled column restores
	// the era's balance.
	Modeled      float64 `col:"R10000 model,%.3f,s"`
	ModeledRatio float64 `col:"model ratio,%.2f"`
}

// Table1Result reproduces Table 1 for one flow system: one flux
// evaluation plus a fixed number of Jacobian SpMVs and preconditioner
// triangular solves per step, under each combination of field
// interlacing, structural blocking, and edge reordering — measured on
// the host and modeled on the R10000.
type Table1Result struct {
	System   string `col:"system"`
	Vertices int    `col:"vertices"`
	Rows     []Table1Row
}

// Tables prints the sweep with both the host-measured and the
// R10000-modeled columns.
func (t *Table1Result) Tables() []Table {
	return []Table{{Name: "table1_" + t.System, Title: "Table 1 — layout enhancements, 1 CPU",
		Measured: true, Params: t, Rows: t.Rows}}
}

// layouts are the six enhancement combinations of Table 1 and Figure 3,
// in the paper's order: baseline; I; I+B; R; I+R; I+B+R.
var layouts = []struct {
	label                 string
	inter, block, reorder bool
}{
	{"NOER/noninterlaced", false, false, false},
	{"NOER/interlaced", true, false, false},
	{"NOER/interlaced+blocked", true, true, false},
	{"reordered/noninterlaced", false, false, true},
	{"reordered/interlaced", true, false, true},
	{"reordered/interlaced+blocked", true, true, true},
}

// layoutVariant bundles the kernels of one enhancement combination.
type layoutVariant struct {
	flux        func()
	fluxKernels string // the family the flux sweep runs
	spmv        func()
	spmvKernels string // the family the SpMV runs
	trisolv     func()
	trace       func(h *cachesim.Hierarchy, fluxEvals, sweeps int)
}

// Table1Study times, best of reps, one step of fluxEvals flux sweeps and
// sweeps SpMV+triangular-solve pairs on the RCM-ordered wing of about nv
// vertices, and traces the same step through h, for each of the layouts.
func Table1Study(system string, nv, fluxEvals, sweeps, reps int, h *cachesim.Hierarchy) (*Table1Result, error) {
	var sys euler.System
	switch system {
	case "incompressible":
		sys = euler.NewIncompressible()
	case "compressible":
		sys = euler.NewCompressible()
	default:
		return nil, fmt.Errorf("experiments: unknown system %q", system)
	}
	m, err := mesh.GenerateWingN(nv)
	if err != nil {
		return nil, err
	}
	m = m.Renumber(mesh.RCM(m))
	res := &Table1Result{System: system, Vertices: m.NumVertices()}
	pen := cachesim.R10000Penalties()
	for _, c := range layouts {
		v, err := buildVariant(m, sys, c.inter, c.block, c.reorder)
		if err != nil {
			return nil, err
		}
		best := time.Duration(1<<63 - 1)
		for rep := 0; rep < reps; rep++ {
			start := time.Now()
			for f := 0; f < fluxEvals; f++ {
				v.flux()
			}
			for s := 0; s < sweeps; s++ {
				v.spmv()
				v.trisolv()
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		h.Reset()
		v.trace(h, fluxEvals, sweeps)
		res.Rows = append(res.Rows, Table1Row{
			Interlacing: c.inter, Blocking: c.block, Reordering: c.reorder, FluxKernels: v.fluxKernels, SpMVKernels: v.spmvKernels,
			PerStep: best,
			Modeled: pen.Seconds(h.Counters()),
		})
	}
	for i := range res.Rows {
		res.Rows[i].Ratio = res.Rows[0].PerStep.Seconds() / res.Rows[i].PerStep.Seconds()
		res.Rows[i].ModeledRatio = res.Rows[0].Modeled / res.Rows[i].Modeled
	}
	return res, nil
}

// scaledHierarchy is the simulated cache and TLB of Table 1 and Figure 3
// at a size: capacities sized so capacity-to-working-set ratios track
// the paper's platform (see Figure3).
func scaledHierarchy(size Size) *cachesim.Hierarchy {
	tlb := pick(size, 8, 64, 64)
	return &cachesim.Hierarchy{
		L1:  cachesim.MustCache("L1", pick(size, 8<<10, 32<<10, 32<<10), 32, 2),
		L2:  cachesim.MustCache("L2", pick(size, 96<<10, 1<<20, 1<<20), 128, 2),
		TLB: cachesim.MustCache("TLB", tlb*16<<10, 16<<10, tlb),
	}
}

func buildVariant(m *mesh.Mesh, sys euler.System, inter, block, reorder bool) (*layoutVariant, error) {
	b := sys.B()
	layout := sparse.NonInterlaced
	if inter {
		layout = sparse.Interlaced
	}
	ordering := "colored"
	if reorder {
		ordering = "sorted"
	}
	d, err := euler.NewDiscretization(m, nil, sys, euler.Options{
		Order: 1, Layout: layout, EdgeOrdering: ordering,
	})
	if err != nil {
		return nil, err
	}
	q := d.FreestreamVector()
	r := make([]float64, d.N())
	v := &layoutVariant{flux: func() { d.Residual(q, r) }, fluxKernels: d.FluxKernelFamily()}

	// Edge stream for the trace, mirroring the discretization's order.
	traceEdges := mesh.SortEdges(m.Edges)
	if !reorder {
		traceEdges, _ = mesh.ColorEdges(mesh.ScrambleEdges(m.Edges, 12345), m.NumVertices())
	}

	g := sparse.Graph{NV: m.NumVertices(), XAdj: m.XAdj, Adj: m.Adj}
	x := make([]float64, m.NumVertices()*b)
	y := make([]float64, m.NumVertices()*b)
	for i := range x {
		x[i] = 1 + float64(i%7)
	}
	blk := sparse.BlockPattern(g, b)
	blk.FillDeterministic(7)
	factored := blk // what ILU factors: the blocked matrix or its scalar view
	// placeSpMV lays the SpMV's matrix out in the trace's address space
	// and returns its traced product.
	var placeSpMV func(as *cachesim.AddressSpace) func(h *cachesim.Hierarchy)
	if block {
		if !inter {
			return nil, fmt.Errorf("experiments: blocking requires interlacing")
		}
		v.spmv, v.spmvKernels = func() { blk.MulVec(x, y) }, sparse.KernelFamily()
		placeSpMV = func(as *cachesim.AddressSpace) func(h *cachesim.Hierarchy) {
			loc := cachesim.PlaceBCSR(as, blk, false)
			return func(h *cachesim.Hierarchy) { cachesim.TraceBCSRSpMV(h, blk, loc) }
		}
	} else {
		a := blk.ToCSR()
		if !inter {
			a = sparse.Permute(a, sparse.LayoutPerm(g.NV, b, sparse.NonInterlaced))
		}
		factored = a.ToBCSR1()
		v.spmv, v.spmvKernels = func() { a.MulVec(x, y) }, "Go"
		placeSpMV = func(as *cachesim.AddressSpace) func(h *cachesim.Hierarchy) {
			loc := cachesim.PlaceCSR(as, a)
			return func(h *cachesim.Hierarchy) { cachesim.TraceCSRSpMV(h, a, loc) }
		}
	}
	f, err := ilu.Factor(factored, ilu.Options{Level: 0})
	if err != nil {
		return nil, err
	}
	v.trisolv = func() { f.Solve(x, y) }
	v.trace = func(h *cachesim.Hierarchy, fluxEvals, sweeps int) {
		as := cachesim.NewAddressSpace()
		floc := cachesim.PlaceFlux(as, m.NumVertices(), b, layout)
		for e := 0; e < fluxEvals; e++ {
			cachesim.TraceFlux(h, traceEdges, floc)
		}
		spmv := placeSpMV(as)
		iloc := cachesim.PlaceILU(as, f.NB, f.B, f.NNZBlocks(), f.BytesPerValue())
		for s := 0; s < sweeps; s++ {
			spmv(h)
			cachesim.TraceILUSolve(h, f.Layout, f.B, iloc)
		}
	}
	return v, nil
}
