package experiments

import (
	"petscfun3d/internal/cachesim"
	"petscfun3d/internal/mesh"
	"petscfun3d/internal/sparse"
)

// Figure3Row is one bar group of the paper's Figure 3: simulated TLB and
// secondary-cache misses for a layout combination.
type Figure3Row struct {
	Label     string `col:"variant"`
	TLBMisses uint64 `col:"TLB misses"`
	L2Misses  uint64 `col:"L2 misses"`
}

// Figure3Result reproduces Figure 3 with the trace-driven cache/TLB
// simulator standing in for the R10000 hardware counters: one flux sweep
// plus one Jacobian SpMV per combination.
type Figure3Result struct {
	Vertices int `col:"vertices"`
	Rows     []Figure3Row
}

// Tables prints the simulated miss counts.
func (f *Figure3Result) Tables() []Table {
	return []Table{{Name: "figure3", Title: "Figure 3 — simulated TLB and L2 misses, four flux sweeps + one SpMV",
		Params: f, Rows: f.Rows}}
}

// Figure3Study runs the miss-count sweep through h for the
// incompressible system (b=4, as in the paper's 22,677-vertex
// incompressible case) on the wing of about nv vertices.
//
// The simulated hierarchy's capacities are chosen so the ratio of cache
// (and TLB) capacity to the flux kernel's working set matches the
// paper's platform: FUN3D carries ~45 auxiliary doubles per vertex
// against our lean 11, so the R10000's 4 MB L2 / 64-entry TLB are scaled
// to 1 MB / 64 entries at the 22,677-vertex size (and proportionally at
// the small size). One step traces four flux sweeps per Jacobian
// SpMV — in the matrix-free solver the flux phase runs once per matvec
// and dominates, as it does in the paper's profile.
func Figure3Study(nv int, h *cachesim.Hierarchy) (*Figure3Result, error) {
	m, err := mesh.GenerateWingN(nv)
	if err != nil {
		return nil, err
	}
	const fluxSweeps = 4
	m = m.Renumber(mesh.RCM(m))
	b := 4
	g := sparse.Graph{NV: m.NumVertices(), XAdj: m.XAdj, Adj: m.Adj}
	res := &Figure3Result{Vertices: m.NumVertices()}
	sorted := mesh.SortEdges(m.Edges)
	colored, _ := mesh.ColorEdges(mesh.ScrambleEdges(m.Edges, 12345), m.NumVertices())
	for _, c := range layouts {
		h.Reset()
		as := cachesim.NewAddressSpace()
		layout := sparse.NonInterlaced
		if c.inter {
			layout = sparse.Interlaced
		}
		edges := colored
		if c.reorder {
			edges = sorted
		}
		floc := cachesim.PlaceFlux(as, m.NumVertices(), b, layout)
		for s := 0; s < fluxSweeps; s++ {
			cachesim.TraceFlux(h, edges, floc)
		}
		if c.block {
			a := sparse.BlockPattern(g, b)
			cachesim.TraceBCSRSpMV(h, a, cachesim.PlaceBCSR(as, a, false))
		} else {
			a := sparse.ScalarPattern(g, b, layout)
			cachesim.TraceCSRSpMV(h, a, cachesim.PlaceCSR(as, a))
		}
		cnt := h.Counters()
		res.Rows = append(res.Rows, Figure3Row{Label: c.label, TLBMisses: cnt.TLBMisses, L2Misses: cnt.L2Misses})
	}
	return res, nil
}
