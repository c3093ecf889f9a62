package experiments

import (
	"petscfun3d/internal/core"
	"petscfun3d/internal/perfmodel"
)

// Table4Cell is one (fill, procs, overlap) configuration.
type Table4Cell struct {
	Fill      int     `col:"ILU fill"`
	Procs     int     `col:"procs"`
	Overlap   int     `col:"overlap"`
	Seconds   float64 `col:"time,%.1f,s"` // modeled
	LinearIts int     `col:"its"`
}

// Table4Result reproduces Table 4: the additive Schwarz design space —
// subdomain overlap 0..2 crossed with ILU fill level 0..2 at several
// processor counts, GMRES(20). Overlap and fill cut iteration counts but
// cost memory, communication, and per-iteration work; the paper finds
// ILU(1) with zero overlap best at scale.
type Table4Result struct {
	Vertices int `col:"vertices"`
	Cells    []Table4Cell
}

// Tables prints the sweep, one group of rows per fill level.
func (t *Table4Result) Tables() []Table {
	return []Table{{Name: "table4", Title: "Table 4 — ASM overlap × ILU fill, GMRES(20), ASCI Red profile",
		Params: t, Rows: t.Cells, Group: 1}}
}

// Table4Study solves the wing of about nv vertices on the ASCI Red
// profile for every fill level, rank count and overlap, at most maxSteps
// Newton steps each.
func Table4Study(nv, maxSteps int, procs []int) (*Table4Result, error) {
	res := &Table4Result{}
	for _, fill := range []int{0, 1, 2} {
		for _, p := range procs {
			for _, ov := range []int{0, 1, 2} {
				cfg := core.DefaultConfig()
				cfg.TargetVertices = nv
				cfg.Ranks = p
				cfg.Profile = perfmodel.ASCIRed
				cfg.FillLevel = fill
				cfg.Overlap = ov
				cfg.Newton.Krylov.Restart = 20
				cfg.Newton.RelTol = 1e-6
				cfg.Newton.MaxSteps = maxSteps
				out, err := core.RunParallel(cfg)
				if err != nil {
					return nil, err
				}
				res.Vertices = out.Problem.Mesh.NumVertices()
				res.Cells = append(res.Cells, Table4Cell{Fill: fill, Procs: p, Overlap: ov,
					Seconds: out.Report.Elapsed, LinearIts: out.Newton.TotalLinearIts})
			}
		}
	}
	return res, nil
}

// Cell returns the cell for (procs, fill, overlap), nil when absent.
func (t *Table4Result) Cell(procs, fill, overlap int) *Table4Cell {
	for i := range t.Cells {
		c := &t.Cells[i]
		if c.Procs == procs && c.Fill == fill && c.Overlap == overlap {
			return c
		}
	}
	return nil
}
