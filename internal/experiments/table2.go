package experiments

import (
	"petscfun3d/internal/core"
	"petscfun3d/internal/perfmodel"
)

// Table2Row is one processor count of the paper's Table 2.
type Table2Row struct {
	Procs        int     `col:"procs"`
	LinearDouble float64 `col:"lin solve f64,%.2f,s"` // modeled linear-solve seconds, float64 factors
	LinearSingle float64 `col:"lin solve f32,%.2f,s"` // modeled linear-solve seconds, float32 factors
	TotalDouble  float64 `col:"overall f64,%.2f,s"`   // modeled overall seconds
	TotalSingle  float64 `col:"overall f32,%.2f,s"`
	BytesDouble  int64   `col:"factors f64,%.2f,MB,1e6"` // what the factorizations keep for values, all ranks
	BytesSingle  int64   `col:"factors f32,%.2f,MB,1e6"`
}

// Table2Result reproduces Table 2: single- vs double-precision storage
// of the ILU preconditioner on an Origin 2000 profile. The triangular
// solves are memory-bandwidth bound, so halving the stored bytes should
// nearly halve the linear-solve time while leaving convergence intact.
type Table2Result struct {
	Vertices int `col:"vertices"`
	Rows     []Table2Row
}

// Tables prints the sweep like the paper's Table 2.
func (t *Table2Result) Tables() []Table {
	return []Table{{Name: "table2", Title: "Table 2 — preconditioner storage precision, Origin 2000 profile",
		Params: t, Rows: t.Rows,
		Notes: "factors: measured, what the factorizations keep for values on all ranks\n" +
			"(float32: 4 B a scalar plus each rank's float64 elimination window).\n"}}
}

// Table2Study solves the wing of about nv vertices at each rank count
// with float64 and with float32 ILU(0) factors, at most maxSteps Newton
// steps each.
func Table2Study(nv int, procs []int, maxSteps int) (*Table2Result, error) {
	res := &Table2Result{}
	for _, p := range procs {
		row := Table2Row{Procs: p}
		for _, single := range []bool{false, true} {
			cfg := core.DefaultConfig()
			cfg.TargetVertices = nv
			cfg.Ranks = p
			cfg.Profile = perfmodel.Origin2000
			cfg.FillLevel = 0
			cfg.SinglePrecision = single
			cfg.Newton.RelTol = 1e-6
			cfg.Newton.MaxSteps = maxSteps
			out, err := core.RunParallel(cfg)
			if err != nil {
				return nil, err
			}
			res.Vertices = out.Problem.Mesh.NumVertices()
			if single {
				row.LinearSingle = out.LinearSolveSeconds
				row.TotalSingle = out.Report.Elapsed
				row.BytesSingle = out.FactorStorageBytes
			} else {
				row.LinearDouble = out.LinearSolveSeconds
				row.TotalDouble = out.Report.Elapsed
				row.BytesDouble = out.FactorStorageBytes
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
