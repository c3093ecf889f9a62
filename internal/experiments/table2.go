package experiments

import (
	"fmt"
	"strings"

	"petscfun3d/internal/core"
	"petscfun3d/internal/perfmodel"
)

// Table2Row is one processor count of the paper's Table 2.
type Table2Row struct {
	Procs        int
	LinearDouble float64 // modeled linear-solve seconds, float64 factors
	LinearSingle float64 // modeled linear-solve seconds, float32 factors
	TotalDouble  float64 // modeled overall seconds
	TotalSingle  float64
	BytesDouble  int64 // what the factorizations keep for values, all ranks
	BytesSingle  int64
}

// Table2Result reproduces Table 2: single- vs double-precision storage
// of the ILU preconditioner on an Origin 2000 profile. The triangular
// solves are memory-bandwidth bound, so halving the stored bytes should
// nearly halve the linear-solve time while leaving convergence intact.
type Table2Result struct {
	Vertices int
	Rows     []Table2Row
}

// Table2 runs the precision sweep.
func Table2(size Size) (*Table2Result, error) {
	nv := pick(size, 3000, 30000, 89000)
	procs := pick(size, []int{4, 8}, []int{16, 32, 64, 120}, []int{16, 32, 64, 120})
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
			cfg.Newton.MaxSteps = pick(size, 40, 60, 60)
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

// Render formats the result like the paper's Table 2.
func (t *Table2Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 2 — preconditioner storage precision, %d vertices, Origin 2000 profile (modeled)\n", t.Vertices)
	fmt.Fprintf(&sb, "%6s | %12s %12s | %12s %12s | %12s %12s\n", "Procs",
		"LinSolve f64", "LinSolve f32", "Overall f64", "Overall f32", "Factors f64", "Factors f32")
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%6d | %11.2fs %11.2fs | %11.2fs %11.2fs | %9.2f MB %9.2f MB\n",
			r.Procs, r.LinearDouble, r.LinearSingle, r.TotalDouble, r.TotalSingle,
			float64(r.BytesDouble)/1e6, float64(r.BytesSingle)/1e6)
	}
	sb.WriteString("Factors: measured, what the factorizations keep for values on all ranks\n" +
		"(float32: 4 B a scalar plus each rank's float64 elimination window).\n")
	return sb.String()
}
