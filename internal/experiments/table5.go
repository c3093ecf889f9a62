package experiments

import (
	"petscfun3d/internal/core"
	"petscfun3d/internal/perfmodel"
)

// Table5Row is one node count of the paper's Table 5.
type Table5Row struct {
	Nodes    int     `col:"nodes"`
	Threads1 float64 `col:"1 thr/node,%.3f,s"` // 1 thread/node (baseline), seconds
	Threads2 float64 `col:"2 thr/node,%.3f,s"` // 2 OpenMP-style threads/node
	MPI1     float64 `col:"1 MPI/node,%.3f,s"` // 1 MPI rank/node (same as Threads1 baseline structure)
	MPI2     float64 `col:"2 MPI/node,%.3f,s"` // 2 MPI ranks/node
}

// Table5Result reproduces Table 5: function (flux) evaluations only,
// exploiting the node's second processor by threading versus by a second
// MPI rank, on the ASCI Red profile. At small node counts the two are
// comparable (threads pay the private-array gather); at large node
// counts threads win because doubling the rank count inflates redundant
// surface work and message counts.
type Table5Result struct {
	Vertices int `col:"vertices"`
	Evals    int `col:"flux evals"`
	Rows     []Table5Row
}

// Tables prints the comparison like the paper's Table 5.
func (t *Table5Result) Tables() []Table {
	return []Table{{Name: "table5", Title: "Table 5 — flux phase only, MPI/OpenMP threads vs MPI processes per node, ASCI Red profile",
		Params: t, Rows: t.Rows}}
}

// Table5Study models evals flux evaluations on the wing of about nv
// vertices at each node count, with one or two threads or ranks a node.
func Table5Study(nv, evals int, nodes []int) (*Table5Result, error) {
	cfg := core.DefaultConfig()
	cfg.TargetVertices = nv
	cfg.Profile = perfmodel.ASCIRed
	p, err := core.Build(cfg)
	if err != nil {
		return nil, err
	}
	res := &Table5Result{Vertices: p.Mesh.NumVertices(), Evals: evals}
	for _, n := range nodes {
		row := Table5Row{Nodes: n}
		if row.Threads1, err = core.FluxPhaseTime(cfg, n, 1, 1, evals); err != nil {
			return nil, err
		}
		if row.Threads2, err = core.FluxPhaseTime(cfg, n, 1, 2, evals); err != nil {
			return nil, err
		}
		row.MPI1 = row.Threads1
		if row.MPI2, err = core.FluxPhaseTime(cfg, n, 2, 1, evals); err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
