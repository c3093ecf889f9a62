package experiments

import (
	"petscfun3d/internal/core"
	"petscfun3d/internal/perfmodel"
)

// Table3Row is one rank count of a fixed-size scaling sweep on one
// machine profile with one partitioner: the paper's Table 3 columns and
// the Figure 1 per-step metrics of the same run.
type Table3Row struct {
	Machine         string  `col:"machine"`
	Partitioner     string  `col:"partitioner"`
	Procs           int     `col:"procs"`
	VerticesPerProc int     `col:"verts/proc"`
	LinearIts       int     `col:"its"`
	Steps           int     `col:"steps"`
	Seconds         float64 `col:"time,%.1f,s"` // modeled execution time
	SecondsPerStep  float64 `col:"time/step,%.2f,s"`
	Speedup         float64 `col:"speedup,%.2f"`
	EffOverall      float64 `col:"η_overall,%.2f"`
	EffAlg          float64 `col:"η_alg,%.2f"`
	EffImpl         float64 `col:"η_impl,%.2f"`
	PctReductions   float64 `col:"%reduc,%.1f"`
	PctImplicitSync float64 `col:"%sync,%.1f"`
	PctScatters     float64 `col:"%scatter,%.1f"`
	DataPerItGB     float64 `col:"data/it,%.4f,GB"` // halo bytes per matvec, all ranks
	EffBWPerNodeMBs float64 `col:"eff BW/node,%.2f,MB/s"`
	Gflops          float64 `col:"Gflop/s,%.2f"`
}

// Table3Result holds fixed-size scaling sweeps — one machine profile and
// partitioner per sweep — with the efficiency decomposition
// η_overall = η_alg · η_impl relative to each sweep's first rank count.
// Real iteration counts drive η_alg; the machine model's
// wait/scatter/reduce accounting drives η_impl. Table 3, Figure 2 and
// Figure 4 are all Table3Results.
type Table3Result struct {
	Name, Title string
	Vertices    int `col:"vertices"`
	Rows        []Table3Row
}

// Tables prints the sweeps, grouped by machine and partitioner.
func (t *Table3Result) Tables() []Table {
	return []Table{{Name: t.Name, Title: t.Title, Params: t, Rows: t.Rows, Group: 2}}
}

// scalingStudy runs the fixed-size scaling sweep of the wing of about nv
// vertices on each machine profile with each partitioner: block Jacobi +
// ILU(1), at most maxSteps Newton steps at each rank count.
func scalingStudy(name, title string, nv, maxSteps int, ranks []int, profs []perfmodel.Profile, partitioners []string) (*Table3Result, error) {
	res := &Table3Result{Name: name, Title: title}
	for _, prof := range profs {
		for _, partitioner := range partitioners {
			sweep := len(res.Rows)
			for _, p := range ranks {
				cfg := core.DefaultConfig()
				cfg.TargetVertices = nv
				cfg.Ranks = p
				cfg.Profile = prof
				cfg.Partitioner = partitioner
				cfg.FillLevel = 1
				cfg.Overlap = 0
				cfg.Newton.RelTol = 1e-6
				cfg.Newton.MaxSteps = maxSteps
				out, err := core.RunParallel(cfg)
				if err != nil {
					return nil, err
				}
				res.Vertices = out.Problem.Mesh.NumVertices()
				rep := out.Report
				res.Rows = append(res.Rows, Table3Row{
					Machine:         prof.Name,
					Partitioner:     partitioner,
					Procs:           p,
					VerticesPerProc: res.Vertices / p,
					LinearIts:       out.Newton.TotalLinearIts,
					Steps:           len(out.Newton.Steps),
					Seconds:         rep.Elapsed,
					SecondsPerStep:  rep.Elapsed / float64(max(1, len(out.Newton.Steps))),
					PctReductions:   rep.PctReduce,
					PctImplicitSync: rep.PctWait,
					PctScatters:     rep.PctScatter,
					DataPerItGB:     float64(out.HaloBytesPerExchange) / 1e9,
					EffBWPerNodeMBs: rep.EffectiveBandwidth / float64(p) / 1e6,
					Gflops:          rep.Gflops,
				})
			}
			// Efficiency decomposition relative to the sweep's first rank count.
			base := res.Rows[sweep]
			for i := sweep; i < len(res.Rows); i++ {
				r := &res.Rows[i]
				r.Speedup = base.Seconds / r.Seconds
				r.EffOverall = r.Speedup / (float64(r.Procs) / float64(base.Procs))
				r.EffAlg = float64(base.LinearIts) / float64(r.LinearIts)
				r.EffImpl = r.EffOverall / r.EffAlg
			}
		}
	}
	return res, nil
}

// Table3Study is Table 3 and Figure 1: the scaling sweep on the ASCI Red
// profile with k-way partitions.
func Table3Study(nv, maxSteps int, ranks []int) (*Table3Result, error) {
	return scalingStudy("table3", "Table 3 / Figure 1 — scalability bottlenecks, fixed-size scaling, BJacobi+ILU(1)",
		nv, maxSteps, ranks, []perfmodel.Profile{perfmodel.ASCIRed}, []string{"kway"})
}

// Figure2Study runs the scaling sweep on the ASCI Red, Blue Pacific and
// Cray T3E profiles.
func Figure2Study(nv, maxSteps int, ranks []int) (*Table3Result, error) {
	return scalingStudy("figure2", "Figure 2 — Gflop/s and execution time across machines", nv, maxSteps, ranks,
		[]perfmodel.Profile{perfmodel.ASCIRed, perfmodel.BluePacific, perfmodel.CrayT3E}, []string{"kway"})
}

// Figure4Study compares k-way (connected, mildly imbalanced) and p-way
// (perfectly balanced, possibly fragmented) partitions on the Cray T3E
// profile.
func Figure4Study(nv, maxSteps int, ranks []int) (*Table3Result, error) {
	return scalingStudy("figure4", "Figure 4 — partitioner comparison", nv, maxSteps, ranks,
		[]perfmodel.Profile{perfmodel.CrayT3E}, []string{"kway", "pway"})
}
