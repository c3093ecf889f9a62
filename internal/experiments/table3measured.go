package experiments

import (
	"fmt"
	"math"

	"petscfun3d/internal/dist"
	"petscfun3d/internal/ilu"
	"petscfun3d/internal/mpi"
	"petscfun3d/internal/partition"
	"petscfun3d/internal/perfmodel"
	"petscfun3d/internal/prof"
	"petscfun3d/internal/sparse"
)

// Table3MeasuredResult is the measured counterpart of Table 3: the
// η_overall = η_alg · η_impl decomposition computed from real wall-clock
// per-rank phase timings of the distributed GMRES (internal/dist on the
// goroutine MPI runtime), not the virtual-machine model. Each rank
// count is solved twice — once with the overlapped halo exchange and
// once with the blocking pre-overlap scatter — so the table also shows
// the measured scatter-wait shrinking strictly below the old blocking
// scatter total.
type Table3MeasuredResult struct {
	Vertices int `col:"vertices"`
	B        int `col:"b"`
	Rows     []perfmodel.EfficiencyRow
	// BlockingScatterMaxSec[i] is the blocking baseline's slowest-rank
	// scatter total (pack + wire + implicit-synchronization wait folded
	// together) at Rows[i].Procs; BlockingScatterAvgSec[i] the mean over
	// ranks. Both come from the baseline's best (lowest slowest-rank
	// total) rep.
	BlockingScatterMaxSec []float64
	BlockingScatterAvgSec []float64
	// WaitMaxFloorSec[i] and BlockingScatterMaxFloorSec[i] are the
	// noise floors — min over reps of the slowest-rank phase cost — of
	// the overlapped scatter_wait and the blocking scatter. The floors
	// are the robust overlapped-vs-blocking comparison: a single rep's
	// max can be inflated by whichever rank the scheduler descheduled
	// worst, and that tail noise exceeds the structural gap.
	WaitMaxFloorSec            []float64
	BlockingScatterMaxFloorSec []float64
	// Prof holds the merged per-rank profilers of each rank count's
	// chosen overlapped rep, so callers can fold the measured
	// scatter_pack / scatter_wait / interior / boundary phases into a
	// larger profile report (fun3d -profile-json does).
	Prof *prof.Profiler
}

// table3MeasuredRow is one printed row of the measured Table 3.
type table3MeasuredRow struct {
	Procs      int     `col:"procs"`
	LinearIts  int     `col:"its"`
	Seconds    float64 `col:"time,%.4f,s"`
	Speedup    float64 `col:"speedup,%.2f"`
	EffOverall float64 `col:"η_overall,%.2f"`
	EffAlg     float64 `col:"η_alg,%.2f"`
	EffImpl    float64 `col:"η_impl,%.2f"`
	WaitMax    float64 `col:"wait max,%.4f,s"`
	WaitAvg    float64 `col:"wait avg,%.4f,s"`
	PackMax    float64 `col:"pack max,%.4f,s"`
	WaitFloor  float64 `col:"wait flr,%.4f,s"`
	BlockMax   float64 `col:"blk max,%.4f,s"`
	BlockAvg   float64 `col:"blk avg,%.4f,s"`
	BlockFloor float64 `col:"blk flr,%.4f,s"`
	Imbalance  float64 `col:"imbal,%.2f"`
}

// Tables prints the measured Table 3.
func (t *Table3MeasuredResult) Tables() []Table {
	rows := make([]table3MeasuredRow, len(t.Rows))
	for i, r := range t.Rows {
		rows[i] = table3MeasuredRow{r.Procs, r.LinearIts, r.Seconds, r.Speedup, r.EffOverall, r.EffAlg, r.EffImpl,
			r.WaitMaxSec, r.WaitAvgSec, r.PackMaxSec, t.WaitMaxFloorSec[i],
			t.BlockingScatterMaxSec[i], t.BlockingScatterAvgSec[i], t.BlockingScatterMaxFloorSec[i], r.Imbalance}
	}
	return []Table{{Name: "table3measured", Measured: true, Params: t, Rows: rows,
		Title: "Table 3 — efficiency decomposition, BJacobi+ILU(0), overlapped halo exchange",
		Notes: "wait = scatter_wait (the paper's implicit-synchronization sink). flr = min over reps of the\n" +
			"slowest rank's phase cost (scheduler-noise floor); blk is the blocking baseline's whole scatter\n" +
			"at the same rank count, whose floor the overlapped wait floor undercuts.\n"}}
}

// Table3MeasuredStudy solves one deterministic wing-mesh system (BCSR,
// b=4, block Jacobi ILU(0), k-way partitions) at each rank count and
// reduces the per-rank phase timings into the Table 3 columns.
func Table3MeasuredStudy(nv int, ranks []int) (*Table3MeasuredResult, error) {
	w, err := wingSystem(nv, 4, 101)
	if err != nil {
		return nil, err
	}
	return MeasuredEfficiency(w.a, w.g, w.rhs, ranks)
}

// MeasuredEfficiency is the matrix-level entry point of the measured
// Table 3: it partitions g, solves a·x = rhs with the distributed GMRES
// at each rank count — overlapped, then again with the blocking
// baseline scatter — and reduces the measured per-rank phase timings
// into the efficiency decomposition. fun3d's -profile-json path calls
// it with the real first-order Jacobian.
func MeasuredEfficiency(a *sparse.BCSR, g sparse.Graph, rhs []float64, ranks []int) (*Table3MeasuredResult, error) {
	res := &Table3MeasuredResult{Vertices: g.NV, B: a.B, Prof: prof.New()}
	var runs []perfmodel.MeasuredRun
	var err error
	for _, p := range ranks {
		part, err := partition.KWay(g, p)
		if err != nil {
			return nil, err
		}
		over, its, overFloor, overProf, err := solveMeasured(a, part.Part, rhs, p, false, measureReps)
		if err != nil {
			return nil, err
		}
		runs = append(runs, perfmodel.MeasuredRun{Procs: p, LinearIts: its, Ranks: over})
		res.WaitMaxFloorSec = append(res.WaitMaxFloorSec, overFloor["scatter_wait"])
		res.Prof.Merge(overProf)
		block, _, blockFloor, _, err := solveMeasured(a, part.Part, rhs, p, true, measureReps)
		if err != nil {
			return nil, err
		}
		_, maxScatter, avgScatter := rankStats(block, "scatter")
		res.BlockingScatterMaxSec = append(res.BlockingScatterMaxSec, maxScatter)
		res.BlockingScatterAvgSec = append(res.BlockingScatterAvgSec, avgScatter)
		res.BlockingScatterMaxFloorSec = append(res.BlockingScatterMaxFloorSec, blockFloor["scatter"])
	}
	res.Rows, err = perfmodel.DecomposeEfficiency(runs)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// rankStats returns the slowest rank's total phase time and the max and
// mean over ranks of one phase's.
func rankStats(ranks []perfmodel.RankPhases, phase string) (slowest, peak, mean float64) {
	for _, r := range ranks {
		slowest = math.Max(slowest, r.Seconds())
		peak = math.Max(peak, r[phase])
		mean += r[phase] / float64(len(ranks))
	}
	return slowest, peak, mean
}

// measureReps is how many times each configuration is solved; the rep
// with the smallest slowest-rank total is kept. The solve is
// deterministic, so repeated runs differ only in scheduler and GC
// noise — taking the minimum filters descheduling outliers, which
// matters when the rank goroutines time-slice on few cores.
const measureReps = 5

// solveMeasured runs one distributed GMRES reps times with a profiler
// per rank and returns the least-noisy (lowest slowest-rank total)
// rep's per-rank phase self-seconds, the iteration count, each phase's
// noise floor (the min over reps of the slowest rank's self-seconds in
// that phase), and the chosen rep's merged rank profilers.
func solveMeasured(a *sparse.BCSR, part []int32, rhs []float64, nranks int, noOverlap bool, reps int) ([]perfmodel.RankPhases, int, map[string]float64, *prof.Profiler, error) {
	var best []perfmodel.RankPhases
	var bestProf *prof.Profiler
	bestT := math.Inf(1)
	var bestIts int
	floor := map[string]float64{}
	for rep := 0; rep < reps; rep++ {
		ranks, its, merged, err := solveOnce(a, part, rhs, nranks, noOverlap, mpi.Options{})
		if err != nil {
			return nil, 0, nil, nil, err
		}
		var maxT float64
		repMax := map[string]float64{}
		for _, r := range ranks {
			for ph, v := range r {
				if v > repMax[ph] {
					repMax[ph] = v
				}
			}
			if t := r.Seconds(); t > maxT {
				maxT = t
			}
		}
		for ph, v := range repMax {
			if prev, ok := floor[ph]; !ok || v < prev {
				floor[ph] = v
			}
		}
		if maxT < bestT {
			bestT, best, bestIts, bestProf = maxT, ranks, its, merged
		}
	}
	return best, bestIts, floor, bestProf, nil
}

// solveOnce is a single profiled distributed solve; it returns the
// per-rank phase self-seconds, the iteration count, and the rank
// profilers merged into one. mopts configures the fabric — the chaos
// sweep passes a fault plan, the clean paths pass the zero Options.
func solveOnce(a *sparse.BCSR, part []int32, rhs []float64, nranks int, noOverlap bool, mopts mpi.Options) ([]perfmodel.RankPhases, int, *prof.Profiler, error) {
	profs := make([]*prof.Profiler, nranks)
	for i := range profs {
		profs[i] = prof.New()
		profs[i].Enable()
	}
	var its int // rank 0's: every rank runs the same iterations
	b := a.B
	err := mpi.Run(nranks, func(c *mpi.Comm) error {
		dm, err := dist.NewMatrix(c, a, part)
		if err != nil {
			return err
		}
		dm.Prof = profs[c.Rank()]
		dm.NoOverlap = noOverlap
		solve, err := dm.BlockJacobi(ilu.Options{Level: 0})
		if err != nil {
			return err
		}
		lb := make([]float64, dm.LocalN())
		lx := make([]float64, dm.LocalN())
		for li, gr := range dm.Owned {
			copy(lb[li*b:(li+1)*b], rhs[int(gr)*b:(int(gr)+1)*b])
		}
		st, err := dist.GMRES(dm, solve, lb, lx, dist.GMRESOptions{Restart: 30, MaxIters: 500, RelTol: 1e-8})
		if err != nil {
			return err
		}
		if !st.Converged {
			return fmt.Errorf("experiments: distributed GMRES did not converge at %d ranks (res %g)", nranks, st.ResidualNorm)
		}
		if c.Rank() == 0 {
			its = st.Iterations
		}
		return nil
	}, mopts)
	if err != nil {
		return nil, 0, nil, err
	}
	merged := prof.New()
	out := make([]perfmodel.RankPhases, nranks)
	for i, pp := range profs {
		merged.Merge(pp)
		ph := perfmodel.RankPhases{}
		for _, st := range pp.Report(0).Phases {
			ph[st.Phase] = st.Seconds
		}
		out[i] = ph
	}
	return out, its, merged, nil
}
