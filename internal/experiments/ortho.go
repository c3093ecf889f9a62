package experiments

import (
	"fmt"
	"runtime"

	"petscfun3d/internal/ilu"
	"petscfun3d/internal/krylov"
	"petscfun3d/internal/par"
	"petscfun3d/internal/prof"
)

// OrthoRow is one (restart, mechanism, threads) cell of the measured
// orthogonalization study: iteration/traffic/synchronization counts for
// a fixed-length GMRES run plus best-of-reps wall seconds.
type OrthoRow struct {
	Restart    int    `col:"restart"`
	Mechanism  string `col:"mech"`
	Threads    int    `col:"threads"`
	Iterations int    `col:"iters"`
	InnerProds int    `col:"dots"`
	Reductions int    `col:"rounds"`
	// RoundsPerIt is synchronizing reduction rounds per inner iteration
	// (pool barriers here; global reduction rounds in internal/dist) —
	// the latency term the fused one-pass mechanisms collapse.
	RoundsPerIt float64 `col:"rnd/it,%.2f"`
	// BytesPerIt is the measured PhaseOrtho memory traffic per inner
	// iteration, from the profiler's cost-formula charges.
	BytesPerIt float64 `col:"ortho/it,%.0f,B"`
	// BytesFactor is mgs's BytesPerIt over this row's — the traffic
	// reduction the fusion buys at the same restart and thread count.
	BytesFactor float64 `col:"vs mgs,%.2fx"`
	SolveSec    float64 `col:"time,%.4f,s"`
	// Speedup is mgs's SolveSec over this row's, same restart+threads.
	Speedup float64 `col:"spd,%.2f"`
}

// OrthoResult is the measured one-pass orthogonalization study: the
// same fixed-work GMRES solve run under mgs (per-vector modified
// Gram-Schmidt), cgs (fused one-pass MDot/MAxpy classical
// Gram-Schmidt), cgs2 (cgs with selective DGKS reorthogonalization),
// and cgs1 (cgs with the norm derived from the one batch — the
// single-round mechanism of the distributed solve) across a thread ×
// restart grid. Every pooled configuration is checked
// bitwise against its own single-thread run before it is timed — the
// fused kernels' determinism contract — so the study fails rather than
// report a speedup that changed the arithmetic.
type OrthoResult struct {
	Vertices int `col:"vertices"`
	B        int `col:"b"`
	Cores    int `col:"host cores"`
	Reps     int `col:"best of"`
	Rows     []OrthoRow
}

// Tables prints the study, grouped by restart.
func (t *OrthoResult) Tables() []Table {
	return []Table{{Name: "ortho", Measured: true, Params: t, Rows: t.Rows, Group: 1,
		Title: "One-pass orthogonalization — GMRES+ILU(0), RelTol=0 (fixed 2×restart iterations), bitwise-checked across threads before timing",
		Notes: "mgs streams the work vector per basis vector and synchronizes j+2 times per iteration;\n" +
			"cgs/cgs2 make one fused MDot pass and one fused MAxpy sweep (cgs2 adds a selective DGKS\n" +
			"pass), so traffic and barrier counts — the paper's reduction/latency terms — collapse;\n" +
			"cgs1 derives the norm from the same batch: one round per iteration and no norm sweep. A row\n" +
			"with fewer than 2×restart iterations ended at a happy breakdown — cgs1's derived norm clamps\n" +
			"to 0 once the residual is at rounding level — and averages over the columns it ran: its ratios\n" +
			"print as 0.\n"}}
}

// OrthoStudy runs GMRES(restart) with ILU(0) on one deterministic
// wing-mesh problem (interlaced b=4 BCSR) for every mechanism × thread
// × restart cell. RelTol is zero, so every cell performs exactly
// 2×restart inner iterations — identical vector-kernel work — and the
// traffic and synchronization columns compare like against like.
func OrthoStudy(nv, reps int, workers, restarts []int) (*OrthoResult, error) {
	const b = 4
	w, err := wingSystem(nv, b, 101)
	if err != nil {
		return nil, err
	}
	a, rhs := w.a, w.rhs
	f, err := ilu.Factor(a, ilu.Options{Level: 0})
	if err != nil {
		return nil, err
	}
	x := make([]float64, a.N())
	res := &OrthoResult{Vertices: w.m.NumVertices(), B: b,
		Cores: runtime.GOMAXPROCS(0), Reps: reps}

	solve := func(p *par.Pool, restart int, mech string) (krylov.Stats, error) {
		op := krylov.OperatorFunc(func(x, y []float64) { a.MulVecPar(p, x, y) })
		pc := krylov.PrecondFunc(func(r, z []float64) { f.SolvePar(p, r, z) })
		for i := range x {
			x[i] = 0
		}
		// RelTol 0 never converges: the run is a fixed two full restart
		// cycles of orthogonalization work, not a convergence race.
		return krylov.Solve(op, pc, rhs, x, krylov.Options{
			Restart: restart, MaxIters: 2 * restart, RelTol: 0,
			Orthogonalization: mech, Pool: p,
		})
	}
	// orthoBytes reads the profiler's cumulative PhaseOrtho traffic; the
	// measurement below takes a before/after difference so an
	// already-enabled profiler (benchtables -profile-json) keeps its
	// accumulated history.
	orthoBytes := func() int64 {
		for _, st := range prof.Default.Report(0).Phases {
			if st.Phase == prof.PhaseOrtho.String() {
				return st.Bytes
			}
		}
		return 0
	}
	// row checks the nt-worker solve bitwise against the single-thread
	// reference (ref, refX), then measures its traffic and time.
	row := func(nt, restart int, mech string, ref krylov.Stats, refX []float64) (OrthoRow, error) {
		var p *par.Pool
		if nt > 1 {
			p = par.New(nt)
		}
		defer p.Close()
		st, err := solve(p, restart, mech)
		if err != nil {
			return OrthoRow{}, err
		}
		if st.Iterations != ref.Iterations || st.Reductions != ref.Reductions {
			return OrthoRow{}, fmt.Errorf("experiments: %s restart=%d at %d threads took %d iterations / %d reductions, single-thread took %d / %d",
				mech, restart, nt, st.Iterations, st.Reductions, ref.Iterations, ref.Reductions)
		}
		for i := range refX {
			if x[i] != refX[i] {
				return OrthoRow{}, fmt.Errorf("experiments: %s restart=%d solution at %d threads differs bitwise from single-thread at %d",
					mech, restart, nt, i)
			}
		}
		wasEnabled := prof.Default.Enabled()
		if !wasEnabled {
			prof.Default.Enable()
		}
		before := orthoBytes()
		_, err = solve(p, restart, mech)
		bytes := orthoBytes() - before
		if !wasEnabled {
			prof.Default.Disable()
		}
		if err != nil {
			return OrthoRow{}, err
		}
		return OrthoRow{
			Restart: restart, Mechanism: mech, Threads: nt,
			Iterations: st.Iterations, InnerProds: st.InnerProds,
			Reductions:  st.Reductions,
			RoundsPerIt: float64(st.Reductions) / float64(st.Iterations),
			BytesPerIt:  float64(bytes) / float64(st.Iterations),
			SolveSec: bestOf(reps, func() {
				_, _ = solve(p, restart, mech) // validated above; the timing loop repeats the same call
			}),
		}, nil
	}

	type cell struct{ restart, threads int }
	mgsBytes := map[cell]float64{}
	mgsSec := map[cell]float64{}
	for _, restart := range restarts {
		for _, mech := range krylov.Orthogonalizations {
			// Single-thread reference for the bitwise determinism check.
			ref, err := solve(nil, restart, mech)
			if err != nil {
				return nil, err
			}
			refX := append([]float64(nil), x...)
			for _, nt := range workers {
				r, err := row(nt, restart, mech, ref, refX)
				if err != nil {
					return nil, err
				}
				res.Rows = append(res.Rows, r)
				if mech == "mgs" {
					mgsBytes[cell{restart, nt}], mgsSec[cell{restart, nt}] = r.BytesPerIt, r.SolveSec
				}
			}
		}
	}
	for i := range res.Rows {
		r := &res.Rows[i]
		// A solve that ended early (cgs1 at a happy breakdown) averaged
		// over fewer, shorter columns: its ratios to mgs would compare
		// unlike work, so they stay 0.
		if c := (cell{r.Restart, r.Threads}); r.Iterations == 2*r.Restart {
			r.BytesFactor = mgsBytes[c] / r.BytesPerIt
			r.Speedup = mgsSec[c] / r.SolveSec
		}
	}
	return res, nil
}
