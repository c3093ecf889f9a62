package experiments

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"

	"petscfun3d/internal/ilu"
	"petscfun3d/internal/krylov"
	"petscfun3d/internal/mesh"
	"petscfun3d/internal/par"
	"petscfun3d/internal/prof"
	"petscfun3d/internal/sparse"
)

// OrthoRow is one (restart, mechanism, threads) cell of the measured
// orthogonalization study: iteration/traffic/synchronization counts for
// a fixed-length GMRES run plus best-of-reps wall seconds.
type OrthoRow struct {
	Restart    int
	Mechanism  string
	Threads    int
	Iterations int
	InnerProds int
	Reductions int
	// RoundsPerIt is synchronizing reduction rounds per inner iteration
	// (pool barriers here; global reduction rounds in internal/dist) —
	// the latency term the fused one-pass mechanisms collapse.
	RoundsPerIt float64
	// BytesPerIt is the measured PhaseOrtho memory traffic per inner
	// iteration, from the profiler's cost-formula charges.
	BytesPerIt float64
	// BytesFactor is mgs's BytesPerIt over this row's — the traffic
	// reduction the fusion buys at the same restart and thread count.
	BytesFactor float64
	SolveSec    float64
	// Speedup is mgs's SolveSec over this row's, same restart+threads.
	Speedup float64
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
	Vertices int
	B        int
	Cores    int
	Reps     int
	Rows     []OrthoRow
}

// Ortho runs the measured orthogonalization-mechanism scaling study.
func Ortho(size Size) (*OrthoResult, error) {
	nv := pick(size, 2000, 22677, 90000)
	reps := pick(size, 3, 5, 5)
	return OrthoStudy(nv, reps, []int{1, 2, 4, 8}, []int{10, 30})
}

// OrthoStudy runs GMRES(restart) with ILU(0) on one deterministic
// wing-mesh problem (interlaced b=4 BCSR) for every mechanism × thread
// × restart cell. RelTol is zero, so every cell performs exactly
// 2×restart inner iterations — identical vector-kernel work — and the
// traffic and synchronization columns compare like against like.
func OrthoStudy(nv, reps int, workers, restarts []int) (*OrthoResult, error) {
	m, err := mesh.GenerateWingN(nv)
	if err != nil {
		return nil, err
	}
	m = m.Renumber(mesh.RCM(m))
	const b = 4
	g := sparse.Graph{NV: m.NumVertices(), XAdj: m.XAdj, Adj: m.Adj}
	a := sparse.BlockPattern(g, b)
	a.FillDeterministic(101)
	f, err := ilu.Factor(a, ilu.Options{Level: 0})
	if err != nil {
		return nil, err
	}
	n := a.N()
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = math.Sin(float64(i) * 0.19)
	}
	x := make([]float64, n)
	res := &OrthoResult{Vertices: m.NumVertices(), B: b,
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
				var p *par.Pool
				if nt > 1 {
					p = par.New(nt)
				}
				st, err := solve(p, restart, mech)
				if err != nil {
					p.Close()
					return nil, err
				}
				if st.Iterations != ref.Iterations || st.Reductions != ref.Reductions {
					p.Close()
					return nil, fmt.Errorf("experiments: %s restart=%d at %d threads took %d iterations / %d reductions, single-thread took %d / %d",
						mech, restart, nt, st.Iterations, st.Reductions, ref.Iterations, ref.Reductions)
				}
				for i := range refX {
					if x[i] != refX[i] {
						p.Close()
						return nil, fmt.Errorf("experiments: %s restart=%d solution at %d threads differs bitwise from single-thread at %d",
							mech, restart, nt, i)
					}
				}
				wasEnabled := prof.Default.Enabled()
				if !wasEnabled {
					prof.Default.Enable()
				}
				before := orthoBytes()
				if _, err := solve(p, restart, mech); err != nil {
					p.Close()
					return nil, err
				}
				bytes := orthoBytes() - before
				if !wasEnabled {
					prof.Default.Disable()
				}
				sec := bestOf(reps, func() {
					_, _ = solve(p, restart, mech) // validated above; the timing loop repeats the same call
				})
				p.Close()
				res.Rows = append(res.Rows, OrthoRow{
					Restart: restart, Mechanism: mech, Threads: nt,
					Iterations: st.Iterations, InnerProds: st.InnerProds,
					Reductions:  st.Reductions,
					RoundsPerIt: float64(st.Reductions) / float64(st.Iterations),
					BytesPerIt:  float64(bytes) / float64(st.Iterations),
					SolveSec:    sec,
				})
			}
		}
	}
	for i := range res.Rows {
		r := &res.Rows[i]
		c := cell{r.Restart, r.Threads}
		if r.Mechanism == "mgs" {
			mgsBytes[c], mgsSec[c] = r.BytesPerIt, r.SolveSec
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

// Render formats the measured orthogonalization study.
func (t *OrthoResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "One-pass orthogonalization (measured) — %d vertices, b=%d, GMRES+ILU(0), RelTol=0 (fixed 2×restart iterations), best of %d, %d host cores, bitwise-checked across threads before timing\n",
		t.Vertices, t.B, t.Reps, t.Cores)
	last := -1
	for _, r := range t.Rows {
		if r.Restart != last {
			fmt.Fprintf(&sb, "restart=%d\n", r.Restart)
			fmt.Fprintf(&sb, "%5s %7s | %5s %6s %6s %6s | %11s %6s | %9s %5s\n",
				"mech", "threads", "iters", "dots", "rounds", "rnd/it", "ortho B/it", "vs mgs", "sec", "spd")
			last = r.Restart
		}
		vsMGS, spd := fmt.Sprintf("%5.2fx", r.BytesFactor), fmt.Sprintf("%5.2f", r.Speedup)
		if r.BytesFactor == 0 {
			vsMGS, spd = "     —", "    —"
		}
		fmt.Fprintf(&sb, "%5s %7d | %5d %6d %6d %6.2f | %11.0f %s | %8.4fs %s\n",
			r.Mechanism, r.Threads, r.Iterations, r.InnerProds, r.Reductions,
			r.RoundsPerIt, r.BytesPerIt, vsMGS, r.SolveSec, spd)
	}
	sb.WriteString("mgs streams the work vector per basis vector and synchronizes j+2 times per iteration;\n" +
		"cgs/cgs2 make one fused MDot pass and one fused MAxpy sweep (cgs2 adds a selective DGKS\n" +
		"pass), so traffic and barrier counts — the paper's reduction/latency terms — collapse;\n" +
		"cgs1 derives the norm from the same batch: one round per iteration and no norm sweep. A row\n" +
		"with fewer than 2×restart iterations ended at a happy breakdown — cgs1's derived norm clamps\n" +
		"to 0 once the residual is at rounding level — and averages over the columns it ran: no ratios.\n")
	return sb.String()
}

// WriteCSV writes the study as plot-ready CSV.
func (t *OrthoResult) WriteCSV(w io.Writer) error {
	rows := make([][]string, 0, len(t.Rows))
	for _, r := range t.Rows {
		rows = append(rows, []string{
			d(r.Restart), r.Mechanism, d(r.Threads), d(r.Iterations), d(r.InnerProds),
			d(r.Reductions), f(r.RoundsPerIt), f(r.BytesPerIt), f(r.BytesFactor),
			f(r.SolveSec), f(r.Speedup),
		})
	}
	return writeCSV(w, []string{"restart", "mechanism", "threads", "iterations", "inner_prods",
		"reductions", "rounds_per_it", "ortho_bytes_per_it", "bytes_factor_vs_mgs",
		"solve_sec", "speedup_vs_mgs"}, rows)
}
