package main

import (
	"fmt"
	"strings"
	"time"

	"petscfun3d/internal/core"
	"petscfun3d/internal/krylov"
	"petscfun3d/internal/newton"
	"petscfun3d/internal/prof"
	"petscfun3d/internal/sparse"
)

// solves runs the workload's untraced reference solves and its traced
// solve, and sets every metric that comes from a whole solve. It
// returns how many solves it attempted.
func (l *traced) solves() int {
	attempted := 0
	// Untraced: the cold solve a CLI user pays, then a warm one as the
	// reference the traced solve is compared with.
	run := func(what string, f func() (solved, error)) (solved, bool) {
		attempted++
		r, err := f()
		if err != nil {
			l.fail("%s solve: %v", what, err)
		}
		return r, err == nil
	}
	user := func() (solved, error) { return l.w.solve(l.cfg) }
	cold, ok := run("cold", user)
	if !ok {
		return attempted
	}
	warm, ok := run("warm", user)
	if !ok {
		return attempted
	}
	if !warm.sameRun(cold) {
		l.fail("warm solve took a different path from the cold solve")
	}
	l.set("runtime.first_solve_s", cold.wall)
	l.set("runtime.gc_cycles", warm.gcCycles)
	l.set("runtime.gc_pause_ms", warm.gcPauseMS)
	l.set("newton.steps", float64(warm.steps))
	l.set("newton.linear_its", float64(warm.linearIts))
	l.set("newton.flux_evals", float64(warm.fluxEvals))
	l.set("newton.final_reduction", warm.final/warm.initial)

	var tracedWall float64
	if l.w.ranks > 0 {
		// Scaling baseline: the same call on one rank.
		base := func() (solved, error) {
			r, _, err := solveDistributed(l.cfg, 1, distOptions(), false)
			return r, err
		}
		if _, ok = run("1-rank cold", base); !ok {
			return attempted
		}
		one, ok := run("1-rank warm", base)
		if !ok {
			return attempted
		}
		l.set("dist.linear_its", float64(warm.linearIts))
		etaAlg := float64(one.linearIts) / float64(warm.linearIts)
		l.set("dist.eta_alg", etaAlg)
		if !l.host.oversubscribed() {
			eff := one.wall / (float64(l.w.ranks) * warm.wall)
			l.set("dist.efficiency", eff)
			l.set("dist.eta_impl", eff/etaAlg)
		}
		attempted++
		var err error
		if tracedWall, err = l.tracedDistributed(warm); err != nil {
			l.fail("traced solve: %v", err)
			return attempted
		}
	} else {
		attempted++
		var err error
		if tracedWall, err = l.tracedSequential(warm); err != nil {
			l.fail("traced solve: %v", err)
			return attempted
		}
	}
	l.set("trace.solve_s", tracedWall)
	l.set("trace.overhead_frac", tracedWall/warm.wall-1)
	return attempted
}

// tracedSequential drives newton.Solver the way core.RunSequential
// does, with the benchmark's spans at the newton -> {preconditioner
// build, operator apply, preconditioner apply} boundaries through the
// solver's public hooks, and the program's own profiler switched on.
func (l *traced) tracedSequential(ref solved) (float64, error) {
	cfg := l.cfg
	p, err := core.Build(cfg)
	if err != nil {
		return 0, err
	}
	defer p.Close()
	tr := l.tr
	id := tr.newID()
	opLayer := "euler" // matrix-free: one operator apply is one flux evaluation
	if cfg.Newton.AssembledOperator {
		opLayer = "sparse"
	}
	var root int
	build := p.PCFactory(nil)
	nopts := cfg.Newton
	nopts.Krylov.Pool = p.Pool
	s := &newton.Solver{
		Disc: p.Disc, Disc2: p.Disc2, Opts: nopts,
		PC: func(a *sparse.BCSR) (krylov.Preconditioner, error) {
			sp := tr.begin(id, root, "schwarz", "pc_build", 0)
			pc, err := build(a)
			tr.end(sp, nil)
			return pc, err
		},
		Hooks: &newton.Hooks{
			WrapOperator: func(op krylov.Operator) krylov.Operator {
				return krylov.OperatorFunc(func(x, y []float64) {
					sp := tr.begin(id, root, opLayer, "matvec", 0)
					op.Apply(x, y)
					tr.end(sp, nil)
				})
			},
			WrapPreconditioner: func(pc krylov.Preconditioner) krylov.Preconditioner {
				return krylov.PrecondFunc(func(r, z []float64) {
					sp := tr.begin(id, root, "schwarz", "pc_apply", 0)
					pc.Apply(r, z)
					tr.end(sp, nil)
				})
			},
		},
	}
	q := p.Disc.FreestreamVector()
	prof.Default.Reset()
	prof.Default.Enable()
	root = tr.begin(id, -1, "newton", "solve", 0)
	res, err := s.Solve(q)
	prof.Default.Disable()
	if err != nil {
		tr.end(root, nil)
		return 0, err
	}
	wall := tr.end(root, map[string]float64{
		"steps": float64(len(res.Steps)), "linear_its": float64(res.TotalLinearIts),
		"flux_evals": float64(res.TotalFluxEvals),
	})
	got := solved{steps: len(res.Steps), linearIts: res.TotalLinearIts, fluxEvals: res.TotalFluxEvals, final: res.FinalRnorm}
	if !got.sameRun(ref) {
		return wall, fmt.Errorf("traced solve took a different path from the untraced solve")
	}
	if err := checkState(p.Disc, q, res.Converged, res.InitialRnorm, res.FinalRnorm, nopts.RelTol); err != nil {
		return wall, err
	}
	kids := tr.childSeconds(root)
	l.set("newton.matvec_s", kids["matvec"])
	l.set("newton.pc_apply_s", kids["pc_apply"])
	l.set("newton.pc_build_s", kids["pc_build"])
	l.set("newton.other_s", wall-kids["matvec"]-kids["pc_apply"]-kids["pc_build"])
	l.profMetrics(prof.Default.Report(0), 1, wall)
	return wall, nil
}

// tracedDistributed repeats the distributed solve with one profiler per
// rank. dist.NewtonSolve has no hooks, so the newton shares come from
// the program's cumulative phase times, averaged over the ranks.
func (l *traced) tracedDistributed(ref solved) (float64, error) {
	tr := l.tr
	id := tr.newID()
	root := tr.begin(id, -1, "dist", "solve", 0)
	r, profs, err := solveDistributed(l.cfg, l.w.ranks, distOptions(), true)
	tr.end(root, map[string]float64{"steps": float64(r.steps), "linear_its": float64(r.linearIts)})
	if err != nil {
		return 0, err
	}
	if !r.sameRun(ref) {
		return r.wall, fmt.Errorf("traced solve took a different path from the untraced solve")
	}
	ranks := float64(len(profs))
	merged := prof.New()
	var wait, reduce, busyMax, busySum float64
	for rank, p := range profs {
		merged.Merge(p)
		rep := p.Report(0)
		self := map[string]float64{}
		for _, ph := range rep.Phases {
			self[ph.Phase] = ph.Seconds
		}
		sp := tr.begin(id, root, "dist", "rank", 0)
		tr.end(sp, map[string]float64{"rank": float64(rank), "total_s": rep.TotalSeconds,
			"scatter_wait_s": self["scatter_wait"], "reduce_s": self["reduce"]})
		if self["scatter_wait"] > wait {
			wait = self["scatter_wait"]
		}
		if self["reduce"] > reduce {
			reduce = self["reduce"]
		}
		busy := rep.TotalSeconds - self["scatter_wait"] - self["reduce"]
		busySum += busy
		if busy > busyMax {
			busyMax = busy
		}
	}
	l.set("dist.scatter_wait_s", wait)
	l.set("dist.reduce_s", reduce)
	if busySum > 0 {
		l.set("dist.rank_imbalance", busyMax/(busySum/ranks)-1)
	}
	rep := merged.Report(0)
	cum := map[string]float64{}
	for _, ph := range rep.Phases {
		cum[ph.Phase] = ph.CumulativeSeconds / ranks
	}
	l.set("newton.matvec_s", cum["matvec"])
	l.set("newton.pc_apply_s", cum["tri_solve"])
	l.set("newton.pc_build_s", cum["pc_setup"])
	l.set("newton.other_s", r.wall-cum["matvec"]-cum["tri_solve"]-cum["pc_setup"])
	l.profMetrics(rep, ranks, r.wall)
	return r.wall, nil
}

// profMetrics reads the program's own spans back (read-only, through
// prof's Enable/Report): every prof.<phase>_s that metrics.go defines
// is the phase's self seconds per rank, and prof.coverage to their sum over the traced wall time.
func (l *traced) profMetrics(rep prof.Report, ranks, wall float64) {
	self := map[string]float64{}
	sum := 0.0
	for _, ph := range rep.Phases {
		self[ph.Phase] = ph.Seconds / ranks
		sum += ph.Seconds / ranks
	}
	for _, d := range perLayerDefs {
		if name, ok := strings.CutPrefix(d.Name, "prof."); ok && name != "coverage" {
			l.set(d.Name, self[strings.TrimSuffix(name, "_s")])
		}
	}
	if wall > 0 {
		l.set("prof.coverage", sum/wall)
	}
}

// runTraced is the whole traced pass of one workload.
func (w *workload) runTraced(cfg core.Config, seed uint64, h host, st streamResult, tr *tracer) (vals map[string]float64, attempted int, failures []string) {
	l := &traced{w: w, cfg: cfg, seed: seed, host: h, tr: tr, stream: st, rng: newStream(seed, w.name), vals: map[string]float64{}}
	l.set("stream.triad_mbps", st.TriadMBps)
	l.set("stream.array_mb", st.ArrayMB)
	l.set("stream.llc_mb", st.LLCMB)
	if st.Capped {
		l.set("stream.capped", 1)
	}
	start := time.Now()
	attempted = l.solves()
	if err := l.replays(); err != nil {
		l.fail("replay: %v", err)
	}
	l.set("trace.spans", float64(tr.count()))
	l.set("trace.pass_s", time.Since(start).Seconds())
	return l.vals, attempted, l.failures
}
