package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"petscfun3d/internal/core"
	"petscfun3d/internal/dist"
	"petscfun3d/internal/euler"
	"petscfun3d/internal/mpi"
	"petscfun3d/internal/prof"
	"petscfun3d/internal/sparse"
)

// solved is one checked ψNKS solve: its cost and the counts that must
// repeat exactly from rep to rep.
type solved struct {
	wall      float64 // seconds inside the solver, mesh and geometry set-up excluded
	allocMB   float64 // heap allocated across Build + solve
	gcCycles  float64
	gcPauseMS float64
	steps     int
	linearIts int
	fluxEvals int // 0 on the distributed path, which does not count them
	initial   float64
	final     float64
}

// sameRun reports whether two solves took the same path to the same
// bits — the repository's determinism contract.
func (s solved) sameRun(o solved) bool {
	return s.steps == o.steps && s.linearIts == o.linearIts && s.fluxEvals == o.fluxEvals &&
		math.Float64bits(s.final) == math.Float64bits(o.final)
}

// memMark reads the allocator's counters so a solve's share can be
// taken as a difference.
type memMark struct{ s runtime.MemStats }

func markMem() memMark {
	var m memMark
	runtime.ReadMemStats(&m.s)
	return m
}

// since returns the MB allocated, the collections run and the
// milliseconds they paused the program for since the mark.
func (m memMark) since() (allocMB, gcCycles, gcPauseMS float64) {
	now := markMem()
	return float64(now.s.TotalAlloc-m.s.TotalAlloc) / 1e6, float64(now.s.NumGC - m.s.NumGC),
		float64(now.s.PauseTotalNs-m.s.PauseTotalNs) / 1e6
}

// solve runs the workload's solve once through the user path and
// checks the answer. A non-nil error means the solve counts as failed.
func (w *workload) solve(cfg core.Config) (solved, error) {
	if w.ranks > 0 {
		r, _, err := solveDistributed(cfg, w.ranks, distOptions(), false)
		return r, err
	}
	var r solved
	mem := markMem()
	res, err := core.RunSequential(cfg)
	r.allocMB, r.gcCycles, r.gcPauseMS = mem.since()
	if err != nil {
		return r, err
	}
	n := res.Newton
	r.wall = res.WallTime.Seconds()
	r.steps, r.linearIts, r.fluxEvals = len(n.Steps), n.TotalLinearIts, n.TotalFluxEvals
	r.initial, r.final = n.InitialRnorm, n.FinalRnorm
	return r, checkState(res.Problem.Disc, res.FinalQ, n.Converged, r.initial, r.final, cfg.Newton.RelTol)
}

// solveDistributed solves on ranks message-passing ranks. With
// profiled set every rank records the program's own phases, and the
// per-rank profilers are returned.
func solveDistributed(cfg core.Config, ranks int, opts dist.NewtonOptions, profiled bool) (solved, []*prof.Profiler, error) {
	var r solved
	cfg.Ranks = ranks
	mem := markMem()
	p, err := core.Build(cfg)
	if err != nil {
		return r, nil, err
	}
	defer p.Close()
	states := make([][]float64, ranks)
	results := make([]*dist.NewtonResult, ranks)
	profs := make([]*prof.Profiler, ranks)
	if profiled {
		for i := range profs {
			profs[i] = prof.New()
			profs[i].Enable()
		}
	}
	start := time.Now()
	err = mpi.Run(ranks, func(c *mpi.Comm) error {
		q := p.Disc.FreestreamVector()
		res, err := dist.NewtonSolve(c, p.Disc, p.Part.Part, q, opts, profs[c.Rank()])
		states[c.Rank()], results[c.Rank()] = q, res
		return err
	})
	r.wall = time.Since(start).Seconds()
	r.allocMB, r.gcCycles, r.gcPauseMS = mem.since()
	if err != nil {
		return r, profs, err
	}
	n := results[0]
	r.steps, r.linearIts = len(n.Steps), n.TotalLinearIts
	r.initial, r.final = n.InitialRnorm, n.FinalRnorm
	for rank, o := range results {
		if len(o.Steps) != r.steps || o.TotalLinearIts != r.linearIts ||
			math.Float64bits(o.FinalRnorm) != math.Float64bits(r.final) {
			return r, profs, fmt.Errorf("rank %d disagrees with rank 0 on the residual history", rank)
		}
	}
	// Each rank advanced only the vertices it owns: the answer is the
	// states merged by ownership.
	b := p.Sys.B()
	merged := make([]float64, p.Disc.N())
	for v, owner := range p.Part.Part {
		copy(merged[v*b:(v+1)*b], states[owner][v*b:(v+1)*b])
	}
	return r, profs, checkState(p.Disc, merged, n.Converged, r.initial, r.final, opts.RelTol)
}

// checkState is the benchmark's own check of a solve's answer: the
// solver must report convergence, and the residual the benchmark
// evaluates at the returned state must be as small as reported.
func checkState(d *euler.Discretization, q []float64, converged bool, initial, final, relTol float64) error {
	if !converged || !(final <= relTol*initial) {
		return fmt.Errorf("not converged: reduction %.3g, want <= %g", final/initial, relTol)
	}
	r := make([]float64, d.N())
	d.Residual(d.FreestreamVector(), r)
	f0 := sparse.Norm2(r)
	d.Residual(q, r)
	fq := sparse.Norm2(r)
	if !(fq <= 1.01*relTol*f0) {
		return fmt.Errorf("re-evaluated residual %.6g exceeds %g of the freestream residual %.6g", fq, relTol, f0)
	}
	if !(math.Abs(fq-final) <= 1e-6*final) {
		return fmt.Errorf("re-evaluated residual %.12g disagrees with the reported %.12g", fq, final)
	}
	return nil
}

// A run builds the problem at least setupCalls times and for at least
// setupShare of its time budget (a small mesh builds in milliseconds,
// and nine of those are over before the machine's speed has been
// sampled); setup_s is the median.
const (
	setupCalls = 9
	setupShare = 0.2
	setupMax   = 200
)

// endToEnd holds the untraced pass of one workload.
type endToEnd struct {
	solveS    []float64
	allocMB   []float64
	setupS    []float64
	attempted int
	failures  []string
}

// runEndToEnd times the workload as a user would run it: closed loop,
// one solve at a time, tracing off. Warm-up solves are checked but not
// timed; timed reps repeat until they have used up seconds, and at
// least w.reps times.
func (w *workload) runEndToEnd(cfg core.Config, seconds float64) endToEnd {
	var e endToEnd
	begin := time.Now()
	for i := 0; i < setupCalls || (i < setupMax && time.Since(begin).Seconds() < setupShare*seconds); i++ {
		start := time.Now()
		p, err := core.Build(cfg)
		if err != nil {
			e.failures = append(e.failures, fmt.Sprintf("setup %d: %v", i, err))
			break
		}
		e.setupS = append(e.setupS, time.Since(start).Seconds())
		p.Close()
	}
	var first solved
	var timed float64
	for rep := -w.warm; rep < w.reps || timed < seconds; rep++ {
		start := time.Now()
		r, err := w.solve(cfg)
		elapsed := time.Since(start).Seconds() // Build, solve and check: what the rep cost the run
		e.attempted++
		if e.attempted == 1 {
			first = r
		}
		if err == nil && !r.sameRun(first) {
			err = fmt.Errorf("steps/its/flux/final %d/%d/%d/%x differ from the first solve's %d/%d/%d/%x",
				r.steps, r.linearIts, r.fluxEvals, math.Float64bits(r.final),
				first.steps, first.linearIts, first.fluxEvals, math.Float64bits(first.final))
		}
		if err != nil {
			e.failures = append(e.failures, fmt.Sprintf("solve %d: %v", rep, err))
		}
		if rep < 0 {
			continue
		}
		timed += elapsed
		if err == nil {
			e.solveS = append(e.solveS, r.wall)
			e.allocMB = append(e.allocMB, r.allocMB)
		}
	}
	return e
}
