package experiments

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"petscfun3d/internal/euler"
	"petscfun3d/internal/ilu"
	"petscfun3d/internal/par"
	"petscfun3d/internal/partition"
	"petscfun3d/internal/schwarz"
	"petscfun3d/internal/sparse"
	"petscfun3d/internal/stream"
)

// ThreadsRow is one worker count of the measured node-level thread
// scaling study: best-of-reps wall seconds for each threaded kernel and
// the speedup over the single-thread run of the same build.
type ThreadsRow struct {
	Threads     int     `col:"threads"`
	FluxSec     float64 `col:"flux,%.4f,s"` // euler.ResidualParallel (redundant-array sweep + gather)
	FluxSpeed   float64 `col:"flux spd,%.2f"`
	TriSolveSec float64 `col:"tri-solve,%.4f,s"` // ilu.Factorization.SolvePar (level-scheduled)
	TriSpeed    float64 `col:"tri spd,%.2f"`
	SpMVSec     float64 `col:"spmv,%.4f,s"` // sparse.BCSR.MulVecPar (nonzero-balanced stripes)
	SpMVSpeed   float64 `col:"spmv spd,%.2f"`
	DotSec      float64 `col:"dot,%.4f,s"` // par.Dot (fixed-shape segmented reduction)
	DotSpeed    float64 `col:"dot spd,%.2f"`
	// The Schwarz preconditioner over four (schwarzParts) overlapping
	// subdomains of the same matrix: whole subdomains across the pool
	// while there are at least as many as workers (Unit "subdomains"),
	// the level-scheduled solve inside each subdomain in turn beyond
	// that ("levels").
	Unit       string  `col:"schwarz unit"`
	ApplySec   float64 `col:"apply,%.4f,s"` // schwarz.Preconditioner.Apply
	ApplySpeed float64 `col:"apply spd,%.2f"`
	// ApplyFrac and RefreshFrac are the achieved bandwidth — the bytes
	// the SolveBytes / FactorBytes formulas count, per second — as a
	// fraction of the host's STREAM Triad.
	ApplyFrac    float64 `col:"apply/STREAM,%.2f"`
	RefreshSec   float64 `col:"refresh,%.4f,s"` // schwarz.Preconditioner.Refresh
	RefreshSpeed float64 `col:"refresh spd,%.2f"`
	RefreshFrac  float64 `col:"refresh/STREAM,%.2f"`
}

// schwarzParts is the subdomain count of the study's preconditioner
// rows (the altpath workload's).
const schwarzParts = 4

// ThreadsResult is the measured counterpart of the Table 5 threading
// column: real wall-clock scaling of the pooled kernels on one node,
// plus the level-set schedule statistics that bound the triangular
// solves' available parallelism. Every configuration is checked before
// it is timed — tri-solve, SpMV, and dot bitwise against the
// single-thread run; the flux sweep (whose private-array gather
// reassociates the sums by design) for run-to-run determinism and
// agreement with the sequential residual to rounding — so the
// experiment fails rather than report a speedup that changed the
// arithmetic beyond its contract.
type ThreadsResult struct {
	Vertices int `col:"vertices"`
	B        int `col:"b"`
	Sweeps   int `col:"sweeps per timing"`
	// Cores is the host's available parallelism (GOMAXPROCS); measured
	// speedups are bounded by it, so a table recorded on a small host
	// reads as a determinism/overhead study rather than a scaling one.
	Cores  int            `col:"host cores"`
	Levels ilu.LevelStats `col:"ILU(0) level schedule,%+v"`
	// StreamBps is the host's STREAM Triad bandwidth, bytes/s.
	StreamBps float64 `col:"STREAM Triad,%.0f,MB/s,1e6"`
	Rows      []ThreadsRow
}

// Tables prints the scaling study.
func (t *ThreadsResult) Tables() []Table {
	return []Table{{Name: "threads", Title: "Node-level thread scaling, checked against sequential before timing",
		Measured: true, Params: t, Rows: t.Rows,
		Notes: "flux pays the private-array gather (Table 5's threading tax); tri-solve is bounded by the\n" +
			"level schedule's width; spmv and dot are memory-bandwidth-bound at the node. The Schwarz\n" +
			"preconditioner has 4 subdomains, overlap 1, ILU(0): with a subdomain per worker every subdomain\n" +
			"runs the sequential solve in storage order (one barrier per apply); past that the subdomains run\n" +
			"in turn on the level schedule of the tri-solve column. Apply's bytes are the factors read once\n" +
			"(SolveBytes), Refresh's the counted FactorBytes.\n"}}
}

// ThreadsStudy times the four threaded kernels on one deterministic
// wing-mesh problem (interlaced b=4 BCSR, ILU(0)) at each worker count.
func ThreadsStudy(nv, sweeps, reps int, workers []int) (*ThreadsResult, error) {
	sys := euler.NewIncompressible()
	b := sys.B()
	w, err := wingSystem(nv, b, 101)
	if err != nil {
		return nil, err
	}
	d, err := euler.NewDiscretization(w.m, nil, sys, euler.Options{Order: 1, Layout: sparse.Interlaced})
	if err != nil {
		return nil, err
	}
	a, x := w.a, w.rhs
	f, err := ilu.Factor(a, ilu.Options{Level: 0})
	if err != nil {
		return nil, err
	}
	n := a.N()
	q := d.FreestreamVector()
	r, refR := make([]float64, d.N()), make([]float64, d.N())
	y, z, pz := make([]float64, n), make([]float64, n), make([]float64, n)
	refY, refZ, refPZ := make([]float64, n), make([]float64, n), make([]float64, n)
	res := &ThreadsResult{Vertices: w.m.NumVertices(), B: b, Sweeps: sweeps,
		Cores: runtime.GOMAXPROCS(0), Levels: f.LevelStats(), StreamBps: stream.TriadBandwidth()}
	part, err := partition.KWay(w.g, schwarzParts)
	if err != nil {
		return nil, err
	}
	schwarzOpts := schwarz.Options{Overlap: 1, ILU: ilu.Options{Level: 0}}

	// Single-thread reference outputs for the bitwise check.
	if err := d.ResidualParallel(q, refR, nil); err != nil {
		return nil, err
	}
	f.SolvePar(nil, x, refZ)
	a.MulVecPar(nil, x, refY)
	refDot := par.Dot(nil, x, refY)
	refPC, err := schwarz.New(a, part.Part, schwarzParts, schwarzOpts)
	if err != nil {
		return nil, err
	}
	refPC.Apply(x, refPZ)

	// sweep times sweeps calls of fn, best of reps.
	sweep := func(fn func()) float64 {
		return bestOf(reps, func() {
			for s := 0; s < sweeps; s++ {
				fn()
			}
		})
	}
	// measure checks the nt-worker kernels against the single-thread
	// references, then times them.
	measure := func(nt int) (ThreadsRow, error) {
		var p *par.Pool
		if nt > 1 {
			p = par.New(nt)
		}
		defer p.Close()
		r2 := make([]float64, d.N())
		if err := d.ResidualParallel(q, r, p); err != nil {
			return ThreadsRow{}, err
		}
		if err := d.ResidualParallel(q, r2, p); err != nil {
			return ThreadsRow{}, err
		}
		f.SolvePar(p, x, z)
		a.MulVecPar(p, x, y)
		dot := par.Dot(p, x, y)
		schwarzOpts.Pool = p
		pc, err := schwarz.New(a, part.Part, schwarzParts, schwarzOpts)
		if err == nil {
			err = pc.Refresh(a)
		}
		if err != nil {
			return ThreadsRow{}, err
		}
		pc.Apply(x, pz)
		for i := range refR {
			if r[i] != r2[i] {
				return ThreadsRow{}, fmt.Errorf("experiments: %d-thread flux residual is not deterministic at %d", nt, i)
			}
			if diff := math.Abs(r[i] - refR[i]); diff > 1e-12*(1+math.Abs(refR[i])) {
				return ThreadsRow{}, fmt.Errorf("experiments: %d-thread flux residual off by %g from sequential at %d", nt, diff, i)
			}
		}
		for i := range refZ {
			if z[i] != refZ[i] || y[i] != refY[i] || pz[i] != refPZ[i] {
				return ThreadsRow{}, fmt.Errorf("experiments: %d-thread solve/spmv/schwarz differs from sequential at %d", nt, i)
			}
		}
		if dot != refDot {
			return ThreadsRow{}, fmt.Errorf("experiments: %d-thread dot %v differs from sequential %v", nt, dot, refDot)
		}
		row := ThreadsRow{Threads: nt, Unit: "subdomains"}
		switch {
		case nt == 1:
			row.Unit = "-"
		case nt > schwarzParts:
			row.Unit = "levels"
		}
		// The timing loops repeat the calls validated above.
		row.FluxSec = sweep(func() { _ = d.ResidualParallel(q, r, p) })
		row.TriSolveSec = sweep(func() { f.SolvePar(p, x, z) })
		row.SpMVSec = sweep(func() { a.MulVecPar(p, x, y) })
		row.DotSec = sweep(func() { par.Dot(p, x, y) })
		row.ApplySec = sweep(func() { pc.Apply(x, pz) })
		row.RefreshSec = sweep(func() { _ = pc.Refresh(a) })
		if res.StreamBps > 0 {
			row.ApplyFrac = float64(pc.SolveBytes()) * float64(sweeps) / row.ApplySec / res.StreamBps
			row.RefreshFrac = float64(pc.FactorBytes()) * float64(sweeps) / row.RefreshSec / res.StreamBps
		}
		return row, nil
	}
	for _, nt := range workers {
		r, err := measure(nt)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, r)
	}
	base := res.Rows[0]
	for i := range res.Rows {
		r := &res.Rows[i]
		r.FluxSpeed = base.FluxSec / r.FluxSec
		r.TriSpeed = base.TriSolveSec / r.TriSolveSec
		r.SpMVSpeed = base.SpMVSec / r.SpMVSec
		r.DotSpeed = base.DotSec / r.DotSec
		r.ApplySpeed = base.ApplySec / r.ApplySec
		r.RefreshSpeed = base.RefreshSec / r.RefreshSec
	}
	return res, nil
}

// bestOf runs fn reps times and returns the best wall seconds. The
// kernels are deterministic, so the minimum filters scheduler and GC
// noise, which dominates at small sizes.
func bestOf(reps int, fn func()) float64 {
	best := math.Inf(1)
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		fn()
		if d := time.Since(start).Seconds(); d < best {
			best = d
		}
	}
	return best
}
