package experiments

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"time"

	"petscfun3d/internal/euler"
	"petscfun3d/internal/ilu"
	"petscfun3d/internal/mesh"
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
	Threads     int
	FluxSec     float64 // euler.ResidualParallel (redundant-array sweep + gather)
	TriSolveSec float64 // ilu.Factorization.SolvePar (level-scheduled)
	SpMVSec     float64 // sparse.BCSR.MulVecPar (nonzero-balanced stripes)
	DotSec      float64 // par.Dot (fixed-shape segmented reduction)
	// The Schwarz preconditioner over four (schwarzParts) overlapping
	// subdomains of the same matrix: whole subdomains across the pool
	// while there are at least as many as workers, the level-scheduled
	// solve inside each subdomain in turn beyond that.
	ApplySec   float64 // schwarz.Preconditioner.Apply
	RefreshSec float64 // schwarz.Preconditioner.Refresh
	FluxSpeed  float64
	TriSpeed   float64
	SpMVSpeed  float64
	DotSpeed   float64
	// ApplyFrac and RefreshFrac are the achieved bandwidth — the bytes
	// the SolveBytes / FactorBytes formulas count, per second — as a
	// fraction of the host's STREAM Triad.
	ApplySpeed, ApplyFrac     float64
	RefreshSpeed, RefreshFrac float64
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
	Vertices int
	B        int
	Sweeps   int
	// Cores is the host's available parallelism (GOMAXPROCS); measured
	// speedups are bounded by it, so a table recorded on a small host
	// reads as a determinism/overhead study rather than a scaling one.
	Cores  int
	Levels ilu.LevelStats
	// StreamBps is the host's STREAM Triad bandwidth, bytes/s.
	StreamBps float64
	Rows      []ThreadsRow
}

// Threads runs the measured node-level thread-scaling study.
func Threads(size Size) (*ThreadsResult, error) {
	nv := pick(size, 2000, 22677, 90000)
	sweeps := pick(size, 10, 40, 40)
	reps := pick(size, 3, 7, 7)
	return ThreadsStudy(nv, sweeps, reps, []int{1, 2, 4, 8})
}

// ThreadsStudy times the four threaded kernels on one deterministic
// wing-mesh problem (interlaced b=4 BCSR, ILU(0)) at each worker count.
func ThreadsStudy(nv, sweeps, reps int, workers []int) (*ThreadsResult, error) {
	m, err := mesh.GenerateWingN(nv)
	if err != nil {
		return nil, err
	}
	m = m.Renumber(mesh.RCM(m))
	sys := euler.NewIncompressible()
	d, err := euler.NewDiscretization(m, nil, sys, euler.Options{Order: 1, Layout: sparse.Interlaced})
	if err != nil {
		return nil, err
	}
	b := sys.B()
	g := sparse.Graph{NV: m.NumVertices(), XAdj: m.XAdj, Adj: m.Adj}
	a := sparse.BlockPattern(g, b)
	a.FillDeterministic(101)
	f, err := ilu.Factor(a, ilu.Options{Level: 0})
	if err != nil {
		return nil, err
	}
	n := a.N()
	q := d.FreestreamVector()
	r := make([]float64, d.N())
	x := make([]float64, n)
	y := make([]float64, n)
	z := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(i) * 0.19)
	}
	res := &ThreadsResult{Vertices: m.NumVertices(), B: b, Sweeps: sweeps,
		Cores: runtime.GOMAXPROCS(0), Levels: f.LevelStats(), StreamBps: stream.TriadBandwidth()}
	part, err := partition.KWay(g, schwarzParts)
	if err != nil {
		return nil, err
	}
	schwarzOpts := schwarz.Options{Overlap: 1, ILU: ilu.Options{Level: 0}}

	// Single-thread reference outputs for the bitwise check.
	refR := make([]float64, d.N())
	if err := d.ResidualParallel(q, refR, nil); err != nil {
		return nil, err
	}
	refZ := make([]float64, n)
	f.SolvePar(nil, x, refZ)
	refY := make([]float64, n)
	a.MulVecPar(nil, x, refY)
	refDot := par.Dot(nil, x, refY)
	refPC, err := schwarz.New(a, part.Part, schwarzParts, schwarzOpts)
	if err != nil {
		return nil, err
	}
	refPZ, pz := make([]float64, n), make([]float64, n)
	refPC.Apply(x, refPZ)

	for _, nt := range workers {
		var p *par.Pool
		if nt > 1 {
			p = par.New(nt)
		}
		if err := d.ResidualParallel(q, r, p); err != nil {
			p.Close()
			return nil, err
		}
		r2 := make([]float64, d.N())
		if err := d.ResidualParallel(q, r2, p); err != nil {
			p.Close()
			return nil, err
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
			p.Close()
			return nil, err
		}
		pc.Apply(x, pz)
		for i := range refR {
			if r[i] != r2[i] {
				p.Close()
				return nil, fmt.Errorf("experiments: %d-thread flux residual is not deterministic at %d", nt, i)
			}
			if diff := math.Abs(r[i] - refR[i]); diff > 1e-12*(1+math.Abs(refR[i])) {
				p.Close()
				return nil, fmt.Errorf("experiments: %d-thread flux residual off by %g from sequential at %d", nt, diff, i)
			}
		}
		for i := range refZ {
			if z[i] != refZ[i] || y[i] != refY[i] || pz[i] != refPZ[i] {
				p.Close()
				return nil, fmt.Errorf("experiments: %d-thread solve/spmv/schwarz differs from sequential at %d", nt, i)
			}
		}
		if dot != refDot {
			p.Close()
			return nil, fmt.Errorf("experiments: %d-thread dot %v differs from sequential %v", nt, dot, refDot)
		}
		row := ThreadsRow{Threads: nt}
		row.FluxSec = bestOf(reps, func() {
			for s := 0; s < sweeps; s++ {
				_ = d.ResidualParallel(q, r, p) // validated above; the timing loop repeats the same call
			}
		})
		row.TriSolveSec = bestOf(reps, func() {
			for s := 0; s < sweeps; s++ {
				f.SolvePar(p, x, z)
			}
		})
		row.SpMVSec = bestOf(reps, func() {
			for s := 0; s < sweeps; s++ {
				a.MulVecPar(p, x, y)
			}
		})
		row.DotSec = bestOf(reps, func() {
			for s := 0; s < sweeps; s++ {
				par.Dot(p, x, y)
			}
		})
		row.ApplySec = bestOf(reps, func() {
			for s := 0; s < sweeps; s++ {
				pc.Apply(x, pz)
			}
		})
		row.RefreshSec = bestOf(reps, func() {
			for s := 0; s < sweeps; s++ {
				_ = pc.Refresh(a) // validated above; the timing loop repeats the same call
			}
		})
		if res.StreamBps > 0 {
			row.ApplyFrac = float64(pc.SolveBytes()) * float64(sweeps) / row.ApplySec / res.StreamBps
			row.RefreshFrac = float64(pc.FactorBytes()) * float64(sweeps) / row.RefreshSec / res.StreamBps
		}
		p.Close()
		res.Rows = append(res.Rows, row)
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
// noise, which dominates at smoke-test sizes.
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

// Render formats the measured scaling study.
func (t *ThreadsResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Node-level thread scaling (measured) — %d vertices, b=%d, %d sweeps per timing, %d host cores, checked against sequential before timing\n",
		t.Vertices, t.B, t.Sweeps, t.Cores)
	fmt.Fprintf(&sb, "ILU(0) level schedule: %d rows, %d fwd + %d bwd levels, max width %d, avg width %.1f\n",
		t.Levels.Rows, t.Levels.FwdLevels, t.Levels.BwdLevels, t.Levels.MaxWidth, t.Levels.AvgWidth)
	fmt.Fprintf(&sb, "%7s | %9s %5s | %9s %5s | %9s %5s | %9s %5s\n",
		"Threads", "flux", "spd", "tri-solve", "spd", "spmv", "spd", "dot", "spd")
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%7d | %8.4fs %5.2f | %8.4fs %5.2f | %8.4fs %5.2f | %8.4fs %5.2f\n",
			r.Threads, r.FluxSec, r.FluxSpeed, r.TriSolveSec, r.TriSpeed,
			r.SpMVSec, r.SpMVSpeed, r.DotSec, r.DotSpeed)
	}
	sb.WriteString("flux pays the private-array gather (Table 5's threading tax); tri-solve is bounded by the\n" +
		"level schedule's width; spmv and dot are memory-bandwidth-bound at the node.\n")
	fmt.Fprintf(&sb, "Schwarz preconditioner, %d subdomains, overlap 1, ILU(0) — which unit of parallelism pays (STREAM Triad %.0f MB/s)\n",
		schwarzParts, t.StreamBps/1e6)
	fmt.Fprintf(&sb, "%7s | %-10s | %9s %5s %7s | %9s %5s %7s\n",
		"Threads", "unit", "apply", "spd", "/STREAM", "refresh", "spd", "/STREAM")
	for _, r := range t.Rows {
		unit := "subdomains"
		switch {
		case r.Threads == 1:
			unit = "-"
		case r.Threads > schwarzParts:
			unit = "levels"
		}
		fmt.Fprintf(&sb, "%7d | %-10s | %8.4fs %5.2f %7.2f | %8.4fs %5.2f %7.2f\n",
			r.Threads, unit, r.ApplySec, r.ApplySpeed, r.ApplyFrac, r.RefreshSec, r.RefreshSpeed, r.RefreshFrac)
	}
	sb.WriteString("with a subdomain per worker every subdomain runs the sequential solve in storage order (one barrier\n" +
		"per apply); past that the subdomains run in turn on the level schedule of the tri-solve column. Apply's\n" +
		"bytes are the factors read once (SolveBytes), Refresh's the FactorBytes estimate.\n")
	return sb.String()
}

// WriteCSV writes the scaling study as plot-ready CSV.
func (t *ThreadsResult) WriteCSV(w io.Writer) error {
	rows := make([][]string, 0, len(t.Rows))
	for _, r := range t.Rows {
		rows = append(rows, []string{
			d(r.Threads), f(r.FluxSec), f(r.FluxSpeed), f(r.TriSolveSec), f(r.TriSpeed),
			f(r.SpMVSec), f(r.SpMVSpeed), f(r.DotSec), f(r.DotSpeed),
			f(r.ApplySec), f(r.ApplySpeed), f(r.ApplyFrac), f(r.RefreshSec), f(r.RefreshSpeed), f(r.RefreshFrac),
		})
	}
	return writeCSV(w, []string{"threads", "flux_sec", "flux_speedup", "trisolve_sec", "trisolve_speedup",
		"spmv_sec", "spmv_speedup", "dot_sec", "dot_speedup",
		"schwarz_apply_sec", "schwarz_apply_speedup", "schwarz_apply_stream_frac",
		"schwarz_refresh_sec", "schwarz_refresh_speedup", "schwarz_refresh_stream_frac"}, rows)
}
