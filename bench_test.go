package petscfun3d

// One testing.B benchmark per table and figure of the paper's
// evaluation, driving the same generators as cmd/benchtables at the
// smoke-test scale (run the binary with -size medium for the scale
// recorded in EXPERIMENTS.md). Kernel-level companions measure the
// specific effects (layout, blocking, precision) with real wall time.

import (
	"sync"
	"testing"

	"petscfun3d/internal/dist"
	"petscfun3d/internal/experiments"
	"petscfun3d/internal/ilu"
	"petscfun3d/internal/mesh"
	"petscfun3d/internal/mpi"
	"petscfun3d/internal/partition"
	"petscfun3d/internal/prof"
	"petscfun3d/internal/sparse"
)

// TestPhaseProfileBaseline runs one profiled solve and asserts the
// profiler's invariants on a real workload: the exclusive phase seconds
// sum to the tracked wall time, and — with a distributed and a threaded
// solve folded in, so every layer has reported — every phase name stays
// inside the canonical taxonomy. It writes nothing: recorded numbers
// come from bench/ (`make perf`).
func TestPhaseProfileBaseline(t *testing.T) {
	prof.Default.Reset()
	prof.Default.Enable()
	defer prof.Default.Disable()
	cfg := DefaultConfig()
	cfg.TargetVertices = 3000
	cfg.Newton.MaxSteps = 30
	out, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prof.Default.Disable()
	rep := prof.Default.Report(0)
	var sum float64
	for _, st := range rep.Phases {
		sum += st.Seconds
	}
	wall := out.WallTime.Seconds()
	if sum < 0.9*wall || sum > 1.1*wall {
		t.Errorf("phase seconds sum %.4fs, wall time %.4fs — want within 10%%", sum, wall)
	}

	// Fold a small distributed solve's per-rank profilers in (after the
	// wall-time invariant above, which only holds for the
	// single-goroutine sequential run) so the report carries the
	// overlapped-halo taxonomy: scatter_pack, scatter_wait, interior,
	// boundary.
	dres, err := experiments.Table3MeasuredStudy(1200, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	prof.Default.Merge(dres.Prof)

	// Fold a threaded solve in (assembled operator so the matvec phase
	// runs the striped SpMV): tri_solve, matvec, and the Krylov
	// reductions all carry threads=2. Two Schwarz subdomains, so the
	// refresh has blocks to gather — a one-part preconditioner shares the
	// Jacobian and rightly charges pc_setup no bytes.
	prof.Default.Enable()
	tcfg := DefaultConfig()
	tcfg.TargetVertices = 3000
	tcfg.Newton.MaxSteps = 30
	tcfg.Newton.AssembledOperator = true
	tcfg.Threads = 2
	tcfg.Ranks = 2
	if _, err := Solve(tcfg); err != nil {
		t.Fatal(err)
	}
	prof.Default.Disable()

	// The profile must stay within the canonical phase taxonomy (the
	// names internal/machine and the lint suite's profspan analyzer are
	// built around); a drifting name would silently detach the measured
	// tables from the model.
	rep = prof.Default.Report(0)
	if len(rep.Phases) == 0 {
		t.Fatal("profile has no phases")
	}
	for _, st := range rep.Phases {
		if !prof.IsPhaseName(st.Phase) {
			t.Errorf("phase %q is outside the canonical taxonomy %v", st.Phase, prof.PhaseNames())
		}
		// The refresh's value-copy traffic is charged, so pc_setup
		// reports bytes like every other bandwidth-bound phase.
		if st.Phase == prof.PhasePCSetup.String() && st.Bytes <= 0 {
			t.Errorf("pc_setup reports %d bytes; the refresh copy traffic is not charged", st.Bytes)
		}
	}
}

func BenchmarkTable1LayoutSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(experiments.Small, "incompressible"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2PrecisionSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(experiments.Small); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3ScalingStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(experiments.Small); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4SchwarzSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table4(experiments.Small); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5HybridSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table5(experiments.Small); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure2MachineSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure2(experiments.Small); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3MissCounters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure3(experiments.Small); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4PartitionerSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure4(experiments.Small); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5CFLSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure5(experiments.Small); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMissModelSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.MissModel(experiments.Small); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Kernel-level companions: the individual effects, in real time. ---

func benchMatrix(b *testing.B, blockSize int) (*sparse.BCSR, sparse.Graph) {
	b.Helper()
	m, err := mesh.GenerateWingN(12000)
	if err != nil {
		b.Fatal(err)
	}
	m = m.Renumber(mesh.RCM(m))
	g := sparse.Graph{NV: m.NumVertices(), XAdj: m.XAdj, Adj: m.Adj}
	a := sparse.BlockPattern(g, blockSize)
	a.FillDeterministic(42)
	return a, g
}

// Table 1 mechanism: SpMV under the four layout/blocking combinations.
func BenchmarkSpMVInterlacedBlocked(b *testing.B) {
	a, _ := benchMatrix(b, 4)
	x := make([]float64, a.N())
	y := make([]float64, a.N())
	for i := range x {
		x[i] = 1
	}
	b.SetBytes(int64(a.NNZ()*8 + a.NNZBlocks()*4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulVec(x, y)
	}
}

func BenchmarkSpMVInterlacedScalar(b *testing.B) {
	a, _ := benchMatrix(b, 4)
	c := a.ToCSR()
	x := make([]float64, c.N)
	y := make([]float64, c.N)
	for i := range x {
		x[i] = 1
	}
	b.SetBytes(int64(c.NNZ() * 12))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.MulVec(x, y)
	}
}

func BenchmarkSpMVNonInterlacedScalar(b *testing.B) {
	a, g := benchMatrix(b, 4)
	c := sparse.Permute(a.ToCSR(), sparse.LayoutPerm(g.NV, 4, sparse.NonInterlaced))
	x := make([]float64, c.N)
	y := make([]float64, c.N)
	for i := range x {
		x[i] = 1
	}
	b.SetBytes(int64(c.NNZ() * 12))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.MulVec(x, y)
	}
}

// Table 2 mechanism: triangular solve with double vs single factors.
func BenchmarkTriangularSolveDouble(b *testing.B) {
	a, _ := benchMatrix(b, 4)
	f, err := ilu.Factor(a, ilu.Options{Level: 1})
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, a.N())
	y := make([]float64, a.N())
	for i := range x {
		x[i] = 1
	}
	b.SetBytes(f.SolveBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Solve(x, y)
	}
}

func BenchmarkTriangularSolveSingle(b *testing.B) {
	a, _ := benchMatrix(b, 4)
	f, err := ilu.Factor(a, ilu.Options{Level: 1, SinglePrecision: true})
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, a.N())
	y := make([]float64, a.N())
	for i := range x {
		x[i] = 1
	}
	b.SetBytes(f.SolveBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Solve(x, y)
	}
}

// Figure 3 mechanism: the flux loop under sorted vs colored edges.
func benchFlux(b *testing.B, ordering string) {
	cfg := DefaultConfig()
	// Large enough that the vertex arrays exceed the last-level cache;
	// at small sizes modern caches hide the colored ordering's damage.
	cfg.TargetVertices = 400000
	cfg.EdgeOrdering = ordering
	p, err := Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	q := p.Disc.FreestreamVector()
	r := make([]float64, p.Disc.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Disc.Residual(q, r)
	}
}

func BenchmarkFluxSortedEdges(b *testing.B)  { benchFlux(b, "sorted") }
func BenchmarkFluxColoredEdges(b *testing.B) { benchFlux(b, "colored") }

// Overlapped-halo mechanism: the distributed MulVec with the
// nonblocking exchange hidden behind interior rows, against the
// blocking pre-overlap baseline. The halo_s/op metric is the slowest
// rank's halo cost per product — scatter_wait+scatter_pack when
// overlapped, the whole blocking scatter otherwise — so the two
// benchmarks give the before/after scatter-wait comparison directly.
//
// Caveat for few-core hosts: rank goroutines time-slice, so a rank
// blocked in scatter_wait is charged its peers' serialized interior
// compute, which a back-to-back MulVec loop maximizes. The solver-level
// record (make bench tees benchtables -experiment table3measured, where
// the wait hides real preconditioner desync) is the authoritative
// before/after comparison; this pair isolates the kernel on hosts with
// a core per rank.
func benchDistMulVec(b *testing.B, noOverlap bool) {
	a, g := benchMatrix(b, 4)
	part, err := partition.KWay(g, 4)
	if err != nil {
		b.Fatal(err)
	}
	var mu sync.Mutex
	var maxHalo float64
	b.ResetTimer()
	err = mpi.Run(4, func(c *mpi.Comm) error {
		dm, err := dist.NewMatrix(c, a, part.Part)
		if err != nil {
			return err
		}
		dm.NoOverlap = noOverlap
		pp := prof.New()
		pp.Enable()
		dm.Prof = pp
		bs := a.B
		lx := make([]float64, dm.LocalN())
		ly := make([]float64, dm.LocalN())
		for li := range dm.Owned {
			for k := 0; k < bs; k++ {
				lx[li*bs+k] = 1
			}
		}
		for i := 0; i < b.N; i++ {
			if err := dm.MulVec(lx, ly); err != nil {
				return err
			}
		}
		cat := pp.CategorySeconds()
		halo := cat["scatter"] + cat["wait"]
		mu.Lock()
		if halo > maxHalo {
			maxHalo = halo
		}
		mu.Unlock()
		return nil
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(maxHalo/float64(b.N), "halo_s/op")
}

func BenchmarkDistMulVecOverlapped(b *testing.B) { benchDistMulVec(b, false) }
func BenchmarkDistMulVecBlocking(b *testing.B)   { benchDistMulVec(b, true) }
