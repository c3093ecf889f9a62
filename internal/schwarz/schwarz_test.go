package schwarz

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"petscfun3d/internal/ilu"
	"petscfun3d/internal/krylov"
	"petscfun3d/internal/mesh"
	"petscfun3d/internal/par"
	"petscfun3d/internal/partition"
	"petscfun3d/internal/prof"
	"petscfun3d/internal/sparse"
)

type problem struct {
	a    *sparse.BCSR
	g    sparse.Graph
	rhs  []float64
	part *partition.Partition
}

func buildProblem(t testing.TB, nx, ny, nz, b, nparts int) *problem {
	t.Helper()
	m, err := mesh.GenerateWing(mesh.DefaultWingSpec(nx, ny, nz))
	if err != nil {
		t.Fatal(err)
	}
	g := sparse.Graph{NV: m.NumVertices(), XAdj: m.XAdj, Adj: m.Adj}
	a := sparse.BlockPattern(g, b)
	a.FillDeterministic(91)
	p, err := partition.KWay(g, nparts)
	if err != nil {
		t.Fatal(err)
	}
	rhs := make([]float64, a.N())
	for i := range rhs {
		rhs[i] = math.Sin(float64(i) * 0.17)
	}
	return &problem{a: a, g: g, rhs: rhs, part: p}
}

func solveIts(t testing.TB, pr *problem, opts Options) int {
	t.Helper()
	pc, err := New(pr.a, pr.part.Part, pr.part.NParts, opts)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, pr.a.N())
	st, err := krylov.Solve(krylov.OperatorFunc(pr.a.MulVec), pc, pr.rhs, x,
		krylov.Options{Restart: 30, MaxIters: 500, RelTol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("solve with %+v did not converge: %+v", opts, st)
	}
	// Verify the true residual, not just GMRES's recurrence.
	ax := make([]float64, pr.a.N())
	pr.a.MulVec(x, ax)
	var num, den float64
	for i := range ax {
		d := pr.rhs[i] - ax[i]
		num += d * d
		den += pr.rhs[i] * pr.rhs[i]
	}
	if math.Sqrt(num/den) > 1e-6 {
		t.Fatalf("true relative residual %g too large", math.Sqrt(num/den))
	}
	return st.Iterations
}

func TestSingleSubdomainEqualsGlobalILU(t *testing.T) {
	pr := buildProblem(t, 5, 4, 4, 4, 1)
	pc, err := New(pr.a, pr.part.Part, 1, Options{ILU: ilu.Options{Level: 0}})
	if err != nil {
		t.Fatal(err)
	}
	f, err := ilu.Factor(pr.a, ilu.Options{Level: 0})
	if err != nil {
		t.Fatal(err)
	}
	z1 := make([]float64, pr.a.N())
	z2 := make([]float64, pr.a.N())
	pc.Apply(pr.rhs, z1)
	f.Solve(pr.rhs, z2)
	for i := range z1 {
		if math.Abs(z1[i]-z2[i]) > 1e-12 {
			t.Fatalf("single-subdomain Schwarz differs from global ILU at %d: %g vs %g", i, z1[i], z2[i])
		}
	}
}

func TestMoreSubdomainsMoreIterations(t *testing.T) {
	// The paper's core algorithmic scalability effect: block-iterative
	// convergence degrades as the number of blocks grows.
	pr4 := buildProblem(t, 9, 8, 6, 4, 4)
	pr32 := buildProblem(t, 9, 8, 6, 4, 32)
	its4 := solveIts(t, pr4, Options{ILU: ilu.Options{Level: 0}})
	its32 := solveIts(t, pr32, Options{ILU: ilu.Options{Level: 0}})
	if its32 <= its4 {
		t.Errorf("iterations did not grow with subdomains: %d (4 parts) vs %d (32 parts)", its4, its32)
	}
}

func TestOverlapReducesIterations(t *testing.T) {
	pr := buildProblem(t, 9, 8, 6, 4, 16)
	its0 := solveIts(t, pr, Options{Overlap: 0, ILU: ilu.Options{Level: 0}})
	its1 := solveIts(t, pr, Options{Overlap: 1, ILU: ilu.Options{Level: 0}})
	if its1 > its0 {
		t.Errorf("overlap 1 iterations %d > overlap 0 %d", its1, its0)
	}
}

func TestFillReducesIterations(t *testing.T) {
	pr := buildProblem(t, 9, 8, 6, 4, 16)
	its0 := solveIts(t, pr, Options{ILU: ilu.Options{Level: 0}})
	its1 := solveIts(t, pr, Options{ILU: ilu.Options{Level: 1}})
	if its1 > its0 {
		t.Errorf("ILU(1) iterations %d > ILU(0) %d", its1, its0)
	}
}

func TestSinglePrecisionSubdomainsConverge(t *testing.T) {
	pr := buildProblem(t, 8, 7, 5, 4, 8)
	itsD := solveIts(t, pr, Options{ILU: ilu.Options{Level: 0}})
	itsS := solveIts(t, pr, Options{ILU: ilu.Options{Level: 0, SinglePrecision: true}})
	// The paper: single-precision preconditioner storage does not change
	// convergence materially (the preconditioner is approximate anyway).
	if diff := itsS - itsD; diff > itsD/4+2 {
		t.Errorf("single-precision iterations %d much worse than double %d", itsS, itsD)
	}
}

func TestGhostRowsGrowWithOverlap(t *testing.T) {
	pr := buildProblem(t, 8, 7, 5, 4, 8)
	pc0, err := New(pr.a, pr.part.Part, 8, Options{Overlap: 0, ILU: ilu.Options{Level: 0}})
	if err != nil {
		t.Fatal(err)
	}
	pc1, err := New(pr.a, pr.part.Part, 8, Options{Overlap: 1, ILU: ilu.Options{Level: 0}})
	if err != nil {
		t.Fatal(err)
	}
	g0, g1 := 0, 0
	for i := range pc0.Subs {
		g0 += pc0.Subs[i].GhostRows()
		g1 += pc1.Subs[i].GhostRows()
	}
	if g0 != 0 {
		t.Errorf("block Jacobi has %d ghost rows, want 0", g0)
	}
	if g1 <= 0 {
		t.Error("overlap 1 has no ghost rows")
	}
	if pc1.FactorBlocks() <= pc0.FactorBlocks() {
		t.Error("overlap did not grow factor storage")
	}
}

func TestNewValidation(t *testing.T) {
	pr := buildProblem(t, 4, 3, 3, 2, 2)
	if _, err := New(pr.a, pr.part.Part[:3], 2, Options{}); err == nil {
		t.Error("short partition accepted")
	}
	bad := append([]int32(nil), pr.part.Part...)
	bad[0] = 99
	if _, err := New(pr.a, bad, 2, Options{}); err == nil {
		t.Error("invalid part index accepted")
	}
	if _, err := New(pr.a, pr.part.Part, 2, Options{Overlap: -1}); err == nil {
		t.Error("negative overlap accepted")
	}
}

func TestSubdomainWorkEstimatesPositive(t *testing.T) {
	pr := buildProblem(t, 5, 4, 4, 4, 4)
	pc, err := New(pr.a, pr.part.Part, 4, Options{Overlap: 1, ILU: ilu.Options{Level: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range pc.Subs {
		if s.SolveFlops() <= 0 || s.SolveBytes() <= 0 {
			t.Errorf("subdomain %d: nonpositive work estimate", i)
		}
		if len(s.Owned) == 0 {
			t.Errorf("subdomain %d: no owned rows", i)
		}
	}
}

func BenchmarkApplyRASM1(b *testing.B) {
	pr := buildProblem(b, 10, 8, 7, 4, 16)
	pc, err := New(pr.a, pr.part.Part, 16, Options{Overlap: 1, ILU: ilu.Options{Level: 1}})
	if err != nil {
		b.Fatal(err)
	}
	z := make([]float64, pr.a.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc.Apply(pr.rhs, z)
	}
}

func solveItsWith(t testing.TB, pr *problem, pc krylov.Preconditioner) int {
	t.Helper()
	x := make([]float64, pr.a.N())
	st, err := krylov.Solve(krylov.OperatorFunc(pr.a.MulVec), pc, pr.rhs, x,
		krylov.Options{Restart: 30, MaxIters: 800, RelTol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatal("solve did not converge")
	}
	return st.Iterations
}

// laplacianProblem builds a graph-Laplacian system (diag = degree + ε,
// off-diagonal = -1): barely diagonally dominant, with the slowly
// decaying global error modes that make one-level Schwarz degrade with
// subdomain count — exactly the regime the coarse space exists for.
func laplacianProblem(t testing.TB, nx, ny, nz, nparts int) *problem {
	t.Helper()
	m, err := mesh.GenerateWing(mesh.DefaultWingSpec(nx, ny, nz))
	if err != nil {
		t.Fatal(err)
	}
	g := sparse.Graph{NV: m.NumVertices(), XAdj: m.XAdj, Adj: m.Adj}
	a := sparse.BlockPattern(g, 1)
	for i := 0; i < a.NB; i++ {
		deg := 0
		for _, j := range a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]] {
			if int(j) != i {
				blk, _ := a.BlockAt(i, int(j))
				blk[0] = -1
				deg++
			}
		}
		diag, _ := a.BlockAt(i, i)
		diag[0] = float64(deg) + 0.05
	}
	p, err := partition.KWay(g, nparts)
	if err != nil {
		t.Fatal(err)
	}
	rhs := make([]float64, a.N())
	for i := range rhs {
		rhs[i] = math.Sin(float64(i) * 0.17)
	}
	return &problem{a: a, g: g, rhs: rhs, part: p}
}

func TestCoarseLevelReducesIterationGrowth(t *testing.T) {
	// The coarse space damps the block-count dependence of convergence:
	// on a Laplacian with many subdomains, two-level Schwarz needs far
	// fewer iterations than single-level.
	pr := laplacianProblem(t, 10, 9, 7, 48)
	one, err := New(pr.a, pr.part.Part, 48, Options{ILU: ilu.Options{Level: 0}})
	if err != nil {
		t.Fatal(err)
	}
	two, err := NewTwoLevel(pr.a, pr.part.Part, 48, Options{ILU: ilu.Options{Level: 0}})
	if err != nil {
		t.Fatal(err)
	}
	itsOne := solveItsWith(t, pr, one)
	itsTwo := solveItsWith(t, pr, two)
	if itsTwo >= itsOne {
		t.Errorf("coarse level did not help: %d (two-level) vs %d (one-level)", itsTwo, itsOne)
	}
}

func TestCoarseLevelExactOnCoarseSpace(t *testing.T) {
	// For a residual constant within each subdomain (in the range of the
	// coarse space), the coarse correction solves the Galerkin system
	// exactly: A_c zc = rc reproduces rc when re-restricted.
	pr := buildProblem(t, 6, 5, 4, 2, 4)
	c, err := NewCoarseLevel(pr.a, pr.part.Part, 4)
	if err != nil {
		t.Fatal(err)
	}
	b := 2
	r := make([]float64, pr.a.N())
	for i := 0; i < pr.a.NB; i++ {
		for comp := 0; comp < b; comp++ {
			r[i*b+comp] = float64(pr.part.Part[i]+1) * (1 + 0.5*float64(comp))
		}
	}
	z := make([]float64, pr.a.N())
	c.Apply(r, z)
	// z restricted through A must reproduce r's aggregate sums:
	// R A z = R r since z = R^T A_c^{-1} R r and A_c = R A R^T.
	az := make([]float64, pr.a.N())
	pr.a.MulVec(z, az)
	sums := make([]float64, 4*b)
	want := make([]float64, 4*b)
	for i := 0; i < pr.a.NB; i++ {
		p := pr.part.Part[i]
		for comp := 0; comp < b; comp++ {
			sums[int(p)*b+comp] += az[i*b+comp]
			want[int(p)*b+comp] += r[i*b+comp]
		}
	}
	for i := range sums {
		if math.Abs(sums[i]-want[i]) > 1e-6*(1+math.Abs(want[i])) {
			t.Fatalf("coarse Galerkin identity violated at %d: %g vs %g", i, sums[i], want[i])
		}
	}
}

func TestCoarseLevelValidation(t *testing.T) {
	pr := buildProblem(t, 4, 3, 3, 2, 2)
	if _, err := NewCoarseLevel(pr.a, pr.part.Part[:3], 2); err == nil {
		t.Error("short partition accepted")
	}
}

// sameBits fails unless two vectors are bit-equal.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %x, want %x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// samePreconditioner fails unless two preconditioners have identical
// index sets, bit-equal local matrices, and bit-equal factors — the
// factors compared through subdomain solves, sequential and on pools of
// 2 and 4 workers — and bit-equal Apply output.
func samePreconditioner(t *testing.T, got, want *Preconditioner, r []float64) {
	t.Helper()
	if len(got.Subs) != len(want.Subs) {
		t.Fatalf("%d subdomains, want %d", len(got.Subs), len(want.Subs))
	}
	for q, w := range want.Subs {
		g := got.Subs[q]
		if len(g.Owned) != len(w.Owned) || len(g.Extended) != len(w.Extended) || g.GhostRows() != w.GhostRows() {
			t.Fatalf("subdomain %d: %d owned / %d extended rows, want %d / %d", q, len(g.Owned), len(g.Extended), len(w.Owned), len(w.Extended))
		}
		for i, row := range w.Extended {
			if g.Extended[i] != row {
				t.Fatalf("subdomain %d: extended row %d is %d, want %d", q, i, g.Extended[i], row)
			}
		}
		sameBits(t, "Local.Val", g.Local.Val, w.Local.Val)
		n := len(w.Extended) * want.B
		rhs, xg, xw := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range rhs {
			rhs[i] = math.Cos(float64(i)*0.31 + float64(q))
		}
		w.Factor.Solve(rhs, xw)
		g.Factor.Solve(rhs, xg)
		sameBits(t, "factor solve", xg, xw)
		for _, workers := range []int{1, 2, 4} {
			pool := par.New(workers)
			g.Factor.SolvePar(pool, rhs, xg)
			pool.Close()
			sameBits(t, "factor SolvePar", xg, xw)
		}
	}
	zg, zw := make([]float64, len(r)), make([]float64, len(r))
	want.Apply(r, zw)
	got.Apply(r, zg)
	sameBits(t, "Apply", zg, zw)
}

// TestRefreshBitwiseGrid: a preconditioner built for one matrix and
// refreshed with another of the same pattern is bit-equal to a fresh
// one built for the second, at every overlap and partition width.
func TestRefreshBitwiseGrid(t *testing.T) {
	for _, nparts := range []int{1, 4} {
		pr := buildProblem(t, 6, 5, 4, 4, nparts)
		a2 := sparse.BlockPattern(pr.g, 4)
		a2.FillDeterministic(47)
		for overlap := 0; overlap <= 2; overlap++ {
			for _, single := range []bool{false, true} {
				opts := Options{Overlap: overlap, ILU: ilu.Options{Level: 1, SinglePrecision: single}}
				fresh, err := New(a2, pr.part.Part, nparts, opts)
				if err != nil {
					t.Fatal(err)
				}
				pc, err := New(pr.a, pr.part.Part, nparts, opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := pc.Refresh(a2); err != nil {
					t.Fatal(err)
				}
				samePreconditioner(t, pc, fresh, pr.rhs)
				if pc.FactorBlocks() != fresh.FactorBlocks() {
					t.Fatalf("FactorBlocks %d, want %d", pc.FactorBlocks(), fresh.FactorBlocks())
				}
			}
		}
	}
}

// TestRefreshSingularPivotIsRecoverable: a numeric pass in which two
// subdomains hit a singular pivot block fails, on the caller alone and on
// pools of 1, 2 and 3 workers, with the same error — the lowest-numbered
// failing subdomain and its row — leaves no error behind, and the next
// refresh with a good matrix is bit-equal to a fresh build.
func TestRefreshSingularPivotIsRecoverable(t *testing.T) {
	const nparts = 4
	pr := buildProblem(t, 6, 5, 4, 4, nparts)
	a2 := sparse.BlockPattern(pr.g, 4)
	a2.FillDeterministic(47)
	var wantErr string
	for _, workers := range []int{0, 1, 2, 3} {
		var pool *par.Pool
		if workers > 0 {
			pool = par.New(workers)
		}
		opts := Options{Overlap: 1, ILU: ilu.Options{Level: 1}, Pool: pool}
		pc, err := New(pr.a, pr.part.Part, nparts, opts)
		if err != nil {
			t.Fatal(err)
		}
		// Local row 0 of a subdomain has no lower blocks, so its pivot is
		// the zeroed block itself: subdomains 1 and 3 fail for certain
		// (on different workers of a 2- or 3-worker pool).
		bad := &sparse.BCSR{NB: pr.a.NB, B: pr.a.B, RowPtr: pr.a.RowPtr, ColIdx: pr.a.ColIdx, Val: append([]float64(nil), pr.a.Val...)}
		for _, q := range []int{1, 3} {
			row := int(pc.Subs[q].Extended[0])
			blk, ok := bad.BlockAt(row, row)
			if !ok {
				t.Fatalf("fixture: no diagonal block in row %d", row)
			}
			clear(blk)
		}
		check := func(what string, err error) {
			t.Helper()
			if err == nil || !strings.Contains(err.Error(), "singular pivot block at row") || !strings.Contains(err.Error(), "subdomain") {
				t.Fatalf("%d workers, %s: zeroed diagonal blocks gave %v, want a singular-pivot error naming subdomain and row", workers, what, err)
			}
			var q int
			if _, scanErr := fmt.Sscanf(err.Error(), "schwarz: subdomain %d:", &q); scanErr != nil || q > 1 {
				t.Fatalf("%d workers, %s: %v does not name the lowest failing subdomain (1 at most)", workers, what, err)
			}
			if wantErr == "" {
				wantErr = err.Error()
			}
			if err.Error() != wantErr {
				t.Fatalf("%d workers, %s: error %q, want %q as on the caller alone", workers, what, err, wantErr)
			}
		}
		check("Refresh", pc.Refresh(bad))
		for q, e := range pc.errs {
			if e != nil {
				t.Fatalf("%d workers: error slot %d still holds %v after Refresh returned", workers, q, e)
			}
		}
		_, err = New(bad, pr.part.Part, nparts, opts)
		check("New", err)
		if err := pc.Refresh(a2); err != nil {
			t.Fatal(err)
		}
		fresh, err := New(a2, pr.part.Part, nparts, opts)
		if err != nil {
			t.Fatal(err)
		}
		samePreconditioner(t, pc, fresh, pr.rhs)
		pool.Close()
	}
}

// TestRefreshRejectsOtherPattern: matrices of another shape, or with one
// column moved, are errors.
func TestRefreshRejectsOtherPattern(t *testing.T) {
	pr := buildProblem(t, 6, 5, 4, 4, 2)
	pc, err := New(pr.a, pr.part.Part, 2, Options{Overlap: 1})
	if err != nil {
		t.Fatal(err)
	}
	moved := &sparse.BCSR{NB: pr.a.NB, B: pr.a.B, RowPtr: pr.a.RowPtr, ColIdx: append([]int32(nil), pr.a.ColIdx...), Val: pr.a.Val}
	moved.ColIdx[moved.RowPtr[1]-1]++
	for name, other := range map[string]*sparse.BCSR{
		"other NB":         buildProblem(t, 5, 5, 4, 4, 2).a,
		"other B":          buildProblem(t, 6, 5, 4, 5, 2).a,
		"one column moved": moved,
	} {
		if err := pc.Refresh(other); err == nil || !strings.Contains(err.Error(), "pattern mismatch") {
			t.Errorf("%s: Refresh returned %v, want a pattern-mismatch error", name, err)
		}
	}
}

// steadyStateAllocs fails if call allocates on a built preconditioner —
// double and single storage, on the caller alone and with subdomains
// across a 2-worker pool.
func steadyStateAllocs(t *testing.T, what string, call func(pc *Preconditioner, pr *problem, z []float64)) {
	pr := buildProblem(t, 6, 5, 4, 4, 4)
	z := make([]float64, pr.a.N())
	for _, workers := range []int{0, 2} {
		var pool *par.Pool
		if workers > 0 {
			pool = par.New(workers)
		}
		for _, single := range []bool{false, true} {
			pc, err := New(pr.a, pr.part.Part, 4, Options{Overlap: 1, ILU: ilu.Options{Level: 1, SinglePrecision: single}, Pool: pool})
			if err != nil {
				t.Fatal(err)
			}
			if avg := testing.AllocsPerRun(10, func() { call(pc, pr, z) }); avg > 0 {
				t.Fatalf("%d workers, single=%v: %s allocates %.1f objects per call", workers, single, what, avg)
			}
		}
		pool.Close()
	}
}

// TestRefreshSteadyStateAllocs: the numeric refresh allocates nothing.
func TestRefreshSteadyStateAllocs(t *testing.T) {
	steadyStateAllocs(t, "Refresh", func(pc *Preconditioner, pr *problem, _ []float64) {
		if err := pc.Refresh(pr.a); err != nil {
			t.Fatal(err)
		}
	})
}

// TestApplySteadyStateAllocs: an application allocates nothing.
func TestApplySteadyStateAllocs(t *testing.T) {
	steadyStateAllocs(t, "Apply", func(pc *Preconditioner, pr *problem, z []float64) {
		pc.Apply(pr.rhs, z)
	})
}

// TestSubdomainParallelBitwiseGrid: with whole subdomains run across a
// pool — or, with fewer subdomains than workers, each solve level-
// scheduled across it — New, Apply and Refresh followed by Apply give
// the bits of a nil pool, over subdomain counts × workers × overlap ×
// fill × storage precision × block size.
func TestSubdomainParallelBitwiseGrid(t *testing.T) {
	pools := map[int]*par.Pool{}
	for _, workers := range []int{1, 2, 3, 4, 8} {
		pools[workers] = par.New(workers)
		defer pools[workers].Close()
	}
	for _, b := range []int{4, 5} {
		for _, nparts := range []int{1, 2, 4, 7} {
			pr := buildProblem(t, 6, 5, 4, b, nparts)
			a2 := sparse.BlockPattern(pr.g, b)
			a2.FillDeterministic(47)
			for overlap := 0; overlap <= 1; overlap++ {
				for fill := 0; fill <= 1; fill++ {
					for _, single := range []bool{false, true} {
						opts := Options{Overlap: overlap, ILU: ilu.Options{Level: fill, SinglePrecision: single}}
						ref, err := New(pr.a, pr.part.Part, nparts, opts)
						if err != nil {
							t.Fatal(err)
						}
						n := pr.a.N()
						want, want2, got := make([]float64, n), make([]float64, n), make([]float64, n)
						ref.Apply(pr.rhs, want)
						if err := ref.Refresh(a2); err != nil {
							t.Fatal(err)
						}
						ref.Apply(pr.rhs, want2)
						for workers, pool := range pools {
							name := fmt.Sprintf("b=%d parts=%d overlap=%d fill=%d single=%v workers=%d", b, nparts, overlap, fill, single, workers)
							opts.Pool = pool
							pc, err := New(pr.a, pr.part.Part, nparts, opts)
							if err != nil {
								t.Fatal(err)
							}
							if threaded := pc.bounds != nil; threaded != (workers > 1 && nparts >= workers) {
								t.Fatalf("%s: subdomains threaded = %v", name, threaded)
							}
							pc.Apply(pr.rhs, got)
							sameBits(t, name+": Apply after New", got, want)
							if err := pc.Refresh(a2); err != nil {
								t.Fatal(err)
							}
							pc.Apply(pr.rhs, got)
							sameBits(t, name+": Apply after Refresh", got, want2)
							for q, s := range pc.Subs {
								sameBits(t, fmt.Sprintf("%s: subdomain %d Local.Val", name, q), s.Local.Val, ref.Subs[q].Local.Val)
							}
						}
					}
				}
			}
		}
	}
}

// TestPooledSpansStayOnTheCaller: with subdomains across a pool, one
// Apply records one tri_solve span and one Refresh one ilu_factor span —
// the workers, which run the kernels, open none — charged with the sum
// of the subdomains' work and the pool's width.
func TestPooledSpansStayOnTheCaller(t *testing.T) {
	pr := buildProblem(t, 6, 5, 4, 4, 4)
	pool := par.New(2)
	defer pool.Close()
	pc, err := New(pr.a, pr.part.Part, 4, Options{Overlap: 1, ILU: ilu.Options{Level: 1}, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	var solveFlops, solveBytes, factorFlops, factorBytes int64
	for _, s := range pc.Subs {
		solveFlops += s.SolveFlops()
		solveBytes += s.SolveBytes()
		factorFlops += s.Factor.FactorFlops()
		factorBytes += s.Factor.FactorBytes()
	}
	z := make([]float64, pr.a.N())
	prof.Default.Reset()
	prof.Default.Enable()
	pc.Apply(pr.rhs, z)
	err = pc.Refresh(pr.a)
	prof.Default.Disable()
	rep := prof.Default.Report(0)
	prof.Default.Reset()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]prof.PhaseStat{
		"pc_apply":   {Calls: 1, Bytes: pc.applyCopyBytes()},
		"tri_solve":  {Calls: 1, Flops: solveFlops, Bytes: solveBytes, Threads: 2},
		"pc_setup":   {Calls: 1, Bytes: pc.refreshBytes()},
		"ilu_factor": {Calls: 1, Flops: factorFlops, Bytes: factorBytes, Threads: 2},
	}
	if len(rep.Phases) != len(want) {
		t.Fatalf("recorded phases %+v, want %d", rep.Phases, len(want))
	}
	for _, st := range rep.Phases {
		w, ok := want[st.Phase]
		if !ok || st.Calls != w.Calls || st.Flops != w.Flops || st.Bytes != w.Bytes || st.Threads != w.Threads {
			t.Errorf("phase %s: %d calls, %d flops, %d bytes, %d threads; want %+v", st.Phase, st.Calls, st.Flops, st.Bytes, st.Threads, w)
		}
	}
}

// TestWholeMatrixSubdomainSharesIt: a subdomain whose extended rows are
// every row of the matrix — the one part of a one-part preconditioner,
// or both of two parts under an overlap that swallows the mesh — keeps
// no copy: Local IS the matrix, no source index is built, New and
// Refresh gather nothing, and Refresh with another matrix object
// re-points Local at it. The factors and Apply are bitwise what the
// copying path gave — kept here as its closed form: with Extended = all
// rows in ascending order the extracted matrix is a verbatim copy, every
// subdomain factors the same matrix, and restricted prolongation
// assembles exactly one global ILU solve — which a one-part Apply runs
// on r and z themselves, with no copy around it.
func TestWholeMatrixSubdomainSharesIt(t *testing.T) {
	for _, c := range []struct{ nparts, overlap int }{{1, 0}, {1, 2}, {2, 64}} {
		pr := buildProblem(t, 6, 5, 4, 4, c.nparts)
		a2 := sparse.BlockPattern(pr.g, 4)
		a2.FillDeterministic(47)
		opts := Options{Overlap: c.overlap, ILU: ilu.Options{Level: 1}}
		pc, err := New(pr.a, pr.part.Part, c.nparts, opts)
		if err != nil {
			t.Fatal(err)
		}
		check := func(a *sparse.BCSR) {
			t.Helper()
			copied := &sparse.BCSR{NB: a.NB, B: a.B, RowPtr: a.RowPtr, ColIdx: a.ColIdx, Val: append([]float64(nil), a.Val...)}
			ref, err := ilu.Factor(copied, opts.ILU)
			if err != nil {
				t.Fatal(err)
			}
			want, got := make([]float64, a.N()), make([]float64, a.N())
			ref.Solve(pr.rhs, want)
			for q, s := range pc.Subs {
				if s.Local != a || s.src != nil {
					t.Fatalf("%d parts, overlap %d, subdomain %d: Local is a copy (%d source indices), want the matrix itself", c.nparts, c.overlap, q, len(s.src))
				}
				s.Factor.Solve(pr.rhs, got)
				sameBits(t, "subdomain factor solve", got, want)
			}
			if b := pc.refreshBytes(); b != 0 {
				t.Fatalf("%d parts, overlap %d: refresh charged %d gathered bytes, want 0", c.nparts, c.overlap, b)
			}
			// One part solves r straight into z: every entry of a stale z is
			// overwritten, nothing is copied or allocated.
			for i := range got {
				got[i] = math.NaN()
			}
			pc.Apply(pr.rhs, got)
			sameBits(t, "Apply", got, want)
			if inPlace := pc.whole() != nil; inPlace != (c.nparts == 1) || inPlace != (pc.applyCopyBytes() == 0) {
				t.Fatalf("%d parts, overlap %d: solved in place = %v, Apply charged %d copy bytes", c.nparts, c.overlap, inPlace, pc.applyCopyBytes())
			}
			if avg := testing.AllocsPerRun(5, func() { pc.Apply(pr.rhs, got) }); avg != 0 {
				t.Fatalf("%d parts, overlap %d: Apply allocates %.1f objects per call", c.nparts, c.overlap, avg)
			}
		}
		check(pr.a)
		if err := pc.Refresh(a2); err != nil {
			t.Fatal(err)
		}
		check(a2)
		fresh, err := New(a2, pr.part.Part, c.nparts, opts)
		if err != nil {
			t.Fatal(err)
		}
		samePreconditioner(t, pc, fresh, pr.rhs)

		// A rejected matrix leaves Local on the last good one.
		moved := &sparse.BCSR{NB: a2.NB, B: a2.B, RowPtr: a2.RowPtr, ColIdx: append([]int32(nil), a2.ColIdx...), Val: a2.Val}
		moved.ColIdx[moved.RowPtr[1]-1]++
		if err := pc.Refresh(moved); err == nil || !strings.Contains(err.Error(), "pattern mismatch") {
			t.Fatalf("Refresh with a moved column returned %v, want a pattern-mismatch error", err)
		}
		check(a2)
	}
	// The control: at overlap 1 two parts do not cover the mesh, and keep
	// their copies.
	pr := buildProblem(t, 6, 5, 4, 4, 2)
	pc, err := New(pr.a, pr.part.Part, 2, Options{Overlap: 1})
	if err != nil {
		t.Fatal(err)
	}
	for q, s := range pc.Subs {
		if s.Local == pr.a || len(s.src) == 0 {
			t.Fatalf("subdomain %d of 2 at overlap 1 shares the global matrix", q)
		}
	}
}

// TestOnePartBuildAllocatesNoMatrixCopy: building a one-part
// preconditioner allocates the factor and its index arrays, not a second
// copy of the matrix values.
func TestOnePartBuildAllocatesNoMatrixCopy(t *testing.T) {
	pr := buildProblem(t, 8, 6, 5, 4, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pc, err := New(pr.a, pr.part.Part, 1, Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	// ILU(0): the factor's values are one matrix's worth; a copied Local
	// would be a second.
	valBytes := uint64(8 * len(pr.a.Val))
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("New allocated %d bytes, matrix values %d (%.2fx)", got, valBytes, float64(got)/float64(valBytes))
	if got >= 2*valBytes {
		t.Fatalf("New allocated %d bytes for a %d-byte matrix: more than the factor alone (%d blocks)", got, valBytes, pc.FactorBlocks())
	}
}
