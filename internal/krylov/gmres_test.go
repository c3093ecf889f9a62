package krylov

import (
	"errors"
	"math"
	"strings"
	"testing"

	"petscfun3d/internal/ilu"
	"petscfun3d/internal/mesh"
	"petscfun3d/internal/par"
	"petscfun3d/internal/prof"
	"petscfun3d/internal/sparse"
)

func wingMatrix(t testing.TB, nx, ny, nz, b int, seed uint64) *sparse.BCSR {
	t.Helper()
	m, err := mesh.GenerateWing(mesh.DefaultWingSpec(nx, ny, nz))
	if err != nil {
		t.Fatal(err)
	}
	g := sparse.Graph{NV: m.NumVertices(), XAdj: m.XAdj, Adj: m.Adj}
	a := sparse.BlockPattern(g, b)
	a.FillDeterministic(seed)
	return a
}

func residualNorm(a Operator, b, x []float64) float64 {
	r := make([]float64, len(b))
	a.Apply(x, r)
	var s float64
	for i := range r {
		d := b[i] - r[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func TestGMRESSolvesDiagonal(t *testing.T) {
	n := 50
	d := make([]float64, n)
	b := make([]float64, n)
	for i := range d {
		d[i] = float64(i%7) + 1
		b[i] = float64(i) - 20
	}
	a := OperatorFunc(func(x, y []float64) {
		for i := range x {
			y[i] = d[i] * x[i]
		}
	})
	x := make([]float64, n)
	st, err := Solve(a, nil, b, x, Options{Restart: 30, MaxIters: 200, RelTol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("did not converge: %+v", st)
	}
	for i := range x {
		if math.Abs(x[i]-b[i]/d[i]) > 1e-8 {
			t.Fatalf("x[%d] = %g, want %g", i, x[i], b[i]/d[i])
		}
	}
}

func TestGMRESWithILUPreconditioner(t *testing.T) {
	a := wingMatrix(t, 6, 5, 4, 4, 21)
	n := a.N()
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i) * 0.13)
	}
	f, err := ilu.Factor(a, ilu.Options{Level: 1})
	if err != nil {
		t.Fatal(err)
	}
	op := OperatorFunc(a.MulVec)
	pc := PrecondFunc(f.Solve)

	xNoPC := make([]float64, n)
	stNo, err := Solve(op, nil, b, xNoPC, Options{Restart: 20, MaxIters: 400, RelTol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	xPC := make([]float64, n)
	stPC, err := Solve(op, pc, b, xPC, Options{Restart: 20, MaxIters: 400, RelTol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if !stPC.Converged {
		t.Fatalf("preconditioned solve failed: %+v", stPC)
	}
	if stPC.Iterations >= stNo.Iterations {
		t.Errorf("ILU preconditioning did not reduce iterations: %d vs %d", stPC.Iterations, stNo.Iterations)
	}
	if rn := residualNorm(op, b, xPC); rn > 1e-6*st0norm(b) {
		t.Errorf("true residual %g too large", rn)
	}
}

func st0norm(b []float64) float64 { return sparse.Norm2(b) }

func TestGMRESRestartedConverges(t *testing.T) {
	// Tiny restart forces multiple cycles but must still converge on a
	// well-conditioned system.
	a := wingMatrix(t, 5, 4, 4, 1, 31)
	n := a.N()
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, n)
	st, err := Solve(OperatorFunc(a.MulVec), nil, b, x, Options{Restart: 5, MaxIters: 500, RelTol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("restarted GMRES failed: %+v", st)
	}
	if st.Restarts == 0 {
		t.Error("expected at least one restart with m=5")
	}
	if rn := residualNorm(OperatorFunc(a.MulVec), b, x); rn > 1e-6*sparse.Norm2(b) {
		t.Errorf("true residual %g", rn)
	}
}

func TestGMRESZeroRHS(t *testing.T) {
	a := wingMatrix(t, 4, 3, 3, 1, 41)
	n := a.N()
	x := make([]float64, n)
	st, err := Solve(OperatorFunc(a.MulVec), nil, make([]float64, n), x, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged || st.Iterations != 0 {
		t.Errorf("zero RHS should converge immediately: %+v", st)
	}
	for i := range x {
		if x[i] != 0 {
			t.Fatal("x perturbed on zero RHS")
		}
	}
}

func TestGMRESNonzeroInitialGuess(t *testing.T) {
	a := wingMatrix(t, 4, 4, 3, 2, 51)
	n := a.N()
	b := make([]float64, n)
	want := make([]float64, n)
	for i := range want {
		want[i] = math.Cos(float64(i) * 0.21)
	}
	a.MulVec(want, b)
	x := make([]float64, n)
	for i := range x {
		x[i] = want[i] + 0.01*math.Sin(float64(i))
	}
	st, err := Solve(OperatorFunc(a.MulVec), nil, b, x, Options{Restart: 25, MaxIters: 300, RelTol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("not converged: %+v", st)
	}
	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-6 {
			t.Fatalf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
}

func TestGMRESHonorsMaxIters(t *testing.T) {
	a := wingMatrix(t, 6, 5, 4, 4, 61)
	n := a.N()
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, n)
	st, err := Solve(OperatorFunc(a.MulVec), nil, b, x, Options{Restart: 10, MaxIters: 3, RelTol: 1e-14})
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations > 3 {
		t.Errorf("iterations %d exceed cap 3", st.Iterations)
	}
	if st.Converged {
		t.Error("should not converge to 1e-14 in 3 iterations")
	}
}

func TestGMRESInputValidation(t *testing.T) {
	a := OperatorFunc(func(x, y []float64) { copy(y, x) })
	if _, err := Solve(a, nil, make([]float64, 3), make([]float64, 4), DefaultOptions()); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Solve(a, nil, make([]float64, 3), make([]float64, 3), Options{Restart: 0, MaxIters: 5}); err == nil {
		t.Error("restart 0 accepted")
	}
	for _, name := range append([]string{""}, Orthogonalizations...) {
		if err := (Options{Restart: 1, MaxIters: 1, Orthogonalization: name}).Validate(); err != nil {
			t.Errorf("Validate rejected %q: %v", name, err)
		}
	}
	err := Options{Restart: 1, MaxIters: 1, Orthogonalization: "cgz"}.Validate()
	if err == nil || !strings.Contains(err.Error(), "Orthogonalization") || !strings.Contains(err.Error(), "cgs1") {
		t.Errorf("Validate on a typo: %v, want an error naming the field and the accepted names", err)
	}
}

// TestEmptyOrthogonalizationIsFirst: an unset Orthogonalization runs
// the default, Orthogonalizations[0] — the same Stats and bitwise the
// same x — with and without a pool, and through Mechanism only: the
// solver keeps no default of its own.
func TestEmptyOrthogonalizationIsFirst(t *testing.T) {
	a := wingMatrix(t, 6, 5, 4, 4, 21)
	f, err := ilu.Factor(a, ilu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, a.N())
	for i := range b {
		b[i] = math.Sin(float64(i)*0.31) + 0.1
	}
	if got := (Options{}).Mechanism(); got != Orthogonalizations[0] {
		t.Fatalf(`Options{}.Mechanism() = %q, want Orthogonalizations[0] = %q`, got, Orthogonalizations[0])
	}
	pool := par.New(2)
	defer pool.Close()
	for _, p := range []*par.Pool{nil, pool} {
		solve := func(mech string) (Stats, []float64, error) {
			x := make([]float64, a.N())
			st, err := Solve(OperatorFunc(a.MulVec), PrecondFunc(f.Solve), b, x,
				Options{Restart: 8, MaxIters: 30, RelTol: 1e-10, Orthogonalization: mech, Pool: p})
			return st, x, err
		}
		want, wantX, wantErr := solve(Orthogonalizations[0])
		st, x, err := solve("")
		if e := sameOutcome(st, want, err, wantErr, x, wantX); e != nil {
			t.Errorf("%d workers: \"\" differs from %q: %v", p.Workers(), Orthogonalizations[0], e)
		}
	}
}

// TestNonFiniteOperatorStops: an operator that emits a NaN at its fifth
// apply — with Restart 2 the first step of the second cycle (apply 1 is
// the initial residual, 2-3 the first cycle, 4 the restart residual) —
// stops the solve at iteration 3 with a structured error, under every
// mechanism, instead of grinding through MaxIters on NaN vectors; x
// keeps the first cycle's finite update.
func TestNonFiniteOperatorStops(t *testing.T) {
	a := wingMatrix(t, 5, 4, 4, 4, 43)
	n := a.N()
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Cos(float64(i) * 0.23)
	}
	for _, mech := range Orthogonalizations {
		applies := 0
		op := OperatorFunc(func(x, y []float64) {
			a.MulVec(x, y)
			if applies++; applies == 5 {
				y[n/2] = math.NaN()
			}
		})
		x := make([]float64, n)
		st, err := Solve(op, nil, b, x, Options{Restart: 2, MaxIters: 50, RelTol: 1e-12, Orthogonalization: mech})
		var nf *NonFiniteError
		if !errors.As(err, &nf) || nf.Iteration != 3 || st.Iterations != 3 {
			t.Fatalf("%s: error %v after %d iterations, want a *NonFiniteError at iteration 3", mech, err, st.Iterations)
		}
		if applies != 5 {
			t.Errorf("%s: %d applies, want the solve to stop at the 5th", mech, applies)
		}
		moved := false
		for i, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: x[%d] = %g after the failed solve", mech, i, v)
			}
			moved = moved || v != 0
		}
		if !moved {
			t.Errorf("%s: x lost the completed cycle's update", mech)
		}
	}
}

// TestOrthoChargeIsSumOfKernelFormulas: for each mechanism, the flops
// and bytes a fixed solve charges to the ortho phase equal the sum of the
// par formulas over the vector kernels the mechanism calls, counted here
// from the solve's own statistics — every product of the
// orthogonalization steps is ortho work whether or not the vectors are
// distributed. On one address space there is no reduce phase; with Sum
// set it holds one span per Sum round (the steps' and the 1 + Restarts
// residual norms'), no flops, and the scalars each round summed. Over
// the same iterations cgs's one fused pass moves fewer ortho bytes than
// mgs's pass per vector.
func TestOrthoChargeIsSumOfKernelFormulas(t *testing.T) {
	a := wingMatrix(t, 5, 4, 4, 4, 37)
	n := a.N()
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Cos(float64(i) * 0.23)
	}
	apply := func(x, y []float64) error { a.MulVec(x, y); return nil }
	// sum of MDot formulas over `batches` passes totalling `products`
	// vectors, and of MAxpy formulas over `sweeps` totalling `vectors`.
	mdot := func(products, batches int) (int64, int64) {
		return par.MDotFlops(products, n), par.MDotBytes(products, n) + int64(batches-1)*par.MDotBytes(0, n)
	}
	maxpy := func(vectors, sweeps int) (int64, int64) {
		return par.MAxpyFlops(vectors, n), par.MAxpyBytes(vectors, n) + int64(sweeps-1)*par.MAxpyBytes(0, n)
	}
	orthoBytes := map[string]int64{}
	for _, mech := range Orthogonalizations {
		for _, distributed := range []bool{false, true} {
			p := prof.New()
			p.Enable()
			sp := Space{Prof: p}
			if distributed {
				sp.Sum = func([]float64) {} // one rank: the local sums are the global ones
			}
			st, err := new(Workspace).SolveOn(sp, apply, nil, b, make([]float64, n),
				Options{Restart: 6, MaxIters: 15, Orthogonalization: mech})
			if err != nil {
				t.Fatal(err)
			}
			its, prods, rounds := st.Iterations, st.InnerProds, st.Reductions
			if its != 15 || st.Restarts != 2 {
				t.Fatalf("%s: want the fixed 15 iterations in 3 cycles, got %+v", mech, st)
			}
			// What the mechanism's steps called, from the statistics:
			// products and passes of MDot, separate Dots, vectors and
			// sweeps of MAxpy.
			var mdotProds, mdotBatches, extraDots, axpyVecs, axpySweeps int
			switch mech {
			case "mgs": // every product its own pass; one axpy per projection
				mdotProds, mdotBatches, axpyVecs, axpySweeps = prods, prods, prods-its, prods-its
			case "cgs": // a projection pass and a norm per step
				mdotProds, mdotBatches, axpyVecs, axpySweeps = prods, rounds, prods-its, its
			case "cgs2": // rounds/2 fused passes, each followed by a norm; w·w rides the first
				mdotProds, mdotBatches, axpyVecs, axpySweeps = prods, rounds, prods-its-rounds/2, rounds/2
			case "cgs1": // one pass per step carrying w·w, plus the separate ‖v_j‖²
				mdotProds, mdotBatches, extraDots, axpyVecs, axpySweeps = prods-its, its, its, prods-2*its, its
			}
			dotF, dotB := mdot(mdotProds+extraDots, mdotBatches+extraDots)
			axF, axB := maxpy(axpyVecs, axpySweeps)
			scF, scB := int64(its)*scaleFlops(n), int64(its)*scaleBytes(n)
			got := map[string]prof.PhaseStat{}
			for _, ps := range p.Report(0).Phases {
				got[ps.Phase] = ps
			}
			wantOrthoF, wantOrthoB := dotF+axF+scF, dotB+axB+scB
			if distributed {
				summed := sumBytes(mdotProds + extraDots + 1 + st.Restarts)
				if r := got["reduce"]; r.Flops != 0 || r.Bytes != summed || r.Calls != int64(rounds+1+st.Restarts) {
					t.Errorf("%s distributed: reduce charged %d flops, %d bytes in %d spans; want 0, %d in %d",
						mech, r.Flops, r.Bytes, r.Calls, summed, rounds+1+st.Restarts)
				}
			} else if _, ok := got["reduce"]; ok {
				t.Errorf("%s: a reduce phase on one address space", mech)
			}
			if o := got["ortho"]; o.Flops != wantOrthoF || o.Bytes != wantOrthoB || o.Calls != int64(its) {
				t.Errorf("%s distributed=%v: ortho charged %d flops, %d bytes in %d spans; the kernels called sum to %d, %d in %d",
					mech, distributed, o.Flops, o.Bytes, o.Calls, wantOrthoF, wantOrthoB, its)
			}
			orthoBytes[mech] = got["ortho"].Bytes
		}
	}
	if orthoBytes["cgs"] >= orthoBytes["mgs"] {
		t.Errorf("cgs ortho bytes %d not below mgs %d over the same 15 iterations", orthoBytes["cgs"], orthoBytes["mgs"])
	}
}

// TestSolveSpansOnTheDefaultProfiler: Solve records one uncharged krylov
// span, one uncharged matvec span per product (the operator's own phases
// carry its work), and its ortho spans, on the process-wide profiler.
func TestSolveSpansOnTheDefaultProfiler(t *testing.T) {
	a := wingMatrix(t, 5, 4, 4, 4, 37)
	n := a.N()
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Cos(float64(i) * 0.23)
	}
	prof.Default.Reset()
	prof.Default.Enable()
	st, err := Solve(OperatorFunc(a.MulVec), nil, b, make([]float64, n), Options{Restart: 6, MaxIters: 15})
	prof.Default.Disable()
	rep := prof.Default.Report(0)
	prof.Default.Reset()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"krylov": 1, "matvec": int64(st.MatVecs), "ortho": int64(st.Iterations)}
	if len(rep.Phases) != len(want) {
		t.Errorf("recorded phases %+v, want %v", rep.Phases, want)
	}
	for _, ps := range rep.Phases {
		calls, ok := want[ps.Phase]
		if !ok || ps.Calls != calls {
			t.Errorf("phase %s has %d calls; want %v", ps.Phase, ps.Calls, want)
		}
		if ps.Phase != "ortho" && (ps.Flops != 0 || ps.Bytes != 0) {
			t.Errorf("phase %s charged %d flops, %d bytes; want none", ps.Phase, ps.Flops, ps.Bytes)
		}
	}
}

func TestGMRESStatsAccounting(t *testing.T) {
	a := wingMatrix(t, 4, 4, 3, 1, 71)
	n := a.N()
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, n)
	st, err := Solve(OperatorFunc(a.MulVec), nil, b, x, Options{Restart: 15, MaxIters: 100, RelTol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if st.MatVecs < st.Iterations {
		t.Errorf("matvecs %d < iterations %d", st.MatVecs, st.Iterations)
	}
	if st.PrecondApps < st.Iterations {
		t.Errorf("precond applies %d < iterations %d", st.PrecondApps, st.Iterations)
	}
	if st.InnerProds < st.Iterations {
		t.Errorf("inner products %d < iterations %d", st.InnerProds, st.Iterations)
	}
	if st.InitialNorm <= 0 {
		t.Error("initial norm not recorded")
	}
}

func BenchmarkGMRESILU1Wing(b *testing.B) {
	a := wingMatrix(b, 10, 8, 7, 4, 81)
	f, err := ilu.Factor(a, ilu.Options{Level: 1})
	if err != nil {
		b.Fatal(err)
	}
	n := a.N()
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := make([]float64, n)
		if _, err := Solve(OperatorFunc(a.MulVec), PrecondFunc(f.Solve), rhs, x,
			Options{Restart: 20, MaxIters: 60, RelTol: 1e-6}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCGSOrthogonalizationConverges(t *testing.T) {
	a := wingMatrix(t, 6, 5, 4, 4, 91)
	n := a.N()
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i) * 0.11)
	}
	solve := func(orth string) (Stats, []float64) {
		x := make([]float64, n)
		st, err := Solve(OperatorFunc(a.MulVec), nil, b, x,
			Options{Restart: 25, MaxIters: 400, RelTol: 1e-9, Orthogonalization: orth})
		if err != nil {
			t.Fatal(err)
		}
		return st, x
	}
	stM, xM := solve("mgs")
	stC, xC := solve("cgs")
	if !stM.Converged || !stC.Converged {
		t.Fatalf("not converged: mgs=%v cgs=%v", stM.Converged, stC.Converged)
	}
	var worst float64
	for i := range xM {
		if d := math.Abs(xM[i] - xC[i]); d > worst {
			worst = d
		}
	}
	if worst > 1e-6 {
		t.Errorf("CGS and MGS solutions differ by %g", worst)
	}
	// Both mechanisms compute the same n-length dots per iteration; the
	// fused CGS path batches them into far fewer reduction rounds.
	if stC.InnerProds != stM.InnerProds {
		t.Errorf("CGS inner products %d != MGS %d", stC.InnerProds, stM.InnerProds)
	}
	if stC.Reductions >= stM.Reductions {
		t.Errorf("CGS reduction rounds %d not below MGS %d", stC.Reductions, stM.Reductions)
	}
	if _, err := Solve(OperatorFunc(a.MulVec), nil, b, make([]float64, n),
		Options{Restart: 5, MaxIters: 5, Orthogonalization: "householder"}); err == nil {
		t.Error("unknown orthogonalization accepted")
	}
}

// TestCGS2OrthogonalizationConverges: CGS with selective DGKS
// reorthogonalization matches the MGS solution and keeps the batched
// reduction count — the pre-projection norm rides the fused pass, so a
// non-reorthogonalizing iteration still costs exactly two rounds.
func TestCGS2OrthogonalizationConverges(t *testing.T) {
	a := wingMatrix(t, 6, 5, 4, 4, 91)
	n := a.N()
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i) * 0.11)
	}
	solve := func(orth string) (Stats, []float64) {
		x := make([]float64, n)
		st, err := Solve(OperatorFunc(a.MulVec), nil, b, x,
			Options{Restart: 25, MaxIters: 400, RelTol: 1e-9, Orthogonalization: orth})
		if err != nil {
			t.Fatal(err)
		}
		return st, x
	}
	stM, xM := solve("mgs")
	st2, x2 := solve("cgs2")
	if !stM.Converged || !st2.Converged {
		t.Fatalf("not converged: mgs=%v cgs2=%v", stM.Converged, st2.Converged)
	}
	var worst float64
	for i := range xM {
		if d := math.Abs(xM[i] - x2[i]); d > worst {
			worst = d
		}
	}
	if worst > 1e-6 {
		t.Errorf("CGS2 and MGS solutions differ by %g", worst)
	}
	if st2.Reductions >= stM.Reductions {
		t.Errorf("CGS2 reduction rounds %d not below MGS %d", st2.Reductions, stM.Reductions)
	}
}

// TestReductionsAccounting pins the per-mechanism synchronizing-round
// arithmetic: MGS pays j+2 rounds at inner step j where the fused paths
// pay 2 (plus 2 per selective reorthogonalization for cgs2) — exactly
// the distinction the parallel-cost model's reduction term consumes.
func TestReductionsAccounting(t *testing.T) {
	a := wingMatrix(t, 5, 4, 4, 4, 37)
	n := a.N()
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Cos(float64(i) * 0.23)
	}
	solve := func(orth string) Stats {
		st, err := Solve(OperatorFunc(a.MulVec), nil, b, make([]float64, n),
			Options{Restart: 12, MaxIters: 60, RelTol: 1e-8, Orthogonalization: orth})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	// Per restart cycle the inner steps are j = 0..k-1; MGS pays
	// Σ(j+2) = k(k+3)/2 rounds over a full cycle, and the same partial
	// sum over a truncated last cycle. Recover the per-cycle step counts
	// from Iterations/Restarts and check the closed forms.
	mgsRounds := func(iters, restarts, restart int) int {
		rounds := 0
		left := iters
		for c := 0; c <= restarts; c++ {
			k := left
			if k > restart {
				k = restart
			}
			rounds += k * (k + 3) / 2
			left -= k
		}
		return rounds
	}
	stM := solve("mgs")
	if want := mgsRounds(stM.Iterations, stM.Restarts, 12); stM.Reductions != want {
		t.Errorf("mgs reductions=%d, want %d (iters=%d restarts=%d)",
			stM.Reductions, want, stM.Iterations, stM.Restarts)
	}
	if stM.InnerProds != stM.Reductions {
		t.Errorf("mgs must pay one round per product: products=%d rounds=%d",
			stM.InnerProds, stM.Reductions)
	}
	stC := solve("cgs")
	if want := 2 * stC.Iterations; stC.Reductions != want {
		t.Errorf("cgs reductions=%d, want %d (2 per iteration)", stC.Reductions, want)
	}
	st2 := solve("cgs2")
	if st2.Reductions < 2*st2.Iterations || st2.Reductions%2 != 0 {
		t.Errorf("cgs2 reductions=%d: want an even count >= %d (2 per iteration + 2 per reorth)",
			st2.Reductions, 2*st2.Iterations)
	}
	if st2.Reductions > 4*st2.Iterations {
		t.Errorf("cgs2 reductions=%d exceed the 2-pass ceiling %d", st2.Reductions, 4*st2.Iterations)
	}
}
