package krylov

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"petscfun3d/internal/ilu"
	"petscfun3d/internal/par"
	"petscfun3d/internal/sparse"
)

// sameOutcome reports how a solve on a reused Workspace differs from the
// same solve on a fresh one: every Stats field, the error and every bit
// of x must agree.
func sameOutcome(st, want Stats, err, wantErr error, x, wantX []float64) error {
	bits := math.Float64bits
	if st.Iterations != want.Iterations || st.MatVecs != want.MatVecs || st.PrecondApps != want.PrecondApps ||
		st.InnerProds != want.InnerProds || st.Reductions != want.Reductions || st.Restarts != want.Restarts ||
		st.Converged != want.Converged || bits(st.InitialNorm) != bits(want.InitialNorm) ||
		bits(st.ResidualNorm) != bits(want.ResidualNorm) {
		return fmt.Errorf("stats %+v, fresh %+v", st, want)
	}
	var nf, wantNF *NonFiniteError
	if errors.As(err, &nf) != errors.As(wantErr, &wantNF) || (err == nil) != (wantErr == nil) {
		return fmt.Errorf("error %v, fresh %v", err, wantErr)
	}
	if nf != nil && (nf.Iteration != wantNF.Iteration || nf.Quantity != wantNF.Quantity || bits(nf.Value) != bits(wantNF.Value)) {
		return fmt.Errorf("error %v, fresh %v", nf, wantNF)
	}
	for i := range x {
		if bits(x[i]) != bits(wantX[i]) {
			return fmt.Errorf("x[%d] = %v, fresh %v", i, x[i], wantX[i])
		}
	}
	return nil
}

// TestWorkspaceReuseIsInvisible drives ONE Workspace through a sequence
// of solves — new right-hand sides, another vector length, another
// restart length, a solve after one that ended in *NonFiniteError, after
// a happy breakdown, after a cgs1 solve that left vnrm ≠ 1 — and checks
// each against a fresh krylov.Solve on the same inputs, bit for bit,
// under every mechanism with and without a pool.
func TestWorkspaceReuseIsInvisible(t *testing.T) {
	big, small := wingMatrix(t, 6, 5, 4, 4, 21), wingMatrix(t, 5, 4, 3, 4, 43)
	fBig, err := ilu.Factor(big, ilu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rhs := func(n int, f float64) []float64 {
		b := make([]float64, n)
		for i := range b {
			b[i] = math.Sin(float64(i)*f) + 0.1
		}
		return b
	}
	// Each case names its operator through a constructor, so a stateful
	// (poisoned) operator starts over for the fresh reference solve.
	type solve struct {
		name string
		op   func() Operator
		pc   Preconditioner
		b    []float64
		opts Options // Orthogonalization "" takes the table's mechanism
	}
	plain := func(a *sparse.BCSR) func() Operator {
		return func() Operator { return OperatorFunc(a.MulVec) }
	}
	poisoned := func() Operator {
		applies := 0
		return OperatorFunc(func(x, y []float64) {
			big.MulVec(x, y)
			if applies++; applies == 5 {
				y[len(y)/2] = math.NaN()
			}
		})
	}
	identity := func() Operator { return OperatorFunc(func(x, y []float64) { copy(y, x) }) }
	nBig, nSmall := big.N(), small.N()
	seq := []solve{
		{"first", plain(big), PrecondFunc(fBig.Solve), rhs(nBig, 0.13), Options{Restart: 10, MaxIters: 60, RelTol: 1e-10}},
		{"new rhs", plain(big), PrecondFunc(fBig.Solve), rhs(nBig, 0.31), Options{Restart: 10, MaxIters: 60, RelTol: 1e-10}},
		{"smaller n", plain(small), nil, rhs(nSmall, 0.23), Options{Restart: 10, MaxIters: 40, RelTol: 1e-8}},
		{"larger n again", plain(big), nil, rhs(nBig, 0.07), Options{Restart: 10, MaxIters: 30, RelTol: 1e-8}},
		{"shorter restart", plain(big), PrecondFunc(fBig.Solve), rhs(nBig, 0.13), Options{Restart: 3, MaxIters: 60, RelTol: 1e-10}},
		{"longer restart", plain(big), PrecondFunc(fBig.Solve), rhs(nBig, 0.13), Options{Restart: 25, MaxIters: 60, RelTol: 1e-10}},
		{"non-finite", poisoned, nil, rhs(nBig, 0.23), Options{Restart: 2, MaxIters: 50, RelTol: 1e-12}},
		{"after non-finite", plain(big), nil, rhs(nBig, 0.19), Options{Restart: 2, MaxIters: 20, RelTol: 1e-12}},
		{"happy breakdown", identity, nil, rhs(nBig, 0.11), Options{Restart: 2, MaxIters: 20, RelTol: 1e-12}},
		{"after breakdown", plain(big), nil, rhs(nBig, 0.29), Options{Restart: 2, MaxIters: 20, RelTol: 1e-12}},
		{"cgs1 measures vnrm", plain(big), nil, rhs(nBig, 0.17), Options{Restart: 8, MaxIters: 16, RelTol: 1e-12, Orthogonalization: "cgs1"}},
		{"after cgs1", plain(big), nil, rhs(nBig, 0.17), Options{Restart: 8, MaxIters: 16, RelTol: 1e-12}},
	}
	pool2 := par.New(2)
	defer pool2.Close()
	for _, mech := range Orthogonalizations {
		for _, pool := range []*par.Pool{nil, pool2} {
			var ws Workspace
			for _, c := range seq {
				opts := c.opts
				opts.Pool = pool
				if opts.Orthogonalization == "" {
					opts.Orthogonalization = mech
				}
				x, wantX := make([]float64, len(c.b)), make([]float64, len(c.b))
				st, err := ws.Solve(c.op(), c.pc, c.b, x, opts)
				want, wantErr := Solve(c.op(), c.pc, c.b, wantX, opts)
				if diff := sameOutcome(st, want, err, wantErr, x, wantX); diff != nil {
					t.Fatalf("%s, %d workers, %q: %v", mech, pool.Workers(), c.name, diff)
				}
				// The sequence must reach the states it is named for.
				switch c.name {
				case "non-finite":
					var nf *NonFiniteError
					if !errors.As(err, &nf) {
						t.Fatalf("%s: %q ended with %v, want a *NonFiniteError", mech, c.name, err)
					}
				case "happy breakdown":
					if !st.Converged || st.Iterations != 1 {
						t.Fatalf("%s: %q took %d iterations (converged %v), want a one-iteration breakdown", mech, c.name, st.Iterations, st.Converged)
					}
				case "cgs1 measures vnrm":
					measured := false
					for _, v := range ws.vnrm[:opts.Restart] {
						measured = measured || v != 1
					}
					if !measured {
						t.Fatalf("%s: the cgs1 solve left vnrm all 1; the next case proves nothing", mech)
					}
				}
			}
		}
	}
}

// TestWorkspaceSteadyStateAllocates: after the first solve of a shape, a
// Workspace's solves allocate a few words (the operator adapters), never
// the (Restart+4)·n slab again.
func TestWorkspaceSteadyStateAllocates(t *testing.T) {
	a := wingMatrix(t, 6, 5, 4, 4, 21)
	b, x := make([]float64, a.N()), make([]float64, a.N())
	for i := range b {
		b[i] = math.Cos(float64(i) * 0.3)
	}
	pool := par.New(2)
	defer pool.Close()
	for _, mech := range Orthogonalizations {
		var ws Workspace
		opts := Options{Restart: 6, MaxIters: 12, RelTol: 1e-12, Orthogonalization: mech, Pool: pool}
		op := OperatorFunc(a.MulVec)
		allocs := testing.AllocsPerRun(5, func() {
			clear(x)
			if _, err := ws.Solve(op, nil, b, x, opts); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 4 {
			t.Errorf("%s: %v allocations per warm solve, want at most the operator adapters (4)", mech, allocs)
		}
	}
}
