package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"petscfun3d/internal/krylov"
	"petscfun3d/internal/newton"
	"petscfun3d/internal/schwarz"
	"petscfun3d/internal/sparse"
)

// pcConfig exercises overlap, fill and a multi-part partition in one
// short solve.
func pcConfig() Config {
	cfg := smallConfig()
	cfg.Ranks = 4
	cfg.Overlap = 1
	cfg.FillLevel = 1
	return cfg
}

// solveWith runs the sequential ψNK solve of p with the given factory
// and returns the residual history.
func solveWith(t *testing.T, p *Problem, pc newton.PCFactory, retries int, hooks *newton.Hooks) []float64 {
	t.Helper()
	nopts := p.Cfg.Newton
	nopts.StepRetries = retries
	s := &newton.Solver{Disc: p.Disc, Disc2: p.Disc2, PC: pc, Opts: nopts, Hooks: hooks}
	res, err := s.Solve(p.Disc.FreestreamVector())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("solve did not converge: %g -> %g", res.InitialRnorm, res.FinalRnorm)
	}
	hist := []float64{res.InitialRnorm}
	for _, st := range res.Steps {
		hist = append(hist, st.Rnorm)
	}
	return hist
}

func sameHistory(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d residuals, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: residual %d is %x, want %x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// rebuildFactory is the reference the refreshing factory is held to: a
// fresh schwarz.New on every Jacobian update.
func rebuildFactory(p *Problem) newton.PCFactory {
	return func(a *sparse.BCSR) (krylov.Preconditioner, error) {
		return schwarz.New(a, p.Part.Part, p.Part.NParts, p.schwarzOptions())
	}
}

// TestPCFactoryRefreshMatchesRebuild: the factory builds once and
// refreshes in place thereafter, stores the preconditioner through last
// on every call, and the solve's residual history is bit-equal to one
// that rebuilds the preconditioner from scratch at every update — in
// both storage precisions.
func TestPCFactoryRefreshMatchesRebuild(t *testing.T) {
	for _, single := range []bool{false, true} {
		cfg := pcConfig()
		cfg.SinglePrecision = single
		p, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var last, first *schwarz.Preconditioner
		calls := 0
		factory := p.PCFactory(&last)
		counted := func(a *sparse.BCSR) (krylov.Preconditioner, error) {
			last = nil
			pc, err := factory(a)
			calls++
			if first == nil {
				first = last
			}
			if err == nil && (last == nil || last != first || pc != krylov.Preconditioner(first)) {
				t.Errorf("call %d: factory did not hand back (and store) its one preconditioner", calls)
			}
			return pc, err
		}
		refreshed := solveWith(t, p, counted, 0, nil)
		if calls < 3 {
			t.Fatalf("fixture: only %d Jacobian updates", calls)
		}
		rebuilt := solveWith(t, p, rebuildFactory(p), 0, nil)
		sameHistory(t, "refreshed vs rebuilt", refreshed, rebuilt)
		p.Close()
	}
}

// TestPCFactoryRecoversFromSingularPivot: a refresh that hits a singular
// pivot block fails the step attempt with the structured error; the
// solver's retry calls the factory again, whose refresh overwrites every
// value, and the solve's residual history is bit-equal to the unfailed
// run's.
func TestPCFactoryRecoversFromSingularPivot(t *testing.T) {
	p, err := Build(pcConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	clean := solveWith(t, p, p.PCFactory(nil), 0, nil)

	factory := p.PCFactory(nil)
	calls := 0
	sabotaged := func(a *sparse.BCSR) (krylov.Preconditioner, error) {
		calls++
		if calls != 3 {
			return factory(a)
		}
		// Global row 0 opens its subdomain: no lower blocks, so its pivot
		// is the zeroed block itself.
		bad := &sparse.BCSR{NB: a.NB, B: a.B, RowPtr: a.RowPtr, ColIdx: a.ColIdx, Val: append([]float64(nil), a.Val...)}
		blk, ok := bad.BlockAt(0, 0)
		if !ok {
			t.Fatal("fixture: no diagonal block in row 0")
		}
		clear(blk)
		return factory(bad)
	}
	var failures []string
	hooks := &newton.Hooks{OnStepError: func(step, attempt int, err error) {
		failures = append(failures, err.Error())
	}}
	retried := solveWith(t, p, sabotaged, 1, hooks)
	if len(failures) != 1 || !strings.Contains(failures[0], "singular pivot block at row 0") {
		t.Fatalf("step failures %q, want one singular-pivot error naming row 0", failures)
	}
	sameHistory(t, "retried vs clean", retried, clean)
}

// TestSolveBitwiseAcrossThreads: the altpath solve (4 overlapping
// subdomains, float32 ILU(1) factors, assembled operator) keeps its
// residual history bit for bit at every thread count — whole subdomains
// across the pool at 2, 3 and 4 threads, level-scheduled solves inside
// each subdomain at 8.
func TestSolveBitwiseAcrossThreads(t *testing.T) {
	var want []float64
	for _, threads := range []int{1, 2, 3, 4, 8} {
		cfg := altpathConfig()
		cfg.TargetVertices = 1200
		cfg.Newton.MaxSteps = 4
		cfg.Threads = threads
		res, err := RunSequential(cfg)
		if err != nil {
			t.Fatal(err)
		}
		hist := []float64{res.Newton.InitialRnorm}
		for _, st := range res.Newton.Steps {
			hist = append(hist, st.Rnorm)
		}
		if want == nil {
			want = hist
		}
		sameHistory(t, fmt.Sprintf("%d threads vs 1", threads), hist, want)
	}
}
