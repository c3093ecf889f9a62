package dist

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"petscfun3d/internal/ilu"
	"petscfun3d/internal/mpi"
	"petscfun3d/internal/sparse"
)

func bitsDiffer(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d values, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("value %d is %x, want %x", i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
	return nil
}

// sameOperator compares two distributed matrices on this rank: stored
// values, one MulVec (a halo exchange each, posted collectively in the
// same order on every rank) and one block Jacobi solve, all bit-equal.
func sameOperator(got, want *Matrix, opts ilu.Options) error {
	if err := bitsDiffer(got.local.Val, want.local.Val); err != nil {
		return fmt.Errorf("local values: %w", err)
	}
	if err := bitsDiffer(got.diag.Val, want.diag.Val); err != nil {
		return fmt.Errorf("diagonal-block values: %w", err)
	}
	n := want.LocalN()
	x, yg, yw := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(i)*0.29 + float64(want.Comm.Rank()))
	}
	if err := want.MulVec(x, yw); err != nil {
		return err
	}
	if err := got.MulVec(x, yg); err != nil {
		return err
	}
	if err := bitsDiffer(yg, yw); err != nil {
		return fmt.Errorf("MulVec: %w", err)
	}
	solveW, err := want.BlockJacobi(opts)
	if err != nil {
		return err
	}
	solveG, err := got.BlockJacobi(opts)
	if err != nil {
		return err
	}
	solveW(x, yw)
	solveG(x, yg)
	if err := bitsDiffer(yg, yw); err != nil {
		return fmt.Errorf("block Jacobi solve: %w", err)
	}
	return nil
}

// TestMatrixRefreshBitwise: a distributed matrix built for one global
// matrix and refreshed with another of the same pattern is bit-equal —
// values, MulVec, block Jacobi solve — to a fresh NewMatrix of the
// second, on 2 and 4 ranks, in both storage precisions; the refresh
// keeps the halo plan and refactors the retained factorization.
func TestMatrixRefreshBitwise(t *testing.T) {
	for _, nranks := range []int{2, 4} {
		pr := buildTestProblem(t, 6, 5, 4, 4, nranks)
		a2 := sparse.BlockPattern(pr.g, 4)
		a2.FillDeterministic(53)
		for _, single := range []bool{false, true} {
			opts := ilu.Options{Level: 1, SinglePrecision: single}
			err := mpi.Run(nranks, func(c *mpi.Comm) error {
				m, err := NewMatrix(c, pr.a, pr.part.Part)
				if err != nil {
					return err
				}
				if _, err := m.BlockJacobi(opts); err != nil {
					return err
				}
				plan, factors := m.halo, m.bj
				if err := m.Refresh(a2); err != nil {
					return err
				}
				fresh, err := NewMatrix(c, a2, pr.part.Part)
				if err != nil {
					return err
				}
				if err := sameOperator(m, fresh, opts); err != nil {
					return err
				}
				if m.halo != plan || m.bj != factors {
					return fmt.Errorf("refresh replaced the halo plan or the retained factorization")
				}
				return nil
			}, mpi.Options{WatchdogTimeout: 60 * time.Second})
			if err != nil {
				t.Fatalf("%d ranks single=%v: %v", nranks, single, err)
			}
		}
	}
}

// TestMatrixRefreshSingularPivotIsRecoverable: after a refresh whose
// block Jacobi refactorization hits a singular pivot block (a structured
// error on the rank that owns it), a refresh with a good matrix is
// bit-equal to a fresh build.
func TestMatrixRefreshSingularPivotIsRecoverable(t *testing.T) {
	const nranks = 2
	pr := buildTestProblem(t, 6, 5, 4, 4, nranks)
	a2 := sparse.BlockPattern(pr.g, 4)
	a2.FillDeterministic(53)
	// Global row 0 is local row 0 of its owner: no lower blocks, so its
	// pivot is the zeroed block itself.
	bad := &sparse.BCSR{NB: a2.NB, B: a2.B, RowPtr: a2.RowPtr, ColIdx: a2.ColIdx, Val: append([]float64(nil), a2.Val...)}
	blk, ok := bad.BlockAt(0, 0)
	if !ok {
		t.Fatal("fixture: no diagonal block in row 0")
	}
	clear(blk)
	opts := ilu.Options{Level: 0}
	err := mpi.Run(nranks, func(c *mpi.Comm) error {
		m, err := NewMatrix(c, pr.a, pr.part.Part)
		if err != nil {
			return err
		}
		if _, err := m.BlockJacobi(opts); err != nil {
			return err
		}
		if err := m.Refresh(bad); err != nil {
			return err
		}
		_, err = m.BlockJacobi(opts)
		if owner := int(pr.part.Part[0]) == c.Rank(); owner {
			if err == nil || !strings.Contains(err.Error(), "singular pivot block at row 0") {
				return fmt.Errorf("zeroed diagonal block gave %v, want a singular-pivot error naming row 0", err)
			}
		} else if err != nil {
			return err
		}
		if err := m.Refresh(a2); err != nil {
			return err
		}
		fresh, err := NewMatrix(c, a2, pr.part.Part)
		if err != nil {
			return err
		}
		return sameOperator(m, fresh, opts)
	}, mpi.Options{WatchdogTimeout: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMatrixRefreshRejectsOtherPattern: matrices of another shape, or
// with one column moved, are errors (raised before anything is copied
// or sent).
func TestMatrixRefreshRejectsOtherPattern(t *testing.T) {
	pr := buildTestProblem(t, 6, 5, 4, 4, 2)
	moved := &sparse.BCSR{NB: pr.a.NB, B: pr.a.B, RowPtr: pr.a.RowPtr, ColIdx: append([]int32(nil), pr.a.ColIdx...), Val: pr.a.Val}
	moved.ColIdx[moved.RowPtr[1]-1]++
	others := map[string]*sparse.BCSR{
		"other NB":         buildTestProblem(t, 5, 5, 4, 4, 2).a,
		"other B":          buildTestProblem(t, 6, 5, 4, 5, 2).a,
		"one column moved": moved,
	}
	err := mpi.Run(2, func(c *mpi.Comm) error {
		m, err := NewMatrix(c, pr.a, pr.part.Part)
		if err != nil {
			return err
		}
		for name, other := range others {
			if err := m.Refresh(other); err == nil || !strings.Contains(err.Error(), "pattern mismatch") {
				return fmt.Errorf("%s: Refresh returned %v, want a pattern-mismatch error", name, err)
			}
		}
		return nil
	}, mpi.Options{WatchdogTimeout: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMatrixRefreshSteadyStateAllocs: Refresh allocates nothing. One
// rank, so no peer goroutine's allocations are counted.
func TestMatrixRefreshSteadyStateAllocs(t *testing.T) {
	pr := buildTestProblem(t, 6, 5, 4, 4, 1)
	err := mpi.Run(1, func(c *mpi.Comm) error {
		m, err := NewMatrix(c, pr.a, pr.part.Part)
		if err != nil {
			return err
		}
		var refreshErr error
		avg := testing.AllocsPerRun(10, func() {
			if err := m.Refresh(pr.a); err != nil {
				refreshErr = err
			}
		})
		if refreshErr != nil {
			return refreshErr
		}
		if avg > 0 {
			return fmt.Errorf("Refresh allocates %.1f objects per call", avg)
		}
		return nil
	}, mpi.Options{WatchdogTimeout: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNewtonRefreshMatchesRebuild: the steady-state solve (one
// NewMatrix, then Refresh + Refactor each step) produces a residual
// history bit-equal to a solve that drops and rebuilds the matrix —
// plan negotiation included — before every step's successful attempt,
// which is what a failed attempt forces. 2 and 4 ranks.
func TestNewtonRefreshMatchesRebuild(t *testing.T) {
	for _, nranks := range []int{2, 4} {
		steady := runChaosNewton(t, nranks, nil)
		d, p, q0 := buildResidualProblem(t, 6, 5, 4, nranks)
		opts := soakNewtonOptions()
		opts.StepRetries = 1
		opts.BeforeStep = func(step, attempt int) error {
			if attempt == 0 {
				return fmt.Errorf("injected failure: drop the matrix before step %d", step)
			}
			return nil
		}
		hists := make([][]float64, nranks)
		err := mpi.Run(nranks, func(c *mpi.Comm) error {
			q := append([]float64(nil), q0...)
			res, err := NewtonSolve(c, d, p.Part, q, opts, nil)
			if err != nil {
				return err
			}
			for _, s := range res.Steps {
				if s.Attempts != 2 {
					return fmt.Errorf("step %d took %d attempts, want 2", s.Index, s.Attempts)
				}
			}
			hists[c.Rank()] = res.ResidualHistory()
			return nil
		}, mpi.Options{WatchdogTimeout: 60 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		for r := range hists {
			if err := bitsDiffer(hists[r], steady); err != nil {
				t.Fatalf("%d ranks, rank %d: rebuilt-every-step history vs refreshed: %v", nranks, r, err)
			}
		}
	}
}

// TestStepOperatorBuildsOnce: the Newton driver's operator is built —
// and its halo plan negotiated — by the first call only; later calls
// reload the same Matrix.
func TestStepOperatorBuildsOnce(t *testing.T) {
	pr := buildTestProblem(t, 6, 5, 4, 4, 2)
	a2 := sparse.BlockPattern(pr.g, 4)
	a2.FillDeterministic(53)
	err := mpi.Run(2, func(c *mpi.Comm) error {
		first, _, err := stepOperator(c, pr.a, pr.part.Part, nil, ilu.Options{}, nil, nil)
		if err != nil {
			return err
		}
		plan := first.halo
		second, _, err := stepOperator(c, a2, pr.part.Part, first, ilu.Options{}, nil, nil)
		if err != nil {
			return err
		}
		if second != first || second.halo != plan {
			return fmt.Errorf("second step rebuilt the matrix or its halo plan")
		}
		fresh, err := NewMatrix(c, a2, pr.part.Part)
		if err != nil {
			return err
		}
		return sameOperator(second, fresh, ilu.Options{})
	}, mpi.Options{WatchdogTimeout: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
}
