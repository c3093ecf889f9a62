package dist

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"petscfun3d/internal/euler"
	"petscfun3d/internal/ilu"
	"petscfun3d/internal/mpi"
	"petscfun3d/internal/newton"
	"petscfun3d/internal/prof"
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
	if err := bitsDiffer(got.diag.Val, want.diag.Val); err != nil {
		return fmt.Errorf("diagonal-block values: %w", err)
	}
	if err := bitsDiffer(got.off.Val, want.off.Val); err != nil {
		return fmt.Errorf("ghost-column values: %w", err)
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

// refreshCFL is the pseudo-time step of the operators these tests build.
const refreshCFL = 25

// shiftedJacobian is the sequential path's operator at q: the global
// first-order Jacobian plus the pseudo-time diagonal.
func shiftedJacobian(t testing.TB, d *euler.Discretization, q []float64) *sparse.BCSR {
	t.Helper()
	a := d.JacobianPattern()
	if err := d.AssembleJacobian(q, a); err != nil {
		t.Fatal(err)
	}
	newton.AddTimeDiagonal(a, d.TimeScales(q), refreshCFL)
	return a
}

// secondState is another non-freestream state of q's shape.
func secondState(q []float64) []float64 {
	q2 := append([]float64(nil), q...)
	for i := range q2 {
		q2[i] += 0.03 * math.Cos(float64(i)*0.31)
	}
	return q2
}

// assembleAt runs one step's operator build on this rank: am (planned
// when nil) assembled in place at q and its block Jacobi refactored.
func assembleAt(c *mpi.Comm, rsd *Residual, part []int32, am *Matrix, q []float64, opts ilu.Options) (*Matrix, error) {
	am, _, err := stepOperator(c, rsd, part, am, q, refreshCFL, opts, nil, nil)
	return am, err
}

// TestMatrixRefreshBitwise: a rank's matrix planned from the mesh graph,
// assembled in place at one state and then at another, is bit-equal —
// values, MulVec, block Jacobi solve — to a fresh NewMatrix of the
// sequential path's global operator at the second state, on 2 and 4
// ranks, in both storage precisions; the second assembly keeps the halo
// plan and refactors the retained factorization. And the other way
// round: assembling in place into that NewMatrix, at the state its
// values came from, changes no bit of it.
func TestMatrixRefreshBitwise(t *testing.T) {
	for _, nranks := range []int{2, 4} {
		d, p, q1 := buildResidualProblem(t, 6, 5, 4, nranks)
		q2 := secondState(q1)
		a2 := shiftedJacobian(t, d, q2)
		for _, single := range []bool{false, true} {
			opts := ilu.Options{Level: 1, SinglePrecision: single}
			err := mpi.Run(nranks, func(c *mpi.Comm) error {
				rsd, err := NewResidual(c, d, p.Part)
				if err != nil {
					return err
				}
				m, err := assembleAt(c, rsd, p.Part, nil, q1, opts)
				if err != nil {
					return err
				}
				plan, factors := m.halo, m.bj
				if _, err := assembleAt(c, rsd, p.Part, m, q2, opts); err != nil {
					return err
				}
				fresh, err := NewMatrix(c, a2, p.Part)
				if err != nil {
					return err
				}
				if err := sameOperator(m, fresh, opts); err != nil {
					return err
				}
				if m.halo != plan || m.bj != factors {
					return fmt.Errorf("the second assembly replaced the halo plan or the retained factorization")
				}
				loaded := append([]float64(nil), fresh.val[:int(fresh.sink())*16]...)
				if err = fresh.planAssembly(d); err != nil {
					return err
				}
				if _, err := assembleAt(c, rsd, p.Part, fresh, q2, opts); err != nil {
					return err
				}
				if err := bitsDiffer(fresh.val[:len(loaded)], loaded); err != nil {
					return fmt.Errorf("in-place assembly over NewMatrix's values: %w", err)
				}
				return nil
			}, mpi.Options{WatchdogTimeout: 60 * time.Second})
			if err != nil {
				t.Fatalf("%d ranks single=%v: %v", nranks, single, err)
			}
		}
	}
}

// TestMatrixRefreshSingularPivotIsRecoverable: after a block Jacobi
// refactorization that hits a singular pivot block (a structured error
// on the rank that owns it), the next in-place assembly is bit-equal to
// a fresh build.
func TestMatrixRefreshSingularPivotIsRecoverable(t *testing.T) {
	const nranks = 2
	d, p, q1 := buildResidualProblem(t, 6, 5, 4, nranks)
	q2 := secondState(q1)
	a2 := shiftedJacobian(t, d, q2)
	opts := ilu.Options{Level: 0}
	err := mpi.Run(nranks, func(c *mpi.Comm) error {
		rsd, err := NewResidual(c, d, p.Part)
		if err != nil {
			return err
		}
		m, err := assembleAt(c, rsd, p.Part, nil, q1, opts)
		if err != nil {
			return err
		}
		// Global row 0 is local row 0 of its owner: no lower blocks, so
		// its pivot is the zeroed block itself.
		owner := int(p.Part[0]) == c.Rank()
		if owner {
			blk, ok := m.diag.BlockAt(0, 0)
			if !ok {
				return fmt.Errorf("fixture: no diagonal block in row 0")
			}
			clear(blk)
		}
		pf := prof.New()
		if owner {
			m.Prof = pf
			pf.Enable()
		}
		_, err = m.BlockJacobi(opts)
		m.Prof = nil
		if owner {
			if err == nil || !strings.Contains(err.Error(), "singular pivot block at row 0") {
				return fmt.Errorf("zeroed diagonal block gave %v, want a singular-pivot error naming row 0", err)
			}
			// The failed factorization still closes its span, uncharged.
			if ph := pf.Report(0).Phases; len(ph) != 1 || ph[0].Phase != "ilu_factor" || ph[0].Calls != 1 || ph[0].Flops != 0 || ph[0].Bytes != 0 {
				return fmt.Errorf("failed BlockJacobi recorded phases %+v, want one closed ilu_factor span", ph)
			}
		} else if err != nil {
			return err
		}
		if _, err := assembleAt(c, rsd, p.Part, m, q2, opts); err != nil {
			return err
		}
		fresh, err := NewMatrix(c, a2, p.Part)
		if err != nil {
			return err
		}
		return sameOperator(m, fresh, opts)
	}, mpi.Options{WatchdogTimeout: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMatrixRefreshRejectsOtherPattern: in-place assembly addresses the
// blocks of the mesh graph, so planning it over a Matrix that lacks one
// of them is an error (raised before anything is written).
func TestMatrixRefreshRejectsOtherPattern(t *testing.T) {
	d, p, q := buildResidualProblem(t, 6, 5, 4, 2)
	a := shiftedJacobian(t, d, q)
	// Row 1 loses its last column to the next free one.
	moved := &sparse.BCSR{NB: a.NB, B: a.B, RowPtr: a.RowPtr, ColIdx: append([]int32(nil), a.ColIdx...), Val: a.Val}
	moved.ColIdx[moved.RowPtr[2]-1]++
	err := mpi.Run(2, func(c *mpi.Comm) error {
		m, err := NewMatrix(c, moved, p.Part)
		if err != nil {
			return err
		}
		err = m.planAssembly(d)
		if owner := int(p.Part[1]) == c.Rank(); owner {
			if err == nil || !strings.Contains(err.Error(), "missing from the matrix") {
				return fmt.Errorf("one column moved: plan returned %v, want a missing-block error", err)
			}
		} else if err != nil {
			return err
		}
		return nil
	}, mpi.Options{WatchdogTimeout: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMatrixRefreshSteadyStateAllocs: a step's operator build past the
// first — in-place assembly and refactorization — allocates only the
// preconditioner closure it returns. One rank, so no peer goroutine's
// allocations are counted.
func TestMatrixRefreshSteadyStateAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation gate: under the race detector sync.Pool drops the assembly's workspaces at random")
	}
	d, p, q := buildResidualProblem(t, 6, 5, 4, 1)
	err := mpi.Run(1, func(c *mpi.Comm) error {
		rsd, err := NewResidual(c, d, p.Part)
		if err != nil {
			return err
		}
		m, _, err := stepOperator(c, rsd, p.Part, nil, q, refreshCFL, ilu.Options{}, nil, nil)
		if err != nil {
			return err
		}
		var stepErr error
		avg := testing.AllocsPerRun(10, func() {
			if _, _, err := stepOperator(c, rsd, p.Part, m, q, refreshCFL, ilu.Options{}, nil, nil); err != nil {
				stepErr = err
			}
		})
		if stepErr != nil {
			return stepErr
		}
		if avg > 1 {
			return fmt.Errorf("a later step's operator build allocates %.1f objects, want the returned closure alone", avg)
		}
		return nil
	}, mpi.Options{WatchdogTimeout: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNewtonRefreshMatchesRebuild: the steady-state solve (one plan,
// then in-place assembly + Refactor each step) produces a residual
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
				t.Fatalf("%d ranks, rank %d: rebuilt-every-step history vs reassembled in place: %v", nranks, r, err)
			}
		}
	}
}

// TestStepOperatorBuildsOnce: the Newton driver's operator is built —
// its halo plan negotiated, its assembly planned — by the first call
// only; later calls reassemble the same Matrix.
func TestStepOperatorBuildsOnce(t *testing.T) {
	d, p, q1 := buildResidualProblem(t, 6, 5, 4, 2)
	q2 := secondState(q1)
	err := mpi.Run(2, func(c *mpi.Comm) error {
		rsd, err := NewResidual(c, d, p.Part)
		if err != nil {
			return err
		}
		first, err := assembleAt(c, rsd, p.Part, nil, q1, ilu.Options{})
		if err != nil {
			return err
		}
		halo, jac, val := first.halo, first.jac, &first.val[0]
		second, err := assembleAt(c, rsd, p.Part, first, q2, ilu.Options{})
		if err != nil {
			return err
		}
		if second != first || second.halo != halo || second.jac != jac || &second.val[0] != val {
			return fmt.Errorf("the second step rebuilt the matrix, its halo plan, its assembly plan or its values")
		}
		return nil
	}, mpi.Options{WatchdogTimeout: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
}
