package newton

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

// fake is a scalar System with r(q) = q: Correct moves q by gain·RHS
// (gain 0.5 halves the residual each step, a negative gain grows it),
// and every call is counted. failCorrect / failResidual inject errors by
// (step, attempt) and by residual-call number.
type fake struct {
	gain         float64
	failCorrect  func(step, attempt int) error
	failResidual func(call int) error
	fatal        func(error) bool
	accepted     func(st *Step, reduction float64) bool

	residuals int
	corrects  [][2]int // (step, attempt) of every Correct call
	badRHS    bool     // a Correct call saw RHS != −R or DQ != 0
}

func (f *fake) system() System {
	return System{
		Residual: func(q, r []float64) (float64, error) {
			f.residuals++
			if f.failResidual != nil {
				if err := f.failResidual(f.residuals); err != nil {
					return 0, err
				}
			}
			r[0] = q[0]
			return math.Abs(r[0]), nil
		},
		Correct: func(c *Correction) (int, error) {
			f.corrects = append(f.corrects, [2]int{c.Step, c.Attempt})
			if c.RHS[0] != -c.R[0] || c.DQ[0] != 0 || c.R[0] != c.Q[0] {
				f.badRHS = true
			}
			if f.failCorrect != nil {
				if err := f.failCorrect(c.Step, c.Attempt); err != nil {
					return 0, err
				}
			}
			c.Trial[0] = math.NaN() // free scratch: the loop must overwrite it
			c.DQ[0] = f.gain * c.RHS[0]
			return 7, nil
		},
		Fatal:    f.fatal,
		Accepted: f.accepted,
	}
}

var errInjected = errors.New("injected")

func TestIterate(t *testing.T) {
	base := Options{CFL0: 10, SERExponent: 1, CFLMax: 1e5, MaxSteps: 4, RelTol: 1e-30, LineSearch: true}
	cases := []struct {
		name  string
		opts  func(o *Options)
		f     *fake
		check func(t *testing.T, f *fake, q float64, res *Result, err error)
	}{
		{
			name: "SER growth and CFLMax cap",
			opts: func(o *Options) { o.SERExponent = 2; o.CFLMax = 500; o.MaxSteps = 5 },
			f:    &fake{gain: 0.5},
			check: func(t *testing.T, f *fake, q float64, res *Result, err error) {
				// ‖f‖ halves each step, so CFL = 10·4^step until the cap.
				want := []float64{10, 40, 160, 500, 500}
				if err != nil || len(res.Steps) != len(want) || res.Converged {
					t.Fatalf("err %v, %d steps, converged %v", err, len(res.Steps), res.Converged)
				}
				for i, st := range res.Steps {
					if st.CFL != want[i] || st.Index != i || st.LinearIts != 7 || st.Attempts != 1 {
						t.Errorf("step %d: %+v, want CFL %g", i, st, want[i])
					}
					if st.Rnorm != math.Ldexp(1, -(i+1)) {
						t.Errorf("step %d: residual %g, want 2^-%d", i, st.Rnorm, i+1)
					}
				}
				if res.TotalLinearIts != 35 || res.InitialRnorm != 1 || res.FinalRnorm != q || q != 1.0/32 {
					t.Errorf("totals %+v, q = %g", res, q)
				}
				hist := res.ResidualHistory()
				if len(hist) != 6 || hist[0] != 1 || hist[5] != 1.0/32 {
					t.Errorf("history %v", hist)
				}
			},
		},
		{
			name: "converges and stops",
			opts: func(o *Options) { o.RelTol = 0.2 },
			f:    &fake{gain: 0.5},
			check: func(t *testing.T, f *fake, q float64, res *Result, err error) {
				if err != nil || !res.Converged || len(res.Steps) != 3 || q != 0.125 {
					t.Fatalf("err %v, result %+v, q = %g; want convergence at step 2", err, res, q)
				}
			},
		},
		{
			name: "lambda halving stops at 5",
			opts: func(o *Options) { o.MaxSteps = 1 },
			f:    &fake{gain: -1}, // q + λ·q grows for every λ > 0
			check: func(t *testing.T, f *fake, q float64, res *Result, err error) {
				// 1 initial evaluation + tries at λ = 1, 1/2, …, 1/32.
				if err != nil || f.residuals != 7 || q != 1+1.0/32 || res.Steps[0].Rnorm != q {
					t.Fatalf("err %v, %d residual evaluations, q = %g; want 7 and 1+1/32", err, f.residuals, q)
				}
			},
		},
		{
			name: "no line search takes the full step",
			opts: func(o *Options) { o.MaxSteps = 1; o.LineSearch = false },
			f:    &fake{gain: -1},
			check: func(t *testing.T, f *fake, q float64, res *Result, err error) {
				if err != nil || f.residuals != 2 || q != 2 {
					t.Fatalf("err %v, %d residual evaluations, q = %g; want 2 and 2", err, f.residuals, q)
				}
			},
		},
		{
			name: "a failed correction is retried",
			opts: func(o *Options) { o.StepRetries = 1 },
			f: &fake{gain: 0.5, failCorrect: func(step, attempt int) error {
				if step == 1 && attempt == 0 {
					return errInjected
				}
				return nil
			}},
			check: func(t *testing.T, f *fake, q float64, res *Result, err error) {
				if err != nil || len(res.Steps) != 4 || q != 1.0/16 {
					t.Fatalf("err %v, %d steps, q = %g", err, len(res.Steps), q)
				}
				for i, want := range []int{1, 2, 1, 1} {
					if got := res.Steps[i].Attempts; got != want {
						t.Errorf("step %d: %d attempts, want %d", i, got, want)
					}
				}
			},
		},
		{
			name: "a failed line-search evaluation is retried from RHS = -R",
			opts: func(o *Options) { o.StepRetries = 1; o.MaxSteps = 2 },
			// Residual calls: 1 initial, 2 step 0, 3 step 1 (fails), 4 its retry.
			f: &fake{gain: 0.5, failResidual: func(call int) error {
				if call == 3 {
					return errInjected
				}
				return nil
			}},
			check: func(t *testing.T, f *fake, q float64, res *Result, err error) {
				want := [][2]int{{0, 0}, {1, 0}, {1, 1}}
				if err != nil || fmt.Sprint(f.corrects) != fmt.Sprint(want) || res.Steps[1].Attempts != 2 || q != 0.25 {
					t.Fatalf("err %v, Correct calls %v (want %v), result %+v, q = %g", err, f.corrects, want, res, q)
				}
			},
		},
		{
			name: "retries exhausted return the partial result",
			opts: func(o *Options) { o.StepRetries = 2 },
			f: &fake{gain: 0.5, failCorrect: func(step, attempt int) error {
				if step == 1 {
					return errInjected
				}
				return nil
			}},
			check: func(t *testing.T, f *fake, q float64, res *Result, err error) {
				if !errors.Is(err, errInjected) || !strings.Contains(err.Error(), "step 1 failed after 3 attempt(s)") {
					t.Fatalf("error %v", err)
				}
				if res == nil || len(res.Steps) != 1 || res.Steps[0].Attempts != 1 || res.FinalRnorm != 0.5 || q != 0.5 {
					t.Fatalf("partial result %+v, q = %g; want the one accepted step and its state", res, q)
				}
			},
		},
		{
			name: "a fatal error stops on the first attempt",
			opts: func(o *Options) { o.StepRetries = 3 },
			f: &fake{gain: 0.5, fatal: func(err error) bool { return errors.Is(err, errInjected) },
				failCorrect: func(step, attempt int) error {
					if step == 2 {
						return errInjected
					}
					return nil
				}},
			check: func(t *testing.T, f *fake, q float64, res *Result, err error) {
				if err == nil || !strings.Contains(err.Error(), "step 2 failed after 1 attempt(s)") {
					t.Fatalf("error %v", err)
				}
				if len(f.corrects) != 3 || len(res.Steps) != 2 {
					t.Fatalf("%d Correct calls, %d steps; want 3 and 2", len(f.corrects), len(res.Steps))
				}
			},
		},
		{
			name: "a failed initial evaluation returns an empty result",
			f:    &fake{failResidual: func(int) error { return errInjected }},
			check: func(t *testing.T, f *fake, q float64, res *Result, err error) {
				if !errors.Is(err, errInjected) || res == nil || len(res.Steps) != 0 || len(f.corrects) != 0 {
					t.Fatalf("err %v, result %+v", err, res)
				}
			},
		},
		{
			name: "Accepted fills the record and asks for re-evaluations",
			opts: func(o *Options) { o.MaxSteps = 3 },
			f: &fake{gain: 0.5, accepted: func(st *Step, reduction float64) bool {
				st.Order, st.FluxEvals = 2, int(1/reduction)
				return true
			}},
			check: func(t *testing.T, f *fake, q float64, res *Result, err error) {
				// 1 initial + 3 trial states + one re-evaluation after steps
				// 0 and 1, none after the last step.
				if err != nil || f.residuals != 6 {
					t.Fatalf("err %v, %d residual evaluations, want 6", err, f.residuals)
				}
				for i, st := range res.Steps {
					if st.Order != 2 || st.FluxEvals != 2<<i {
						t.Errorf("step %d: record %+v lost what Accepted filled", i, st)
					}
				}
			},
		},
		{
			name: "no re-evaluation after the converging step",
			opts: func(o *Options) { o.RelTol = 0.5 },
			f:    &fake{gain: 0.5, accepted: func(*Step, float64) bool { return true }},
			check: func(t *testing.T, f *fake, q float64, res *Result, err error) {
				if err != nil || !res.Converged || f.residuals != 2 {
					t.Fatalf("err %v, converged %v, %d residual evaluations, want 2", err, res.Converged, f.residuals)
				}
			},
		},
		{
			name: "divergence is an error with the steps so far",
			opts: func(o *Options) { o.LineSearch = false },
			f:    &fake{gain: math.Inf(-1)},
			check: func(t *testing.T, f *fake, q float64, res *Result, err error) {
				if err == nil || !strings.Contains(err.Error(), "diverged at step 0") || len(res.Steps) != 1 {
					t.Fatalf("err %v, result %+v", err, res)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := base
			if tc.opts != nil {
				tc.opts(&opts)
			}
			q := []float64{1}
			res, err := Iterate(tc.f.system(), q, opts)
			if tc.f.badRHS {
				t.Error("a Correct call did not see R = r(Q), RHS = -R and DQ = 0")
			}
			tc.check(t, tc.f, q[0], res, err)
		})
	}
}

func TestIterateRejectsAndShortCircuits(t *testing.T) {
	ok := Options{CFL0: 10, SERExponent: 1, CFLMax: 1e5, MaxSteps: 4, RelTol: 1e-8}
	for name, mutate := range map[string]func(o *Options){
		"zero CFL0":            func(o *Options) { o.CFL0 = 0 },
		"NaN CFL0":             func(o *Options) { o.CFL0 = math.NaN() },
		"zero MaxSteps":        func(o *Options) { o.MaxSteps = 0 },
		"negative StepRetries": func(o *Options) { o.StepRetries = -1 },
	} {
		opts := ok
		mutate(&opts)
		f := &fake{gain: 0.5}
		if res, err := Iterate(f.system(), []float64{1}, opts); err == nil || res != nil || f.residuals != 0 {
			t.Errorf("%s: result %+v, error %v, %d residual evaluations; want a rejection before any work", name, res, err, f.residuals)
		}
	}
	f := &fake{gain: 0.5}
	res, err := Iterate(f.system(), []float64{0}, ok)
	if err != nil || !res.Converged || len(res.Steps) != 0 || len(f.corrects) != 0 {
		t.Errorf("zero initial residual: result %+v, error %v; want converged without a step", res, err)
	}
}
