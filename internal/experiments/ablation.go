package experiments

import (
	"fmt"

	"petscfun3d/internal/core"
)

// AblationRow is one parameter setting of the ψNKS tuning sweep.
type AblationRow struct {
	Parameter string `col:"parameter"`
	Value     string `col:"value"`
	Steps     int    `col:"steps"`
	LinearIts int    `col:"lin its"`
	FluxEvals int    `col:"flux evals"`
	Converged bool   `col:"converged"`
}

// AblationResult sweeps the section 2.4 algorithmic parameters the
// paper's tables do not dedicate a figure to: GMRES restart dimension,
// inner (Krylov) convergence tolerance, the SER exponent, and the
// preconditioner-Jacobian refresh lag — plus the defaults the paper's
// linear solve replaced (MGS, float64 factors), kept on record. Each is
// varied alone around the baseline; the cost currency is the paper's
// own (pseudo-timesteps, linear iterations, and fine-grid flux
// evaluations).
type AblationResult struct {
	Vertices int `col:"vertices"`
	Baseline AblationRow
	Rows     []AblationRow
}

// Tables prints the sweep, the baseline first.
func (a *AblationResult) Tables() []Table {
	return []Table{{Name: "ablation", Title: "ψNKS parameter ablation (section 2.4), incompressible", Measured: true,
		Params: a, Rows: append([]AblationRow{a.Baseline}, a.Rows...)}}
}

// AblationStudy runs the single-parameter sweeps on the incompressible
// wing of about nv vertices.
func AblationStudy(nv int) (*AblationResult, error) {
	res := &AblationResult{}
	run := func(mutate func(*core.Config), param, value string) (AblationRow, error) {
		cfg := core.DefaultConfig()
		cfg.TargetVertices = nv
		cfg.Newton.RelTol = 1e-8
		cfg.Newton.MaxSteps = 200
		if mutate != nil {
			mutate(&cfg)
		}
		out, err := core.RunSequential(cfg)
		if err != nil {
			return AblationRow{}, err
		}
		res.Vertices = out.Problem.Mesh.NumVertices()
		return AblationRow{
			Parameter: param, Value: value,
			Steps:     len(out.Newton.Steps),
			LinearIts: out.Newton.TotalLinearIts,
			FluxEvals: out.Newton.TotalFluxEvals,
			Converged: out.Newton.Converged,
		}, nil
	}
	base, err := run(nil, "baseline", "restart=20 rtol=1e-2 p=1.0 lag=1 cgs float32")
	if err != nil {
		return nil, err
	}
	res.Baseline = base
	knobs := []struct {
		param, value string
		mutate       func(*core.Config)
	}{
		{"gmres-restart", "10", func(c *core.Config) { c.Newton.Krylov.Restart = 10 }},
		{"gmres-restart", "30", func(c *core.Config) { c.Newton.Krylov.Restart = 30 }},
		{"inner-rtol", "1e-3", func(c *core.Config) { c.Newton.Krylov.RelTol = 1e-3 }},
		{"inner-rtol", "1e-1", func(c *core.Config) { c.Newton.Krylov.RelTol = 1e-1 }},
		{"ser-exponent", "0.75", func(c *core.Config) { c.Newton.SERExponent = 0.75 }},
		{"ser-exponent", "1.5", func(c *core.Config) { c.Newton.SERExponent = 1.5 }},
		{"jacobian-lag", "2", func(c *core.Config) { c.Newton.JacobianLag = 2 }},
		{"jacobian-lag", "4", func(c *core.Config) { c.Newton.JacobianLag = 4 }},
		{"ilu-fill", "1", func(c *core.Config) { c.FillLevel = 1 }},
		{"order-continuation", "switch@1e-2", func(c *core.Config) { c.SwitchOrderAt = 1e-2 }},
		{"orthogonalization", "mgs", func(c *core.Config) { c.Newton.Krylov.Orthogonalization = "mgs" }},
		{"factor-precision", "float64", func(c *core.Config) { c.SinglePrecision = false }},
		{"operator", "assembled", func(c *core.Config) { c.Newton.AssembledOperator = true }},
	}
	for _, k := range knobs {
		row, err := run(k.mutate, k.param, k.value)
		if err != nil {
			return nil, fmt.Errorf("%s=%s: %w", k.param, k.value, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
