package experiments

import (
	"fmt"
	"strings"

	"petscfun3d/internal/core"
)

// AblationRow is one parameter setting of the ψNKS tuning sweep.
type AblationRow struct {
	Parameter string
	Value     string
	Steps     int
	LinearIts int
	FluxEvals int
	Converged bool
}

// AblationResult sweeps the section 2.4 algorithmic parameters the
// paper's tables do not dedicate a figure to: GMRES restart dimension,
// inner (Krylov) convergence tolerance, the SER exponent, and the
// preconditioner-Jacobian refresh lag. Each is varied alone around the
// baseline; the cost currency is the paper's own (pseudo-timesteps,
// linear iterations, and fine-grid flux evaluations).
type AblationResult struct {
	Vertices int
	Baseline AblationRow
	Rows     []AblationRow
}

// Ablation runs the single-parameter sweeps on the incompressible wing.
func Ablation(size Size) (*AblationResult, error) {
	nv := pick(size, 2500, 22677, 22677)
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
		return AblationRow{
			Parameter: param, Value: value,
			Steps:     len(out.Newton.Steps),
			LinearIts: out.Newton.TotalLinearIts,
			FluxEvals: out.Newton.TotalFluxEvals,
			Converged: out.Newton.Converged,
		}, nil
	}
	res := &AblationResult{}
	base, err := run(nil, "baseline", "restart=20 rtol=1e-2 p=1.0 lag=1")
	if err != nil {
		return nil, err
	}
	res.Baseline = base
	bcfg := core.DefaultConfig()
	bcfg.TargetVertices = nv
	p, err := core.Build(bcfg)
	if err != nil {
		return nil, err
	}
	res.Vertices = p.Mesh.NumVertices()

	type knob struct {
		param  string
		value  string
		mutate func(*core.Config)
	}
	knobs := []knob{
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
		{"orthogonalization", "cgs", func(c *core.Config) { c.Newton.Krylov.Orthogonalization = "cgs" }},
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

// Render formats the sweep.
func (a *AblationResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "ψNKS parameter ablation (section 2.4), %d vertices, incompressible\n", a.Vertices)
	fmt.Fprintf(&sb, "%-18s %-14s | %6s %8s %8s %s\n", "parameter", "value", "steps", "lin its", "flux ev", "conv")
	rows := append([]AblationRow{a.Baseline}, a.Rows...)
	for _, r := range rows {
		conv := "yes"
		if !r.Converged {
			conv = "NO"
		}
		fmt.Fprintf(&sb, "%-18s %-14s | %6d %8d %8d %s\n",
			r.Parameter, r.Value, r.Steps, r.LinearIts, r.FluxEvals, conv)
	}
	return sb.String()
}
