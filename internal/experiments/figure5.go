package experiments

import "petscfun3d/internal/core"

// Figure5Series is the convergence history for one initial CFL number.
type Figure5Series struct {
	CFL0      float64   `col:"CFL_0"`
	Residuals []float64 // residual norm per pseudo-timestep (index 0 = initial)
	Steps     int       `col:"steps"`
	Converged bool      `col:"converged"`
}

// Figure5Point is one pseudo-timestep of one series.
type Figure5Point struct {
	CFL0     float64 `col:"CFL_0"`
	Step     int     `col:"step"`
	Residual float64 `col:"residual,%.3e"`
}

// Figure5Result reproduces Figure 5: residual norm versus pseudo-
// timestep for a sweep of initial CFL numbers on the incompressible wing
// problem. Aggressive initial CFL shortens the induction period for this
// smooth flow, as the paper observes.
type Figure5Result struct {
	Vertices int `col:"vertices"`
	Series   []Figure5Series
}

// Tables prints the steps each series took, then the histories.
func (f *Figure5Result) Tables() []Table {
	var pts []Figure5Point
	for _, s := range f.Series {
		for i, r := range s.Residuals {
			pts = append(pts, Figure5Point{s.CFL0, i, r})
		}
	}
	return []Table{
		{Name: "figure5_steps", Title: "Figure 5 — pseudo-timesteps to converge by initial CFL", Measured: true,
			Params: f, Rows: f.Series},
		{Name: "figure5", Title: "Figure 5 — residual norm vs pseudo-timestep by initial CFL", Measured: true,
			Params: f, Rows: pts, Group: 1},
	}
}

// Figure5Study solves the incompressible wing of about nv vertices from
// each initial CFL number, at most maxSteps pseudo-timesteps each.
func Figure5Study(nv, maxSteps int, cfls []float64) (*Figure5Result, error) {
	res := &Figure5Result{}
	for _, cfl := range cfls {
		cfg := core.DefaultConfig()
		cfg.TargetVertices = nv
		cfg.Newton.CFL0 = cfl
		cfg.Newton.RelTol = 1e-8
		cfg.Newton.MaxSteps = maxSteps
		out, err := core.RunSequential(cfg)
		if err != nil {
			return nil, err
		}
		res.Vertices = out.Problem.Mesh.NumVertices()
		s := Figure5Series{CFL0: cfl, Residuals: []float64{out.Newton.InitialRnorm},
			Steps: len(out.Newton.Steps), Converged: out.Newton.Converged}
		for _, st := range out.Newton.Steps {
			s.Residuals = append(s.Residuals, st.Rnorm)
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}
