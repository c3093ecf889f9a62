package core

import (
	"time"

	"petscfun3d/internal/newton"
	"petscfun3d/internal/schwarz"
)

// SequentialResult reports a single-address-space solve with real wall
// times (the Table 1 style of measurement).
type SequentialResult struct {
	Problem  *Problem
	Newton   *newton.Result
	WallTime time.Duration
	PerStep  time.Duration
	FinalQ   []float64
	Precond  *schwarz.Preconditioner
}

// RunSequential builds the problem and solves it in one address space,
// measuring real wall-clock time.
func RunSequential(cfg Config) (*SequentialResult, error) {
	p, err := Build(cfg)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	var lastPC *schwarz.Preconditioner
	nopts := cfg.Newton
	nopts.Krylov.Pool = p.Pool
	s := &newton.Solver{
		Disc:  p.Disc,
		Disc2: p.Disc2,
		PC:    p.PCFactory(&lastPC),
		Opts:  nopts,
	}
	q := p.Disc.FreestreamVector()
	start := time.Now()
	res, err := s.Solve(q)
	wall := time.Since(start)
	if err != nil {
		return nil, err
	}
	out := &SequentialResult{
		Problem:  p,
		Newton:   res,
		WallTime: wall,
		FinalQ:   q,
		Precond:  lastPC,
	}
	if n := len(res.Steps); n > 0 {
		out.PerStep = wall / time.Duration(n)
	}
	return out, nil
}
