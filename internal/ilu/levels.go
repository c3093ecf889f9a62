package ilu

import (
	"petscfun3d/internal/par"
	"petscfun3d/internal/prof"
)

// Level-set scheduling of the block triangular solves. The forward
// substitution's row i depends on every row j < i with a stored L block
// (i, j); the backward substitution's row i on every row j > i with a
// stored U block. Grouping rows by their depth in that dependency DAG —
// level(i) = 1 + max over dependencies of level(j) — yields a schedule
// where all rows of one level are independent: a level can be
// partitioned across pool workers while each row's own accumulation
// (ascending k over its stored blocks) stays exactly the sequential
// order. The parallel solve is therefore bitwise identical to Solve at
// every worker count. The level sets are a pure function of the
// symbolic pattern, computed once per factorization.

// buildLevels computes the forward and backward level-set schedules
// from the symbolic pattern (called before the numeric phase; levels
// depend only on the structure).
func (f *Factorization) buildLevels() {
	nb := f.NB
	lev := make([]int32, nb)
	// Forward: ascending rows, dependencies are the row's L blocks.
	depth := 0
	for i := 0; i < nb; i++ {
		var l int32
		for _, j := range f.Col[f.LPtr[i]:f.LPtr[i+1]] {
			if d := lev[j] + 1; d > l {
				l = d
			}
		}
		lev[i] = l
		if int(l)+1 > depth {
			depth = int(l) + 1
		}
	}
	f.fwdRows, f.fwdPtr = bucketLevels(lev, depth)
	// Backward: descending rows, dependencies are the row's U blocks.
	clear(lev)
	depth = 0
	for i := nb - 1; i >= 0; i-- {
		var l int32
		for _, j := range f.Col[f.UPtr[i+1] : f.UPtr[i]-1] {
			if d := lev[j] + 1; d > l {
				l = d
			}
		}
		lev[i] = l
		if int(l)+1 > depth {
			depth = int(l) + 1
		}
	}
	f.bwdRows, f.bwdPtr = bucketLevels(lev, depth)
}

// bucketLevels groups rows by level via a counting sort that keeps rows
// ascending within each level.
func bucketLevels(lev []int32, depth int) (rows, ptr []int32) {
	ptr = make([]int32, depth+1)
	for _, l := range lev {
		ptr[l+1]++
	}
	for l := 0; l < depth; l++ {
		ptr[l+1] += ptr[l]
	}
	rows = make([]int32, len(lev))
	next := append([]int32(nil), ptr...)
	for i, l := range lev {
		rows[next[l]] = int32(i)
		next[l]++
	}
	return rows, ptr
}

// LevelStats summarizes a factorization's level-set schedule — the
// available node-level parallelism of its triangular solves (reported
// in the thread-scaling experiment and EXPERIMENTS.md).
type LevelStats struct {
	Rows      int // block rows (NB)
	FwdLevels int // forward-substitution DAG depth
	BwdLevels int // backward-substitution DAG depth
	// MaxWidth and AvgWidth describe the level populations across both
	// directions: the widest level, and rows per level on average — the
	// upper bound on useful workers per barrier.
	MaxWidth int
	AvgWidth float64
}

// LevelStats returns the schedule statistics.
func (f *Factorization) LevelStats() LevelStats {
	st := LevelStats{
		Rows:      f.NB,
		FwdLevels: len(f.fwdPtr) - 1,
		BwdLevels: len(f.bwdPtr) - 1,
	}
	if st.FwdLevels < 0 {
		st.FwdLevels = 0
	}
	if st.BwdLevels < 0 {
		st.BwdLevels = 0
	}
	for l := 0; l+1 < len(f.fwdPtr); l++ {
		if w := int(f.fwdPtr[l+1] - f.fwdPtr[l]); w > st.MaxWidth {
			st.MaxWidth = w
		}
	}
	for l := 0; l+1 < len(f.bwdPtr); l++ {
		if w := int(f.bwdPtr[l+1] - f.bwdPtr[l]); w > st.MaxWidth {
			st.MaxWidth = w
		}
	}
	if levels := st.FwdLevels + st.BwdLevels; levels > 0 {
		st.AvgWidth = float64(2*st.Rows) / float64(levels)
	}
	return st
}

// minLevelRows gates the pool per level: a level narrower than this
// many rows per worker runs inline on the caller — the barrier would
// cost more than the rows. Either path computes identical values.
const minLevelRows = 8

// SolvePar applies the factorization like Solve — x = (LU)⁻¹ b — with
// each level of the dependency DAG executed across the pool's workers.
// Per-row accumulation order is identical to the sequential solve, so
// the result is bitwise identical to Solve at every worker count. Like
// Solve, concurrent calls on the same Factorization are not allowed.
func (f *Factorization) SolvePar(p *par.Pool, b, x []float64) {
	nw := p.Workers()
	if nw <= 1 || len(f.fwdPtr) == 0 {
		f.Solve(b, x)
		return
	}
	sp := prof.Begin(prof.PhaseTriSolve)
	prof.NoteThreads(prof.PhaseTriSolve, nw)
	if len(f.tmp) < nw*f.B {
		f.tmp = make([]float64, nw*f.B)
	}
	t := &f.task
	t.f = f
	t.b, t.x = f.vectors(b, x)
	t.backward = false
	for l := 0; l+1 < len(f.fwdPtr); l++ {
		t.rows = f.fwdRows[f.fwdPtr[l]:f.fwdPtr[l+1]]
		runLevel(p, t, nw)
	}
	t.backward = true
	for l := 0; l+1 < len(f.bwdPtr); l++ {
		t.rows = f.bwdRows[f.bwdPtr[l]:f.bwdPtr[l+1]]
		runLevel(p, t, nw)
	}
	t.b, t.x, t.rows = nil, nil, nil
	sp.End(f.SolveFlops(), f.SolveBytes())
}

// runLevel executes one level: narrow levels inline on the caller, wide
// ones on the pool.
func runLevel(p *par.Pool, t *triTask, nw int) {
	if len(t.rows) < minLevelRows*nw {
		t.RunShard(0, 1)
		return
	}
	p.Run(t)
}

// triTask is the reusable pool task of SolvePar: one level's rows,
// partitioned contiguously across the workers.
type triTask struct {
	f        *Factorization
	rows     []int32
	b, x     []float64
	backward bool
}

// RunShard implements par.Task.
func (t *triTask) RunShard(w, nw int) {
	lo, hi := len(t.rows)*w/nw, len(t.rows)*(w+1)/nw
	f := t.f
	tmp := f.tmp[w*f.B : w*f.B+f.B]
	if t.backward {
		f.backward(t.rows, lo, hi, t.x, tmp)
	} else {
		f.forward(t.rows, lo, hi, t.b, t.x, tmp)
	}
}
