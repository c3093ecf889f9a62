package sparse

import (
	"fmt"

	"petscfun3d/internal/par"
)

// Worker-pool SpMV: the matrix's block rows are cut into one contiguous
// stripe per worker, with stripe boundaries balanced by stored-nonzero
// count (a prefix-sum cut of RowPtr via par.Stripes), so skewed row
// populations — boundary rows, reordered meshes — do not serialize the
// sweep. Each row of y is written by exactly one worker with the same
// per-row kernel and accumulation order as the sequential MulVec, so
// the product is bitwise identical to sequential at every worker count.

// MulVecPar computes y = A x on the pool. Bitwise identical to MulVec
// for every worker count (a nil pool runs the sequential kernel).
// Concurrent calls on the same matrix are not allowed.
func (a *BCSR) MulVecPar(p *par.Pool, x, y []float64) {
	nw := p.Workers()
	if nw == 1 {
		a.MulVec(x, y)
		return
	}
	if len(x) < a.N() || len(y) < a.N() {
		// Kernel precondition: a dimension mismatch is caller misuse caught before the bandwidth-limited sweep
		panic(fmt.Sprintf("sparse: BCSR MulVecPar dimension mismatch: N=%d len(x)=%d len(y)=%d", a.N(), len(x), len(y)))
	}
	if len(a.parBounds) != nw+1 {
		a.parBounds = make([]int32, nw+1)
		par.Stripes(a.RowPtr, nw, a.parBounds)
	}
	t := &a.parTask
	t.a, t.x, t.y = a, x, y
	p.Run(t)
	t.x, t.y = nil, nil
}

type bcsrMulTask struct {
	a    *BCSR
	x, y []float64
}

// RunShard implements par.Task: one nonzero-balanced row stripe through
// MulVec's kernel.
func (t *bcsrMulTask) RunShard(w, nw int) {
	a := t.a
	kern.mulVec(a, nil, int(a.parBounds[w]), int(a.parBounds[w+1]), false, t.x, t.y)
}
