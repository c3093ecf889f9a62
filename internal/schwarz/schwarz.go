// Package schwarz implements the domain-decomposition preconditioners of
// the paper: block Jacobi (zero overlap) and restricted additive Schwarz
// (RASM) with configurable overlap, with block ILU(k) as the subdomain
// solver. RASM applies the prolongation only to owned unknowns, which
// halves the communication of standard ASM — the variant the paper uses
// (section 2.4.3, citing Cai & Sarkis).
package schwarz

import (
	"fmt"

	"petscfun3d/internal/ilu"
	"petscfun3d/internal/par"
	"petscfun3d/internal/prof"
	"petscfun3d/internal/sparse"
)

// Options configures the preconditioner.
type Options struct {
	// Overlap is the number of BFS layers added to each subdomain
	// (0 = block Jacobi; Table 4 sweeps 0..2).
	Overlap int
	// ILU configures the subdomain solver (fill level, storage
	// precision).
	ILU ilu.Options
	// Pool is the node-level worker pool; nil runs everything on the
	// caller. With at least as many subdomains as workers, New, Refresh
	// and Apply hand each worker a run of whole subdomains and every
	// subdomain runs the sequential kernels; with fewer (one subdomain
	// under threads), the subdomains run in turn and each triangular
	// solve is level-scheduled across the pool (ilu.SolvePar). Either
	// way the values are bitwise those of a nil pool. A pool — and the
	// per-subdomain work vectors — serve one call at a time: no two of
	// Apply and Refresh may overlap on one preconditioner.
	Pool *par.Pool
}

// Subdomain is the solver state of one part: the owned and extended
// (owned + overlap) block rows, the local matrix, and its ILU
// factorization. Local is an extracted copy — unless Extended is every
// row of the global matrix (one part, or an overlap that swallows the
// mesh), when it IS the matrix last handed to New or Refresh: read it,
// never write it. Factor is always a copy.
type Subdomain struct {
	Owned    []int32 // global block rows owned by this part, sorted
	Extended []int32 // owned plus overlap layers, sorted
	Local    *sparse.BCSR
	Factor   *ilu.Factorization

	ownedLocal []int32 // position in Extended of each owned row
	src        []int32 // global block each block of a copied Local is copied from
	rhs        []float64
	sol        []float64
}

// Preconditioner is a block Jacobi / RASM preconditioner over a
// partitioned global block matrix. Opts is what New was given (the
// thread schedule is cut for its Pool); it is not to be changed.
type Preconditioner struct {
	NB   int
	B    int
	Opts Options
	Subs []*Subdomain

	pattern sparse.Pattern // of the matrix New analysed

	// bounds cuts Subs into one contiguous run per pool worker (worker
	// w's subdomains are bounds[w]…bounds[w+1]-1), balanced by stored
	// factor blocks; nil when subdomains are not the threaded unit. errs
	// is one slot per subdomain for the numeric pass's outcome, all nil
	// between calls.
	bounds  []int32
	errs    []error
	applyT  applyTask
	factorT factorTask
}

// New builds the preconditioner for global matrix a partitioned by part
// (length a.NB, values in [0, nparts)): the symbolic analysis — index
// sets, local patterns, copy indices, ILU fill patterns — and one
// numeric pass. When a's values change on the same pattern, Refresh
// repeats the numeric pass alone.
func New(a *sparse.BCSR, part []int32, nparts int, opts Options) (*Preconditioner, error) {
	if len(part) != a.NB {
		return nil, fmt.Errorf("schwarz: partition length %d, matrix has %d block rows", len(part), a.NB)
	}
	if opts.Overlap < 0 {
		return nil, fmt.Errorf("schwarz: negative overlap %d", opts.Overlap)
	}
	p := &Preconditioner{NB: a.NB, B: a.B, Opts: opts, Subs: make([]*Subdomain, nparts), errs: make([]error, nparts)}
	p.applyT.p, p.factorT.p = p, p
	if nw := opts.Pool.Workers(); nw > 1 && nparts >= nw {
		p.bounds = make([]int32, nw+1)
	}
	sp := prof.Begin(prof.PhasePCSetup)
	// Extraction only; the factorizations report their own work.
	defer func() { sp.End(0, p.refreshBytes()) }()
	counts := make([]int, nparts)
	for i, q := range part {
		if q < 0 || int(q) >= nparts {
			return nil, fmt.Errorf("schwarz: row %d in invalid part %d", i, q)
		}
		counts[q]++
	}
	owned := make([][]int32, nparts)
	for q, n := range counts {
		owned[q] = make([]int32, 0, n) //lint:alloc-ok one-time partition of rows at preconditioner setup
	}
	for i, q := range part {
		owned[q] = append(owned[q], int32(i)) //lint:alloc-ok appends into capacity preallocated to the exact part size
	}
	// One dense mark array serves every subdomain in turn: -1 outside
	// the subdomain being built, its local row index inside.
	mark := make([]int32, a.NB)
	for i := range mark {
		mark[i] = -1
	}
	for q := 0; q < nparts; q++ {
		sub, err := buildSubdomain(a, owned[q], mark, opts)
		if err != nil {
			return nil, fmt.Errorf("schwarz: subdomain %d: %w", q, err)
		}
		p.Subs[q] = sub
	}
	p.pattern = sparse.PatternOf(a)
	// The factors do not exist yet: their first pass is balanced by the
	// local matrices' block counts, every later one by their own.
	p.balance()
	if err := p.factor(a); err != nil {
		return nil, err
	}
	p.balance()
	return p, nil
}

// balance cuts the subdomains into the workers' runs by stored blocks —
// a function of the pattern only, so the cut never depends on values or
// scheduling (and the values never depend on the cut).
func (p *Preconditioner) balance() {
	if p.bounds == nil {
		return
	}
	prefix := make([]int32, len(p.Subs)+1)
	for q, s := range p.Subs {
		n := len(s.Local.ColIdx)
		if s.Factor != nil {
			n = s.Factor.NNZBlocks()
		}
		prefix[q+1] = prefix[q] + int32(n)
	}
	par.Stripes(prefix, len(p.bounds)-1, p.bounds)
}

// shard returns worker w's run of subdomains: everything, for the one
// inline shard of a preconditioner whose subdomains are not threaded.
func (p *Preconditioner) shard(w int) (lo, hi int) {
	if p.bounds == nil {
		return 0, len(p.Subs)
	}
	return int(p.bounds[w]), int(p.bounds[w+1])
}

// subdomainPool is the pool whole subdomains run across — nil (Run on
// it is one inline shard) unless subdomains are the threaded unit.
func (p *Preconditioner) subdomainPool() *par.Pool {
	if p.bounds == nil {
		return nil
	}
	return p.Opts.Pool
}

// Refresh recomputes the preconditioner from a, which must have exactly
// the sparsity pattern New analysed (anything else is an error and
// leaves the preconditioner untouched): per subdomain one indexed value
// copy (none where Local is a itself) and one ilu Refactor. Every stored
// value is overwritten, so the result is bitwise the one a fresh New(a)
// computes whatever a previous (even failed) refresh left behind;
// nothing is allocated. After an error the preconditioner is undefined
// until a later Refresh succeeds.
func (p *Preconditioner) Refresh(a *sparse.BCSR) error {
	sp := prof.Begin(prof.PhasePCSetup)
	defer sp.End(0, p.refreshBytes())
	if err := p.pattern.Check(a); err != nil {
		return fmt.Errorf("schwarz: refresh: %w", err)
	}
	return p.factor(a)
}

// factor is the numeric pass of New and Refresh: every subdomain gathers
// a's values and factors them, each worker taking its run of subdomains.
// Workers open no spans, so the one ilu_factor span here carries every
// subdomain's work. Every subdomain is attempted whatever happens to the
// others; the error is the lowest-numbered failure at every worker count.
func (p *Preconditioner) factor(a *sparse.BCSR) error {
	pool := p.subdomainPool()
	sp := prof.Begin(prof.PhaseILUFactor)
	if pool != nil {
		prof.NoteThreads(prof.PhaseILUFactor, pool.Workers())
	}
	t := &p.factorT
	t.a = a
	pool.Run(t)
	t.a = nil
	sp.End(p.FactorFlops(), p.FactorBytes())
	var first error
	for q, err := range p.errs {
		if err != nil && first == nil {
			first = fmt.Errorf("schwarz: subdomain %d: %w", q, err)
		}
		p.errs[q] = nil
	}
	return first
}

// factorTask is the reusable pool task of factor (p is set once, by New).
type factorTask struct {
	p *Preconditioner
	a *sparse.BCSR
}

// RunShard implements par.Task: gather and factor one run of subdomains.
func (t *factorTask) RunShard(w, nw int) {
	p, a := t.p, t.a
	lo, hi := p.shard(w)
	for q := lo; q < hi; q++ {
		s := p.Subs[q]
		if len(s.Extended) == a.NB {
			s.Local = a
		} else {
			sparse.GatherBlocks(s.Local.Val, a.Val, s.src, a.B*a.B)
		}
		if s.Factor == nil {
			s.Factor, p.errs[q] = ilu.FactorNoSpan(s.Local, p.Opts.ILU)
		} else {
			p.errs[q] = s.Factor.RefactorNoSpan(s.Local)
		}
	}
}

// buildSubdomain builds one subdomain's index sets, the pattern of its
// local matrix and its work vectors; the values and the factorization
// come with the first numeric pass. mark is all -1 on entry and on return.
func buildSubdomain(a *sparse.BCSR, owned []int32, mark []int32, opts Options) (*Subdomain, error) {
	if len(owned) == 0 {
		return nil, fmt.Errorf("empty subdomain")
	}
	s := &Subdomain{Owned: owned}
	// Expand by BFS layers over the block sparsity graph.
	for _, r := range owned {
		mark[r] = 0
	}
	n := len(owned)
	frontier := owned
	for layer := 0; layer < opts.Overlap; layer++ {
		var next []int32
		for _, r := range frontier {
			for _, j := range a.ColIdx[a.RowPtr[r]:a.RowPtr[r+1]] {
				if mark[j] < 0 {
					mark[j] = 0
					next = append(next, j) //lint:alloc-ok one-time BFS overlap expansion at subdomain setup
				}
			}
		}
		n += len(next)
		frontier = next
	}
	// An ascending scan of the marks numbers the extended rows in global
	// order, so local columns come out sorted with no sort.
	s.Extended = make([]int32, 0, n)
	for r, m := range mark {
		if m >= 0 {
			mark[r] = int32(len(s.Extended))
			s.Extended = append(s.Extended, int32(r)) //lint:alloc-ok appends into exact preallocated capacity at setup
		}
	}
	s.ownedLocal = make([]int32, len(owned))
	for i, r := range owned {
		s.ownedLocal[i] = mark[r]
	}
	if len(s.Extended) == a.NB {
		// Every row of a: the subdomain's matrix is a itself — shared,
		// not copied, and Refresh re-points it instead of gathering.
		s.Local = a
	} else {
		s.extract(a, mark)
	}
	for _, r := range s.Extended {
		mark[r] = -1
	}
	s.rhs = make([]float64, len(s.Extended)*a.B)
	s.sol = make([]float64, len(s.Extended)*a.B)
	return s, nil
}

// extract builds the pattern of the rows and columns of a that lie in
// Extended (mark holds their local indices, -1 elsewhere) as a new Local,
// keeping in src the index of each local block's source in a.
func (s *Subdomain) extract(a *sparse.BCSR, mark []int32) {
	nnzb := 0
	for _, r := range s.Extended {
		for _, j := range a.ColIdx[a.RowPtr[r]:a.RowPtr[r+1]] {
			if mark[j] >= 0 {
				nnzb++
			}
		}
	}
	rowPtr := make([]int32, len(s.Extended)+1)
	colIdx := make([]int32, 0, nnzb)
	s.src = make([]int32, 0, nnzb)
	for li, r := range s.Extended {
		for k := a.RowPtr[r]; k < a.RowPtr[r+1]; k++ {
			if lj := mark[a.ColIdx[k]]; lj >= 0 {
				colIdx = append(colIdx, lj) //lint:alloc-ok appends into exact preallocated capacity at setup
				s.src = append(s.src, k)    //lint:alloc-ok appends into exact preallocated capacity at setup
			}
		}
		rowPtr[li+1] = int32(len(colIdx))
	}
	s.Local = &sparse.BCSR{NB: len(s.Extended), B: a.B, RowPtr: rowPtr, ColIdx: colIdx, Val: make([]float64, nnzb*a.B*a.B)}
}

// refreshBytes is the value-copy traffic of one New or Refresh: the
// blocks each copied Local gathers from the global matrix. (A shared
// Local has no src, and the subdomains a failed New never built are nil:
// neither copied anything.)
func (p *Preconditioner) refreshBytes() int64 {
	nnzb := 0
	for _, s := range p.Subs {
		if s != nil {
			nnzb += len(s.src)
		}
	}
	return sparse.GatherBlocksBytes(nnzb, p.B)
}

// whole returns the one subdomain when it is the whole matrix — a single
// part owns every row, so restriction and prolongation are the identity
// — and nil otherwise.
func (p *Preconditioner) whole() *Subdomain {
	if len(p.Subs) == 1 && len(p.Subs[0].Owned) == p.NB {
		return p.Subs[0]
	}
	return nil
}

// applyCopyBytes is the restrict/prolong copy traffic of one
// preconditioner application: 32 bytes per owned scalar (zero-fill and
// accumulate of z, gather of r into the subdomain workspaces); none when
// the one subdomain is the whole matrix and r is solved straight into z.
func (p *Preconditioner) applyCopyBytes() int64 {
	if p.whole() != nil {
		return 0
	}
	return int64(32 * p.NB * p.B)
}

// Apply implements krylov.Preconditioner: z = M⁻¹ r via independent
// subdomain solves, restricted prolongation (owned unknowns only). r and
// z may not alias.
func (p *Preconditioner) Apply(r, z []float64) {
	sp := prof.Begin(prof.PhasePCApply)
	// Restrict/prolong copy traffic; the triangular solves report their
	// own flops and bytes.
	defer sp.End(0, p.applyCopyBytes())
	if s := p.whole(); s != nil {
		// The restriction of r is r and the solve's every row is owned:
		// the same solve, without the copies around it.
		s.Factor.SolvePar(p.Opts.Pool, r, z)
		return
	}
	zs := z[:p.NB*p.B]
	for i := range zs {
		zs[i] = 0
	}
	t := &p.applyT
	t.r, t.z = r, z
	if pool := p.subdomainPool(); pool != nil {
		// Workers open no spans: this one carries every subdomain's solve.
		tri := prof.Begin(prof.PhaseTriSolve)
		prof.NoteThreads(prof.PhaseTriSolve, pool.Workers())
		pool.Run(t)
		tri.End(p.SolveFlops(), p.SolveBytes())
	} else {
		t.RunShard(0, 1)
	}
	t.r, t.z = nil, nil
}

// applyTask is the reusable pool task of Apply (p is set once, by New).
type applyTask struct {
	p    *Preconditioner
	r, z []float64
}

// RunShard implements par.Task: restrict, solve and prolong one run of
// subdomains. Each subdomain writes its own work vectors and its owned
// rows of z, which no other subdomain owns. On a worker the solve is the
// sequential one, span-free; on the caller of an unthreaded run it is
// SolvePar, which level-schedules across a pool with more workers than
// there are subdomains and is Solve otherwise.
func (t *applyTask) RunShard(w, nw int) {
	p, r, z := t.p, t.r, t.z
	b := p.B
	lo, hi := p.shard(w)
	for _, s := range p.Subs[lo:hi] {
		for li, gr := range s.Extended {
			copy(s.rhs[li*b:li*b+b], r[int(gr)*b:int(gr)*b+b]) //lint:bce-ok restrict gathers through the subdomain row list; both offsets are data-dependent
		}
		if p.bounds != nil {
			s.Factor.SolveNoSpan(s.rhs, s.sol)
		} else {
			s.Factor.SolvePar(p.Opts.Pool, s.rhs, s.sol)
		}
		ownedLocal := s.ownedLocal[:len(s.Owned)]
		for i, gr := range s.Owned {
			li := int(ownedLocal[i])
			copy(z[int(gr)*b:int(gr)*b+b], s.sol[li*b:li*b+b]) //lint:bce-ok prolong scatters through the owned row list and its local index list; both offsets are data-dependent
		}
	}
}

// GhostRows returns the number of non-owned block rows a subdomain reads
// (its overlap region) — communication volume for the cost model.
func (s *Subdomain) GhostRows() int { return len(s.Extended) - len(s.Owned) }

// SolveFlops returns the floating-point work of one subdomain apply.
func (s *Subdomain) SolveFlops() int64 { return s.Factor.SolveFlops() }

// SolveBytes returns the memory traffic of one subdomain apply.
func (s *Subdomain) SolveBytes() int64 { return s.Factor.SolveBytes() }

// SolveFlops returns the floating-point work of one Apply's triangular
// solves, summed over the subdomains.
func (p *Preconditioner) SolveFlops() int64 {
	var n int64
	for _, s := range p.Subs {
		n += s.SolveFlops()
	}
	return n
}

// SolveBytes returns the memory traffic of one Apply's triangular solves.
func (p *Preconditioner) SolveBytes() int64 {
	var n int64
	for _, s := range p.Subs {
		n += s.SolveBytes()
	}
	return n
}

// FactorFlops returns the floating-point work of one numeric pass over
// the subdomains factored so far (all of them, outside a failed New).
func (p *Preconditioner) FactorFlops() int64 {
	var n int64
	for _, s := range p.Subs {
		if s.Factor != nil {
			n += s.Factor.FactorFlops()
		}
	}
	return n
}

// FactorBytes returns the memory traffic of one numeric pass.
func (p *Preconditioner) FactorBytes() int64 {
	var n int64
	for _, s := range p.Subs {
		if s.Factor != nil {
			n += s.Factor.FactorBytes()
		}
	}
	return n
}

// FactorBlocks returns the number of stored blocks across all subdomain
// factors (the preconditioner's memory footprint).
func (p *Preconditioner) FactorBlocks() int {
	n := 0
	for _, s := range p.Subs {
		n += s.Factor.NNZBlocks()
	}
	return n
}
