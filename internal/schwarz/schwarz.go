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
	// Pool is the node-level worker pool for the level-scheduled
	// subdomain triangular solves; nil solves sequentially. A non-nil
	// pool serves one solve at a time, so concurrent ApplySubdomain
	// calls (the virtual machine's per-rank accounting) require nil.
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
// partitioned global block matrix.
type Preconditioner struct {
	NB   int
	B    int
	Opts Options
	Subs []*Subdomain

	pattern sparse.Pattern // of the matrix New analysed
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
	p := &Preconditioner{NB: a.NB, B: a.B, Opts: opts, Subs: make([]*Subdomain, nparts)}
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
	return p, nil
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
	for q, s := range p.Subs {
		if len(s.Extended) == a.NB {
			s.Local = a
		} else {
			sparse.GatherBlocks(s.Local.Val, a.Val, s.src, a.B*a.B)
		}
		if err := s.Factor.Refactor(s.Local); err != nil {
			return fmt.Errorf("schwarz: subdomain %d: %w", q, err)
		}
	}
	return nil
}

// buildSubdomain runs the symbolic analysis of one subdomain and its
// first numeric pass. mark is all -1 on entry and on return.
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
	var err error
	s.Factor, err = ilu.Factor(s.Local, opts.ILU)
	if err != nil {
		return nil, err
	}
	s.rhs = make([]float64, len(s.Extended)*a.B)
	s.sol = make([]float64, len(s.Extended)*a.B)
	return s, nil
}

// extract copies the rows and columns of a that lie in Extended (mark
// holds their local indices, -1 elsewhere) into a new Local, keeping in
// src the index of each local block's source in a.
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
	bb := a.B * a.B
	s.Local = &sparse.BCSR{NB: len(s.Extended), B: a.B, RowPtr: rowPtr, ColIdx: colIdx, Val: make([]float64, nnzb*bb)}
	sparse.GatherBlocks(s.Local.Val, a.Val, s.src, bb)
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

// applyCopyBytes is the restrict/prolong copy traffic of one
// preconditioner application: 32 bytes per owned scalar (zero-fill and
// accumulate of z, gather of r into the subdomain workspaces).
func (p *Preconditioner) applyCopyBytes() int64 { return int64(32 * p.NB * p.B) }

// Apply implements krylov.Preconditioner: z = M⁻¹ r via independent
// subdomain solves, restricted prolongation (owned unknowns only).
func (p *Preconditioner) Apply(r, z []float64) {
	sp := prof.Begin(prof.PhasePCApply)
	// Restrict/prolong copy traffic; the triangular solves inside report
	// their own flops and bytes.
	defer sp.End(0, p.applyCopyBytes())
	zs := z[:p.NB*p.B]
	for i := range zs {
		zs[i] = 0
	}
	for _, s := range p.Subs {
		p.ApplySubdomain(s, r, z)
	}
}

// ApplySubdomain performs one subdomain's restrict-solve-prolong. It is
// exposed so the virtual machine can account each subdomain's work to
// its rank; subdomains touch disjoint owned entries of z, so concurrent
// calls on distinct subdomains are safe when z is shared.
func (p *Preconditioner) ApplySubdomain(s *Subdomain, r, z []float64) {
	b := p.B
	for li, gr := range s.Extended {
		copy(s.rhs[li*b:li*b+b], r[int(gr)*b:int(gr)*b+b]) //lint:bce-ok restrict gathers through the subdomain row list; both offsets are data-dependent
	}
	s.Factor.SolvePar(p.Opts.Pool, s.rhs, s.sol)
	ownedLocal := s.ownedLocal[:len(s.Owned)]
	for i, gr := range s.Owned {
		li := int(ownedLocal[i])
		copy(z[int(gr)*b:int(gr)*b+b], s.sol[li*b:li*b+b]) //lint:bce-ok prolong scatters through the owned row list and its local index list; both offsets are data-dependent
	}
}

// GhostRows returns the number of non-owned block rows a subdomain reads
// (its overlap region) — communication volume for the cost model.
func (s *Subdomain) GhostRows() int { return len(s.Extended) - len(s.Owned) }

// SolveFlops returns the floating-point work of one subdomain apply.
func (s *Subdomain) SolveFlops() int64 { return s.Factor.SolveFlops() }

// SolveBytes returns the memory traffic of one subdomain apply.
func (s *Subdomain) SolveBytes() int64 { return s.Factor.SolveBytes() }

// FactorBlocks returns the number of stored blocks across all subdomain
// factors (the preconditioner's memory footprint).
func (p *Preconditioner) FactorBlocks() int {
	n := 0
	for _, s := range p.Subs {
		n += s.Factor.NNZBlocks()
	}
	return n
}
