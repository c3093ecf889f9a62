// Package ilu implements block incomplete LU factorization with level-of-
// fill control — ILU(k) — on block CSR matrices, the subdomain solver of
// the paper's additive Schwarz preconditioner (Tables 1, 3, 4), plus the
// single-precision storage variant whose bandwidth savings Table 2
// measures. Factorization and solves operate on B×B blocks; all
// arithmetic is float64 even when storage is float32.
package ilu

import (
	"fmt"
	"math"

	"petscfun3d/internal/prof"
	"petscfun3d/internal/sparse"
)

// Layout is the order the factor blocks are stored in — the order the
// triangular solves read them. Blocks are numbered through one value
// array (block k's B² scalars start at k·B²) holding two streams: first
// the L blocks of rows 0…NB-1, row i's being LPtr[i]…LPtr[i+1]-1; then
// the U blocks of rows NB-1…0, row i's being UPtr[i+1]…UPtr[i]-2 with
// its inverted diagonal block after them at UPtr[i]-1 (UPtr descends
// from the block count at row 0 to the L block count at row NB). The
// forward sweep is one ascending pass over the first stream, the
// backward sweep one over the second. Within a row blocks ascend by
// column; Col[k] is block k's column (its own row for a diagonal).
type Layout struct {
	LPtr, UPtr, Col []int32
}

// Factorization holds the L and U factors of a block ILU(k)
// factorization. L has implicit identity diagonal blocks; U's diagonal
// blocks are stored inverted.
type Factorization struct {
	NB    int
	B     int
	Level int
	Layout

	// val64 is the elimination array, always float64. With single-
	// precision storage it stays behind as Refactor's work array and the
	// solves read val32, its element-wise rounding (non-nil exactly then).
	val64 []float64
	val32 []float32

	// Numeric-refresh state, built once by Factor from the pattern it
	// analysed: aSlot[k] is the factor block that A's block k is copied
	// into, fillSlots the factor blocks A does not cover (zeroed before
	// each elimination). slot is the dense per-row work array of the IKJ
	// elimination — slot[j] is the block of column j in the row being
	// eliminated, -1 elsewhere, and all -1 between calls — and aug the
	// augmented block of the pivot inversion.
	pattern   sparse.Pattern
	aSlot     []int32
	fillSlots []int32
	slot      []int32
	aug       []float64

	// Level-set schedule of the triangular solves (levels.go): block
	// rows grouped by dependency depth in the L (forward) and U
	// (backward) DAGs, computed once per factorization from the symbolic
	// pattern. Level l's rows are fwdRows[fwdPtr[l]:fwdPtr[l+1]]
	// (ascending within each level); rows of one level depend only on
	// rows of earlier levels, so a level can run on the worker pool.
	fwdRows, bwdRows []int32
	fwdPtr, bwdPtr   []int32

	// tmp is backwardN's diagonal-multiply temporary, B scalars per pool
	// worker (the sequential solve is worker 0).
	tmp  []float64
	task triTask
}

// Options configures a factorization.
type Options struct {
	// Level is the fill level k of ILU(k): 0 keeps the sparsity of A.
	Level int
	// SinglePrecision stores the factors in float32 (half the memory
	// traffic in the bandwidth-bound triangular solves).
	SinglePrecision bool
}

// NNZBlocks returns the number of stored blocks in the factors.
func (f *Factorization) NNZBlocks() int { return len(f.Col) }

// BytesPerValue returns 4 or 8 according to the storage precision.
func (f *Factorization) BytesPerValue() int {
	if f.val32 != nil {
		return 4
	}
	return 8
}

// FactorFlopsFor estimates the floating-point work of factoring nnzb
// stored blocks of size b: each block participates in O(1) block-block
// multiplies of 2b³ flops. Shared between the measured profiler and the
// virtual-machine cost model (internal/core).
func FactorFlopsFor(nnzb, b int) int64 {
	return 2 * int64(nnzb) * int64(b) * int64(b) * int64(b)
}

// FactorBytesFor estimates factorization traffic: each stored block read
// and written a small constant number of times at valBytes per scalar.
func FactorBytesFor(nnzb, b, valBytes int) int64 {
	return 3 * int64(nnzb) * int64(b) * int64(b) * int64(valBytes)
}

// FactorFlops estimates the floating-point work of this factorization.
func (f *Factorization) FactorFlops() int64 {
	return FactorFlopsFor(len(f.Col), f.B)
}

// FactorBytes estimates this factorization's memory traffic.
func (f *Factorization) FactorBytes() int64 {
	return FactorBytesFor(len(f.Col), f.B, f.BytesPerValue())
}

// Factor computes the block ILU(k) factorization of a: the symbolic
// analysis (fill pattern, level-set schedule, A→factor copy index) and
// one numeric pass. When a's values change on the same pattern, Refactor
// repeats the numeric pass alone.
func Factor(a *sparse.BCSR, opts Options) (*Factorization, error) {
	sp := prof.Begin(prof.PhaseILUFactor)
	f, err := FactorNoSpan(a, opts)
	if err != nil {
		sp.End(0, 0)
		return nil, err
	}
	sp.End(f.FactorFlops(), f.FactorBytes())
	return f, nil
}

// FactorNoSpan, RefactorNoSpan and SolveNoSpan are Factor, Refactor and
// Solve without their profiler span — for a pool task's workers, which
// may not open spans (package prof): the goroutine that calls Run opens
// one span around it and charges the FactorFlops/FactorBytes or
// SolveFlops/SolveBytes of everything the task ran.
func FactorNoSpan(a *sparse.BCSR, opts Options) (*Factorization, error) {
	if opts.Level < 0 {
		return nil, fmt.Errorf("ilu: negative fill level %d", opts.Level)
	}
	f := &Factorization{NB: a.NB, B: a.B, Level: opts.Level}
	if err := f.symbolic(a, opts.Level); err != nil {
		return nil, err
	}
	f.buildLevels()
	if err := f.indexValues(a); err != nil {
		return nil, err
	}
	f.val64 = make([]float64, len(f.Col)*a.B*a.B)
	if opts.SinglePrecision {
		f.val32 = make([]float32, len(f.val64))
	}
	if err := f.numeric(a); err != nil {
		return nil, err
	}
	return f, nil
}

// Refactor recomputes the factors from a, which must have exactly the
// sparsity pattern Factor analysed (anything else is an error and
// leaves the factors untouched). Every stored value is overwritten —
// fill blocks zeroed, A copied in, then eliminated — so the result is
// bitwise the one a fresh Factor(a) computes, whatever the previous
// call left behind; nothing is allocated. After an error (a singular
// pivot block) the factors are undefined until a later Refactor
// succeeds.
func (f *Factorization) Refactor(a *sparse.BCSR) error {
	sp := prof.Begin(prof.PhaseILUFactor)
	defer sp.End(f.FactorFlops(), f.FactorBytes())
	return f.RefactorNoSpan(a)
}

// RefactorNoSpan is Refactor for a pool task's workers (see FactorNoSpan).
func (f *Factorization) RefactorNoSpan(a *sparse.BCSR) error {
	if err := f.pattern.Check(a); err != nil {
		return fmt.Errorf("ilu: refactor: %w", err)
	}
	return f.numeric(a)
}

// symbolic computes the ILU(k) fill pattern by the standard level-of-fill
// recurrence: lev(i,j) = min over pivots p of lev(i,p)+lev(p,j)+1, kept
// when ≤ k. Row patterns are computed in ascending row order so that
// earlier (already-final) rows drive fill in later ones.
func (f *Factorization) symbolic(a *sparse.BCSR, level int) error {
	nb := a.NB
	rowCols := make([][]int32, nb)
	rowLevs := make([][]int32, nb)
	// Dense workspace for the current row.
	lev := make([]int32, nb)
	inRow := make([]bool, nb)
	for i := 0; i < nb; i++ {
		// Seed with A's row i (level 0) plus the diagonal.
		cols := make([]int32, 0, int(a.RowPtr[i+1]-a.RowPtr[i])+1) //lint:alloc-ok per-factorization symbolic analysis; the fill pattern is being discovered
		for _, j := range a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]] {
			cols = append(cols, j) //lint:alloc-ok per-factorization symbolic fill discovery
			lev[j] = 0
			inRow[j] = true
		}
		if !inRow[i] {
			cols = append(cols, int32(i)) //lint:alloc-ok per-factorization symbolic fill discovery
			lev[i] = 0
			inRow[i] = true
		}
		// Eliminate pivots p < i in ascending order: collect the current
		// lower-diagonal columns, sort, and process each once. Fill
		// columns discovered during processing that are still below the
		// diagonal are inserted into the pending list in order, so every
		// pivot is processed exactly once, ascending.
		lower := make([]int32, 0, len(cols)) //lint:alloc-ok per-factorization symbolic pivot list
		for _, j := range cols {
			if j < int32(i) {
				lower = append(lower, j) //lint:alloc-ok per-factorization symbolic pivot list
			}
		}
		sortInt32(lower)
		for li := 0; li < len(lower); li++ {
			p := lower[li]
			levIP := lev[p]
			for t, j := range rowCols[p] {
				if j <= p {
					continue
				}
				through := levIP + rowLevs[p][t] + 1
				if through > int32(level) {
					continue
				}
				if !inRow[j] {
					inRow[j] = true
					lev[j] = through
					cols = append(cols, j) //lint:alloc-ok per-factorization symbolic fill discovery
					if j < int32(i) {
						// Insert into the pending pivot list, keeping order.
						lower = insertSorted(lower, li+1, j)
					}
				} else if through < lev[j] {
					lev[j] = through
				}
			}
		}
		sortInt32(cols)
		levs := make([]int32, len(cols)) //lint:alloc-ok per-factorization symbolic row levels
		for t, j := range cols {
			levs[t] = lev[j]
			inRow[j] = false
		}
		rowCols[i] = cols
		rowLevs[i] = levs
	}
	// Assemble the solve-order layout: row i's lower columns into the L
	// stream at its ascending position, its upper columns and then the
	// diagonal into the U stream at its descending one.
	f.LPtr = make([]int32, nb+1)
	f.UPtr = make([]int32, nb+1)
	for i := 0; i < nb; i++ {
		t := 0
		for t < len(rowCols[i]) && rowCols[i][t] < int32(i) {
			t++
		}
		if t == len(rowCols[i]) || rowCols[i][t] != int32(i) {
			return fmt.Errorf("ilu: row %d lost its diagonal", i)
		}
		f.LPtr[i+1] = f.LPtr[i] + int32(t)
	}
	f.UPtr[nb] = f.LPtr[nb]
	for i := nb - 1; i >= 0; i-- {
		f.UPtr[i] = f.UPtr[i+1] + int32(len(rowCols[i])) - (f.LPtr[i+1] - f.LPtr[i])
	}
	f.Col = make([]int32, f.UPtr[0])
	for i := 0; i < nb; i++ {
		t := f.LPtr[i+1] - f.LPtr[i] // position of the diagonal in rowCols[i]
		copy(f.Col[f.LPtr[i]:], rowCols[i][:t])
		copy(f.Col[f.UPtr[i+1]:], rowCols[i][t+1:])
		f.Col[f.UPtr[i]-1] = int32(i)
	}
	return nil
}

func sortInt32(s []int32) {
	for i := 1; i < len(s); i++ {
		for k := i; k > 0 && s[k] < s[k-1]; k-- {
			s[k], s[k-1] = s[k-1], s[k]
		}
	}
}

// insertSorted inserts v into s keeping positions >= from sorted.
func insertSorted(s []int32, from int, v int32) []int32 {
	s = append(s, 0)
	k := len(s) - 1
	for k > from && s[k-1] > v {
		s[k] = s[k-1]
		k--
	}
	s[k] = v
	return s
}

// rowSegments returns row i's blocks as three block ranges in ascending
// column order: its L blocks, its diagonal, its U blocks.
func (f *Factorization) rowSegments(i int) [3][2]int32 {
	kd := f.UPtr[i] - 1
	return [3][2]int32{{f.LPtr[i], f.LPtr[i+1]}, {kd, kd + 1}, {f.UPtr[i+1], kd}}
}

// indexValues builds the numeric pass's copy index by walking each
// factor row against A's row (both ascending): a factor block either
// receives an A block or is fill.
func (f *Factorization) indexValues(a *sparse.BCSR) error {
	if len(a.ColIdx) > len(f.Col) {
		return fmt.Errorf("ilu: matrix stores %d blocks, its fill pattern only %d", len(a.ColIdx), len(f.Col))
	}
	f.pattern = sparse.PatternOf(a)
	f.aSlot = make([]int32, len(a.ColIdx))
	f.fillSlots = make([]int32, 0, len(f.Col)-len(a.ColIdx))
	for i := 0; i < f.NB; i++ {
		ka, aEnd := a.RowPtr[i], a.RowPtr[i+1]
		for _, seg := range f.rowSegments(i) {
			for k := seg[0]; k < seg[1]; k++ {
				if ka < aEnd && a.ColIdx[ka] == f.Col[k] {
					f.aSlot[ka] = k
					ka++
				} else {
					f.fillSlots = append(f.fillSlots, k) //lint:alloc-ok appends into capacity preallocated to the exact fill count
				}
			}
		}
		if ka != aEnd {
			return fmt.Errorf("ilu: pattern lost entry (%d,%d)", i, a.ColIdx[ka])
		}
	}
	f.slot = make([]int32, f.NB)
	for i := range f.slot {
		f.slot[i] = -1
	}
	f.aug = make([]float64, 2*f.B*f.B)
	f.tmp = make([]float64, f.B)
	return nil
}

// numeric loads a's values into the fill pattern and performs the block
// IKJ elimination in place, directly in the solve-order storage — the
// one numeric path behind both Factor and Refactor.
func (f *Factorization) numeric(a *sparse.BCSR) error {
	b := f.B
	bb := b * b
	val, slot := f.val64, f.slot
	col, lPtr, uPtr := f.Col, f.LPtr, f.UPtr
	for _, k := range f.fillSlots {
		clear(val[int(k)*bb : int(k)*bb+bb]) //lint:bce-ok fill block offset comes from the precomputed index list
	}
	for k, dst := range f.aSlot {
		copy(val[int(dst)*bb:int(dst)*bb+bb], a.Val[k*bb:k*bb+bb]) //lint:bce-ok scatter through the precomputed A→factor copy index
	}
	for i := 0; i < f.NB; i++ {
		lower := col[lPtr[i]:lPtr[i+1]]
		upper := col[uPtr[i+1]:uPtr[i]] // the U blocks, then the diagonal
		kd := int(uPtr[i]) - 1
		for t, j := range lower {
			slot[j] = lPtr[i] + int32(t) //lint:bce-ok dense work array indexed by block column
		}
		for t, j := range upper {
			slot[j] = uPtr[i+1] + int32(t) //lint:bce-ok dense work array indexed by block column
		}
		for t, pc := range lower {
			p, kip := int(pc), int(lPtr[i])+t
			// A_ip *= invU_pp, in place; row p's inverse sits after its U
			// blocks. (aug is free until the pivot inversion below.)
			uLo, pd := int(uPtr[p+1]), int(uPtr[p])-1
			factor := val[kip*bb : kip*bb+bb]
			mulRight(factor, val[pd*bb:pd*bb+bb], f.aug, b)
			// Row update: A_ij -= A_ip * U_pj for j > p in row p.
			for kp := uLo; kp < pd; kp++ {
				dst := int(slot[col[kp]]) //lint:bce-ok dense work array indexed by block column
				if dst < 0 {
					continue // fill dropped by the level rule
				}
				mulSub(val[dst*bb:dst*bb+bb], factor, val[kp*bb:kp*bb+bb], b) //lint:bce-ok block offsets are data-dependent through the pattern
			}
		}
		// The pivot block is inverted where the backward sweep reads it.
		diag := val[kd*bb : kd*bb+bb]
		err := invertBlock(diag, diag, b, f.aug)
		for _, j := range lower {
			slot[j] = -1 //lint:bce-ok dense work array indexed by block column
		}
		for _, j := range upper {
			slot[j] = -1 //lint:bce-ok dense work array indexed by block column
		}
		if err != nil {
			return fmt.Errorf("ilu: singular pivot block at row %d: %w", i, err) //lint:escape-ok cold error exit: the row index is boxed only when the factorization fails
		}
	}
	if f.val32 != nil {
		v32 := f.val32[:len(val)]
		for i, v := range val {
			v32[i] = float32(v)
		}
	}
	return nil
}

// mulSub computes c -= a*b for row-major n×n blocks. Each entry's
// product sum is accumulated from zero in ascending k and subtracted
// once — exactly a matMul into a temporary followed by a subtraction,
// without the temporary. Unrolled kernels handle the paper's block
// sizes (4 incompressible, 5 compressible).
func mulSub(c, a, b []float64, n int) {
	switch n {
	case 4:
		mulSub4(c, a, b)
	case 5:
		mulSub5(c, a, b)
	default:
		mulSubGeneric(c, a, b, n)
	}
}

func mulSubGeneric(c, a, b []float64, n int) {
	for i := 0; i < n; i++ {
		ai := a[i*n : i*n+n]
		ci := c[i*n : i*n+n]
		for j := range ci {
			var s float64
			for k, w := range ai {
				s += w * b[k*n+j] //lint:bce-ok strided walk down column j of b; k*n+j < n*n relates three lengths the prover cannot carry
			}
			ci[j] -= s
		}
	}
}

// mulSub4 holds b in registers and handles one row of a and c per
// iteration, every sum still accumulated from zero in ascending k.
func mulSub4(c, a, b []float64) {
	c, a, b = c[:16:16], a[:16:16], b[:16:16]
	b00, b01, b02, b03 := b[0], b[1], b[2], b[3]
	b10, b11, b12, b13 := b[4], b[5], b[6], b[7]
	b20, b21, b22, b23 := b[8], b[9], b[10], b[11]
	b30, b31, b32, b33 := b[12], b[13], b[14], b[15]
	for i := 0; i <= 12; i += 4 {
		a0, a1, a2, a3 := a[i], a[i+1], a[i+2], a[i+3]
		var s0, s1, s2, s3 float64
		s0 += a0 * b00
		s1 += a0 * b01
		s2 += a0 * b02
		s3 += a0 * b03
		s0 += a1 * b10
		s1 += a1 * b11
		s2 += a1 * b12
		s3 += a1 * b13
		s0 += a2 * b20
		s1 += a2 * b21
		s2 += a2 * b22
		s3 += a2 * b23
		s0 += a3 * b30
		s1 += a3 * b31
		s2 += a3 * b32
		s3 += a3 * b33
		c[i] -= s0
		c[i+1] -= s1
		c[i+2] -= s2
		c[i+3] -= s3
	}
}

func mulSub5(c, a, b []float64) {
	c, a, b = c[:25:25], a[:25:25], b[:25:25]
	for i := 0; i <= 20; i += 5 {
		a0, a1, a2, a3, a4 := a[i], a[i+1], a[i+2], a[i+3], a[i+4]
		var s0, s1, s2, s3, s4 float64
		s0 += a0 * b[0]
		s1 += a0 * b[1]
		s2 += a0 * b[2]
		s3 += a0 * b[3]
		s4 += a0 * b[4]
		s0 += a1 * b[5]
		s1 += a1 * b[6]
		s2 += a1 * b[7]
		s3 += a1 * b[8]
		s4 += a1 * b[9]
		s0 += a2 * b[10]
		s1 += a2 * b[11]
		s2 += a2 * b[12]
		s3 += a2 * b[13]
		s4 += a2 * b[14]
		s0 += a3 * b[15]
		s1 += a3 * b[16]
		s2 += a3 * b[17]
		s3 += a3 * b[18]
		s4 += a3 * b[19]
		s0 += a4 * b[20]
		s1 += a4 * b[21]
		s2 += a4 * b[22]
		s3 += a4 * b[23]
		s4 += a4 * b[24]
		c[i] -= s0
		c[i+1] -= s1
		c[i+2] -= s2
		c[i+3] -= s3
		c[i+4] -= s4
	}
}

// mulRight computes a = a*b in place for row-major n×n blocks, every
// entry's product sum accumulated from +0 in ascending k — matMul's
// order, so the result is bitwise matMul's. Row i of the product reads
// row i of a only, which is what lets the written-out kernels overwrite
// a row by row; other sizes go through matMul into scratch (n² scalars).
func mulRight(a, b, scratch []float64, n int) {
	switch n {
	case 4:
		mulRight4(a, b)
	case 5:
		mulRight5(a, b)
	default:
		matMul(a, b, scratch, n)
		copy(a, scratch[:n*n])
	}
}

func mulRight4(a, b []float64) {
	a, b = a[:16:16], b[:16:16]
	b00, b01, b02, b03 := b[0], b[1], b[2], b[3]
	b10, b11, b12, b13 := b[4], b[5], b[6], b[7]
	b20, b21, b22, b23 := b[8], b[9], b[10], b[11]
	b30, b31, b32, b33 := b[12], b[13], b[14], b[15]
	for i := 0; i <= 12; i += 4 {
		a0, a1, a2, a3 := a[i], a[i+1], a[i+2], a[i+3]
		var s0, s1, s2, s3 float64
		s0 += a0 * b00
		s1 += a0 * b01
		s2 += a0 * b02
		s3 += a0 * b03
		s0 += a1 * b10
		s1 += a1 * b11
		s2 += a1 * b12
		s3 += a1 * b13
		s0 += a2 * b20
		s1 += a2 * b21
		s2 += a2 * b22
		s3 += a2 * b23
		s0 += a3 * b30
		s1 += a3 * b31
		s2 += a3 * b32
		s3 += a3 * b33
		a[i], a[i+1], a[i+2], a[i+3] = s0, s1, s2, s3
	}
}

func mulRight5(a, b []float64) {
	a, b = a[:25:25], b[:25:25]
	for i := 0; i <= 20; i += 5 {
		a0, a1, a2, a3, a4 := a[i], a[i+1], a[i+2], a[i+3], a[i+4]
		var s0, s1, s2, s3, s4 float64
		s0 += a0 * b[0]
		s1 += a0 * b[1]
		s2 += a0 * b[2]
		s3 += a0 * b[3]
		s4 += a0 * b[4]
		s0 += a1 * b[5]
		s1 += a1 * b[6]
		s2 += a1 * b[7]
		s3 += a1 * b[8]
		s4 += a1 * b[9]
		s0 += a2 * b[10]
		s1 += a2 * b[11]
		s2 += a2 * b[12]
		s3 += a2 * b[13]
		s4 += a2 * b[14]
		s0 += a3 * b[15]
		s1 += a3 * b[16]
		s2 += a3 * b[17]
		s3 += a3 * b[18]
		s4 += a3 * b[19]
		s0 += a4 * b[20]
		s1 += a4 * b[21]
		s2 += a4 * b[22]
		s3 += a4 * b[23]
		s4 += a4 * b[24]
		a[i], a[i+1], a[i+2], a[i+3], a[i+4] = s0, s1, s2, s3, s4
	}
}

// matMul computes c = a*b for row-major b×b blocks.
func matMul(a, b, c []float64, n int) {
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += a[i*n+k] * b[k*n+j]
			}
			c[i*n+j] = s
		}
	}
}

// invertBlock inverts the row-major n×n block src into dst (which may
// be src itself) using Gauss-Jordan with partial pivoting; aug is 2n²
// scalars of scratch for the augmented block [A | I].
func invertBlock(src, dst []float64, n int, aug []float64) error {
	w := 2 * n
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			aug[i*w+j] = src[i*n+j]
			aug[i*w+n+j] = 0
		}
		aug[i*w+n+i] = 1
	}
	for col := 0; col < n; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(aug[r*w+col]) > math.Abs(aug[piv*w+col]) {
				piv = r
			}
		}
		if math.Abs(aug[piv*w+col]) < 1e-300 {
			return fmt.Errorf("zero pivot in column %d", col)
		}
		if piv != col {
			for j := 0; j < w; j++ {
				aug[col*w+j], aug[piv*w+j] = aug[piv*w+j], aug[col*w+j]
			}
		}
		inv := 1 / aug[col*w+col]
		for j := 0; j < w; j++ {
			aug[col*w+j] *= inv
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			fac := aug[r*w+col]
			if fac == 0 {
				continue
			}
			for j := 0; j < w; j++ {
				aug[r*w+j] -= fac * aug[col*w+j]
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			dst[i*n+j] = aug[i*w+n+j]
		}
	}
	return nil
}
