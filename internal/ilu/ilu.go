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
// column; Col[k] is block k's column (its own row for a diagonal). Each
// block is stored column-major: entry (r, c) of block k is scalar
// k·B² + c·B + r, so one block column is B consecutive scalars.
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

	// The stored factors: val64 under float64 storage, val32 under float32
	// (exactly one is non-nil).
	val64 []float64
	val32 []float32

	// elim is the float64 array rows are eliminated in: row i's U blocks
	// (pivot last) sit at block uOff[i], where later rows read them, its
	// L blocks at block lPtr[i] — or, under float32 storage, at lBuf.
	// Float64 storage eliminates in place: elim is val64 and uOff is
	// UPtr[1:]. Float32 storage eliminates in a window planWindow sizes
	// from the pattern — a ring of the U segments later rows still read,
	// then one row's L blocks — and rounds each finished row into val32.
	elim []float64
	uOff []int32
	lBuf int32

	// Numeric-refresh state: the pattern Factor analysed; slot, the dense
	// per-row work array of the IKJ elimination — slot[j] is the block of
	// elim holding column j of the row being eliminated, -1 elsewhere, and
	// all -1 between calls — and aug, the augmented block of the pivot
	// inversion.
	pattern sparse.Pattern
	slot    []int32
	aug     []float64

	// ops is what one numeric pass does, counted from the pattern by
	// countOps: FactorFlops and FactorBytes charge it.
	ops factorOps

	// Level-set schedule of the triangular solves (levels.go): block
	// rows grouped by dependency depth in the L (forward) and U
	// (backward) DAGs, computed once per factorization from the symbolic
	// pattern. Level l's rows are fwdRows[fwdPtr[l]:fwdPtr[l+1]]
	// (ascending within each level); rows of one level depend only on
	// rows of earlier levels, so a level can run on the worker pool.
	fwdRows, bwdRows []int32
	fwdPtr, bwdPtr   []int32

	// tmp is the fallback kernels' row sums, B scalars per pool worker
	// (the sequential solve is worker 0).
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

// StorageBytes returns the bytes the factorization keeps for values: the
// stored factors and, under float32 storage, the elimination window.
func (f *Factorization) StorageBytes() int64 {
	if f.val32 != nil {
		return 4*int64(len(f.val32)) + 8*int64(len(f.elim))
	}
	return 8 * int64(len(f.val64))
}

// FactorFlopsFor estimates the floating-point work of factoring nnzb
// stored blocks of size b as 2b³ per block — the virtual-machine cost
// model's estimate (internal/core), which needs no pattern. A real
// factorization charges its counted FactorFlops instead.
func FactorFlopsFor(nnzb, b int) int64 {
	return 2 * int64(nnzb) * int64(b) * int64(b) * int64(b)
}

// FactorBytesFor estimates factorization traffic for the same model:
// each stored block read and written a small constant number of times
// at valBytes per scalar. A real factorization charges FactorBytes.
func FactorBytesFor(nnzb, b, valBytes int) int64 {
	return 3 * int64(nnzb) * int64(b) * int64(b) * int64(valBytes)
}

// factorOps counts the block operations of one numeric pass: the row
// updates the level rule keeps (mulSub), the L-block multiplies
// (mulRight, one per L block), the pivot inversions (one per row), and
// the blocks of A the pass loads.
type factorOps struct {
	mulSub, mulRight, invert, aBlocks int64
}

// countOps counts f.ops from the pattern alone, walking it the way
// numeric does: row i's columns are marked in slot (and unmarked after),
// and an update of row i by pivot p is kept when slot marks its column.
func (f *Factorization) countOps(aBlocks int) {
	slot, col := f.slot, f.Col
	var kept int64
	for i := 0; i < f.NB; i++ {
		lower := col[f.LPtr[i]:f.LPtr[i+1]]
		upper := col[f.UPtr[i+1]:f.UPtr[i]]
		for _, j := range lower {
			slot[j] = 0
		}
		for _, j := range upper {
			slot[j] = 0
		}
		for _, p := range lower {
			for _, j := range col[f.UPtr[p+1] : f.UPtr[p]-1] {
				if slot[j] >= 0 {
					kept++
				}
			}
		}
		for _, j := range lower {
			slot[j] = -1
		}
		for _, j := range upper {
			slot[j] = -1
		}
	}
	f.ops = factorOps{mulSub: kept, mulRight: int64(f.LPtr[f.NB]), invert: int64(f.NB), aBlocks: int64(aBlocks)}
}

// FactorFlops is the floating-point work of one numeric pass, counted:
// each kept row update (mulSub) 2b³ + b² flops — b² sums of b products
// accumulated from +0, each subtracted once — each L-block multiply
// (mulRight) 2b³, and each pivot inversion 4b³ − 2b² + b, its full
// Gauss–Jordan sweep over the b × 2b augmented block (per column one
// reciprocal, 2b scalings and 2b multiply-subtracts in each other row;
// a row skipped because its multiplier is zero is charged all the same).
func (f *Factorization) FactorFlops() int64 {
	b := int64(f.B)
	return f.ops.mulSub*(2*b*b*b+b*b) + f.ops.mulRight*2*b*b*b + f.ops.invert*(4*b*b*b-2*b*b+b)
}

// FactorBytes is the memory traffic of one numeric pass: A's values read
// at 8 bytes a scalar, the factors written at BytesPerValue, and the
// index arrays read once each at 4 bytes an entry — A's RowPtr and
// ColIdx, the layout's Col, LPtr and UPtr. The U rows an update reads
// again and the float32 window are cache traffic and not charged.
func (f *Factorization) FactorBytes() int64 {
	bb := int64(f.B * f.B)
	index := f.ops.aBlocks + int64(f.NB+1) + int64(len(f.Col)) + 2*int64(f.NB+1)
	return 8*f.ops.aBlocks*bb + int64(f.BytesPerValue())*int64(len(f.Col))*bb + 4*index
}

// Factor computes the block ILU(k) factorization of a: the symbolic
// analysis (fill pattern, level-set schedule and, under float32 storage,
// the elimination window) and one numeric pass. When a's values change
// on the same pattern, Refactor repeats the numeric pass alone.
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
	f.pattern = sparse.PatternOf(a)
	f.slot = make([]int32, f.NB)
	for i := range f.slot {
		f.slot[i] = -1
	}
	f.aug = make([]float64, 2*f.B*f.B)
	f.tmp = make([]float64, f.B)
	f.countOps(len(a.ColIdx))
	n := len(f.Col) * a.B * a.B
	if opts.SinglePrecision {
		f.val32 = make([]float32, n)
		f.planWindow()
	} else {
		f.val64 = make([]float64, n)
		f.elim, f.uOff = f.val64, f.UPtr[1:]
	}
	if err := f.numeric(a); err != nil {
		return nil, err
	}
	return f, nil
}

// Refactor recomputes the factors from a, which must have exactly the
// sparsity pattern Factor analysed (anything else is an error and
// leaves the factors untouched). Every stored value is overwritten —
// row by row: fill blocks zeroed, A copied in, then eliminated — so the
// result is bitwise the one a fresh Factor(a) computes, whatever the
// previous call left behind; nothing is allocated. After an error (a
// singular pivot block) the factors are undefined until a later
// Refactor succeeds.
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
	// Row i's columns, ascending, are cols[ptr[i]:ptr[i+1]], their fill
	// levels the same range of levs: two arenas that grow with the fill,
	// from room for A and its diagonal once per level (exact at level 0).
	ptr := make([]int32, nb+1)
	room := min((level+1)*len(a.ColIdx)+nb, nb*nb)
	cols := make([]int32, 0, room)
	levs := make([]int32, 0, room)
	var lower []int32 // the current row's pending pivots, reused
	// Dense workspace for the current row.
	lev := make([]int32, nb)
	inRow := make([]bool, nb)
	for i := 0; i < nb; i++ {
		// Seed with A's row i (level 0) plus the diagonal.
		start := len(cols)
		for _, j := range a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]] {
			cols = append(cols, j)
			lev[j] = 0
			inRow[j] = true
		}
		if !inRow[i] {
			cols = append(cols, int32(i))
			lev[i] = 0
			inRow[i] = true
		}
		// Eliminate pivots p < i in ascending order: collect the current
		// lower-diagonal columns, sort, and process each once. Fill
		// columns discovered during processing that are still below the
		// diagonal are inserted into the pending list in order, so every
		// pivot is processed exactly once, ascending.
		lower = lower[:0]
		for _, j := range cols[start:] {
			if j < int32(i) {
				lower = append(lower, j)
			}
		}
		sortInt32(lower)
		for li := 0; li < len(lower); li++ {
			p := lower[li]
			levIP := lev[p]
			for t := ptr[p]; t < ptr[p+1]; t++ {
				j := cols[t]
				if j <= p {
					continue
				}
				through := levIP + levs[t] + 1
				if through > int32(level) {
					continue
				}
				if !inRow[j] {
					inRow[j] = true
					lev[j] = through
					cols = append(cols, j)
					if j < int32(i) {
						// Insert into the pending pivot list, keeping order.
						lower = insertSorted(lower, li+1, j)
					}
				} else if through < lev[j] {
					lev[j] = through
				}
			}
		}
		sortInt32(cols[start:])
		for _, j := range cols[start:] {
			levs = append(levs, lev[j])
			inRow[j] = false
		}
		ptr[i+1] = int32(len(cols))
	}
	// Assemble the solve-order layout: row i's lower columns into the L
	// stream at its ascending position, its upper columns and then the
	// diagonal into the U stream at its descending one.
	f.LPtr = make([]int32, nb+1)
	f.UPtr = make([]int32, nb+1)
	for i := 0; i < nb; i++ {
		row := cols[ptr[i]:ptr[i+1]]
		t := 0
		for t < len(row) && row[t] < int32(i) {
			t++
		}
		if t == len(row) || row[t] != int32(i) {
			return fmt.Errorf("ilu: row %d lost its diagonal", i)
		}
		f.LPtr[i+1] = f.LPtr[i] + int32(t)
	}
	f.UPtr[nb] = f.LPtr[nb]
	for i := nb - 1; i >= 0; i-- {
		f.UPtr[i] = f.UPtr[i+1] + (ptr[i+1] - ptr[i]) - (f.LPtr[i+1] - f.LPtr[i])
	}
	f.Col = make([]int32, f.UPtr[0])
	for i := 0; i < nb; i++ {
		row := cols[ptr[i]:ptr[i+1]]
		t := f.LPtr[i+1] - f.LPtr[i] // position of the diagonal in row
		copy(f.Col[f.LPtr[i]:], row[:t])
		copy(f.Col[f.UPtr[i+1]:], row[t+1:])
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

// planWindow sizes and lays out the window float32 storage eliminates
// in, from the pattern alone. Row i reads the U segments of its lower
// columns, so while it is eliminated — in place, in the slot later rows
// will read it from — rows need(i)…i-1 must be intact, need(i) being the
// least first lower column of rows i…NB-1. Segments go into the ring
// one after another, each contiguous, starting over at block 0 when the
// next does not fit. A capacity of the largest live set (rows need(i)…i)
// plus the longest segment keeps that from reaching a live row: the
// segments since a restart are live and fill the ring up to the gap the
// next restart leaves, which is shorter than the segment that did not
// fit, so a second restart inside one live set would make it larger
// than the capacity. Under RCM that is a few hundred rows; for an
// ordering with no locality it is capped at every U block, where nothing
// ever starts over. The longest row's L blocks follow the ring.
func (f *Factorization) planWindow() {
	nb := f.NB
	uPtr := f.UPtr
	var live, maxSeg, maxL int32
	need := int32(nb)
	for i := nb - 1; i >= 0; i-- {
		need = min(need, int32(i))
		if f.LPtr[i] < f.LPtr[i+1] {
			need = min(need, f.Col[f.LPtr[i]])
		}
		live = max(live, uPtr[need]-uPtr[i+1])
		maxSeg = max(maxSeg, uPtr[i]-uPtr[i+1])
		maxL = max(maxL, f.LPtr[i+1]-f.LPtr[i])
	}
	ring := min(live+maxSeg, uPtr[0]-uPtr[nb])
	f.uOff = make([]int32, nb)
	var pos int32
	for i := range f.uOff {
		n := uPtr[i] - uPtr[i+1]
		if pos+n > ring {
			pos = 0
		}
		f.uOff[i] = pos
		pos += n
	}
	f.lBuf = ring
	f.elim = make([]float64, int(ring+maxL)*f.B*f.B)
}

// numeric performs the block IKJ elimination of a's values on the fill
// pattern, a row at a time in elim — the one numeric path behind Factor
// and Refactor in both storage precisions: the same kernels on the same
// float64 operands in the same order wherever elim puts them. A row is
// a few coarse kernel calls: one loads A's row, one per L block
// multiplies it by its pivot's inverse and applies every update it
// makes, one inverts the pivot, and under float32 storage two round the
// finished row into val32.
func (f *Factorization) numeric(a *sparse.BCSR) error {
	b := f.B
	bb := b * b
	val, slot, v32 := f.elim, f.slot, f.val32
	col, lPtr, uPtr, uOff := f.Col, f.LPtr, f.UPtr, f.uOff
	for i := 0; i < f.NB; i++ {
		lower := col[lPtr[i]:lPtr[i+1]]
		upper := col[uPtr[i+1]:uPtr[i]] // the U blocks, then the diagonal
		lo, uo := int(lPtr[i]), int(uOff[i])
		if v32 != nil {
			lo = int(f.lBuf)
		}
		kd := uo + len(upper) - 1
		for t, j := range lower {
			slot[j] = int32(lo + t) //lint:bce-ok dense work array indexed by block column
		}
		for t, j := range upper {
			slot[j] = int32(uo + t) //lint:bce-ok dense work array indexed by block column
		}
		// Load A's row: its blocks are column-major like the factors', so
		// each is a plain copy; a row with fill starts from zero blocks.
		aLo, aHi := int(a.RowPtr[i]), int(a.RowPtr[i+1])
		if len(lower)+len(upper) > aHi-aLo {
			clear(val[lo*bb : (lo+len(lower))*bb])
			clear(val[uo*bb : (kd+1)*bb])
		}
		loadRow(val, a.Val[aLo*bb:aHi*bb], a.ColIdx[aLo:aHi], slot, b)
		for t, p := range lower {
			// Row p's U blocks start at uOff[p], its inverse follows them.
			// (aug is free until the pivot inversion below.)
			pCols := col[uPtr[p+1] : uPtr[p]-1]                       //lint:bce-ok U row of a pivot named by the pattern
			rowUpdate(val, lo+t, int(uOff[p]), pCols, slot, b, f.aug) //lint:bce-ok U row of a pivot named by the pattern
		}
		// The pivot block is inverted in place, last of the row's U segment.
		err := invertPivot(val[kd*bb:kd*bb+bb], b, f.aug)
		for _, j := range lower {
			slot[j] = -1 //lint:bce-ok dense work array indexed by block column
		}
		for _, j := range upper {
			slot[j] = -1 //lint:bce-ok dense work array indexed by block column
		}
		if err != nil {
			return fmt.Errorf("ilu: singular pivot block at row %d: %w", i, err)
		}
		if v32 != nil {
			l32 := v32[int(lPtr[i])*bb : int(lPtr[i+1])*bb]
			u32 := v32[int(uPtr[i+1])*bb : int(uPtr[i])*bb]
			kern.round32(l32, val[lo*bb:lo*bb+len(l32)])
			kern.round32(u32, val[uo*bb:uo*bb+len(u32)])
		}
	}
	return nil
}

// round32 stores src's leading len(dst) values rounded to float32.
func round32(dst []float32, src []float64) {
	src = src[:len(dst)]
	for k, v := range src {
		dst[k] = float32(v)
	}
}

// The block kernels of the elimination. Blocks are stored column-major:
// entry (r, c) of an n×n block is element c·n + r. Each kernel computes
// every entry of its product as a sum accumulated from +0 in ascending k
// with the operands in the order written, so a kernel's result does not
// depend on the order it visits entries in — which is what lets the
// assembly twins (kernels_amd64.s) vectorise across a block's rows.

// loadRow copies A's row — the blocks src, whose columns are cols — into
// the blocks of val that slot names for those columns (n×n blocks).
func loadRow(val, src []float64, cols, slot []int32, n int) {
	switch n {
	case 4:
		kern.loadRow4(val, src, cols, slot)
	case 5:
		kern.loadRow5(val, src, cols, slot)
	default:
		loadRowN(val, src, cols, slot, n*n)
	}
}

func loadRowN(val, src []float64, cols, slot []int32, bb int) {
	for k, j := range cols {
		d := int(slot[j]) * bb               //lint:bce-ok dense work array indexed by block column
		copy(val[d:d+bb], src[k*bb:k*bb+bb]) //lint:bce-ok block offsets are data-dependent through the pattern
	}
}

func loadRow4(val, src []float64, cols, slot []int32) { loadRowN(val, src, cols, slot, 16) }
func loadRow5(val, src []float64, cols, slot []int32) { loadRowN(val, src, cols, slot, 25) }

// rowUpdate applies one L block of the row being eliminated, the block
// factor in column p: factor ← factor·invU_pp (mulRight), then for each
// U block U_pj of row p — pCols holds their columns, the blocks are uLo
// onward and the pivot's inverse follows them — A_ij -= factor·U_pj
// (mulSub) on the block slot names for column j, skipped where slot[j]
// is -1 (fill dropped by the level rule). No updated block is factor
// (their columns exceed p), so a kernel may hold factor in registers
// across the updates. scratch is n² scalars for the sizes without
// unrolled kernels.
func rowUpdate(val []float64, factor, uLo int, pCols, slot []int32, n int, scratch []float64) {
	switch n {
	case 4:
		kern.rowUpdate4(val, factor, uLo, pCols, slot)
	case 5:
		kern.rowUpdate5(val, factor, uLo, pCols, slot)
	default:
		bb := n * n
		rowUpdateWith(val, factor, uLo, pCols, slot, bb,
			func(a, b []float64) { matMul(a, b, scratch, n); copy(a, scratch[:bb]) },
			func(c, a, b []float64) { mulSubGeneric(c, a, b, n) })
	}
}

func rowUpdate4(val []float64, factor, uLo int, pCols, slot []int32) {
	rowUpdateWith(val, factor, uLo, pCols, slot, 16, mulRight4, mulSub4)
}

func rowUpdate5(val []float64, factor, uLo int, pCols, slot []int32) {
	rowUpdateWith(val, factor, uLo, pCols, slot, 25, mulRight5, mulSub5)
}

// rowUpdateWith is rowUpdate on bb-scalar blocks through the given
// L-block multiply and row-update kernels.
func rowUpdateWith(val []float64, factor, uLo int, pCols, slot []int32, bb int,
	mulRight func(a, b []float64), mulSub func(c, a, b []float64)) {
	l := val[factor*bb : factor*bb+bb]
	pd := (uLo + len(pCols)) * bb
	mulRight(l, val[pd:pd+bb])
	for kp, j := range pCols {
		if dst := int(slot[j]); dst >= 0 { //lint:bce-ok dense work array indexed by block column
			src := (uLo + kp) * bb
			mulSub(val[dst*bb:dst*bb+bb], l, val[src:src+bb]) //lint:bce-ok block offsets are data-dependent through the pattern
		}
	}
}

// mulSubGeneric computes c -= a*b. Each entry's product sum is
// accumulated from zero in ascending k and subtracted once — exactly a
// matMul into a temporary followed by a subtraction, without the
// temporary. mulSub4 and mulSub5 are its unrolled forms for the paper's
// block sizes (4 incompressible, 5 compressible).
func mulSubGeneric(c, a, b []float64, n int) {
	for j := 0; j < n; j++ {
		bj := b[j*n : j*n+n]
		cj := c[j*n : j*n+n]
		for i := range cj {
			var s float64
			for k, w := range bj {
				s += a[k*n+i] * w //lint:bce-ok strided walk along row i of a; k*n+i < n*n relates three lengths the prover cannot carry
			}
			cj[i] -= s
		}
	}
}

// mulSub4 holds b in registers and handles one row of a and c per
// iteration, every sum still accumulated from zero in ascending k.
func mulSub4(c, a, b []float64) {
	c, a, b = c[:16:16], a[:16:16], b[:16:16]
	b00, b10, b20, b30 := b[0], b[1], b[2], b[3]
	b01, b11, b21, b31 := b[4], b[5], b[6], b[7]
	b02, b12, b22, b32 := b[8], b[9], b[10], b[11]
	b03, b13, b23, b33 := b[12], b[13], b[14], b[15]
	for i := 0; i < 4; i++ {
		a0, a1, a2, a3 := a[i], a[i+4], a[i+8], a[i+12]
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
		c[i+4] -= s1
		c[i+8] -= s2
		c[i+12] -= s3
	}
}

func mulSub5(c, a, b []float64) {
	c, a, b = c[:25:25], a[:25:25], b[:25:25]
	for i := 0; i < 5; i++ {
		a0, a1, a2, a3, a4 := a[i], a[i+5], a[i+10], a[i+15], a[i+20]
		var s0, s1, s2, s3, s4 float64
		s0 += a0 * b[0]
		s1 += a0 * b[5]
		s2 += a0 * b[10]
		s3 += a0 * b[15]
		s4 += a0 * b[20]
		s0 += a1 * b[1]
		s1 += a1 * b[6]
		s2 += a1 * b[11]
		s3 += a1 * b[16]
		s4 += a1 * b[21]
		s0 += a2 * b[2]
		s1 += a2 * b[7]
		s2 += a2 * b[12]
		s3 += a2 * b[17]
		s4 += a2 * b[22]
		s0 += a3 * b[3]
		s1 += a3 * b[8]
		s2 += a3 * b[13]
		s3 += a3 * b[18]
		s4 += a3 * b[23]
		s0 += a4 * b[4]
		s1 += a4 * b[9]
		s2 += a4 * b[14]
		s3 += a4 * b[19]
		s4 += a4 * b[24]
		c[i] -= s0
		c[i+5] -= s1
		c[i+10] -= s2
		c[i+15] -= s3
		c[i+20] -= s4
	}
}

// mulRight4 and mulRight5 compute a = a*b in place, every entry's
// product sum accumulated from +0 in ascending k — matMul's order, so
// the result is bitwise matMul's. Row i of the product reads row i of a
// only, which is what lets them overwrite a row at a time.
func mulRight4(a, b []float64) {
	a, b = a[:16:16], b[:16:16]
	b00, b10, b20, b30 := b[0], b[1], b[2], b[3]
	b01, b11, b21, b31 := b[4], b[5], b[6], b[7]
	b02, b12, b22, b32 := b[8], b[9], b[10], b[11]
	b03, b13, b23, b33 := b[12], b[13], b[14], b[15]
	for i := 0; i < 4; i++ {
		a0, a1, a2, a3 := a[i], a[i+4], a[i+8], a[i+12]
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
		a[i], a[i+4], a[i+8], a[i+12] = s0, s1, s2, s3
	}
}

func mulRight5(a, b []float64) {
	a, b = a[:25:25], b[:25:25]
	for i := 0; i < 5; i++ {
		a0, a1, a2, a3, a4 := a[i], a[i+5], a[i+10], a[i+15], a[i+20]
		var s0, s1, s2, s3, s4 float64
		s0 += a0 * b[0]
		s1 += a0 * b[5]
		s2 += a0 * b[10]
		s3 += a0 * b[15]
		s4 += a0 * b[20]
		s0 += a1 * b[1]
		s1 += a1 * b[6]
		s2 += a1 * b[11]
		s3 += a1 * b[16]
		s4 += a1 * b[21]
		s0 += a2 * b[2]
		s1 += a2 * b[7]
		s2 += a2 * b[12]
		s3 += a2 * b[17]
		s4 += a2 * b[22]
		s0 += a3 * b[3]
		s1 += a3 * b[8]
		s2 += a3 * b[13]
		s3 += a3 * b[18]
		s4 += a3 * b[23]
		s0 += a4 * b[4]
		s1 += a4 * b[9]
		s2 += a4 * b[14]
		s3 += a4 * b[19]
		s4 += a4 * b[24]
		a[i], a[i+5], a[i+10], a[i+15], a[i+20] = s0, s1, s2, s3, s4
	}
}

// matMul computes c = a*b.
func matMul(a, b, c []float64, n int) {
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += a[k*n+i] * b[j*n+k]
			}
			c[j*n+i] = s
		}
	}
}

// invertPivot inverts the n×n pivot block blk in place, through the
// family's written-out kernels at the paper's block sizes; aug is 2n²
// scalars of scratch. An inverse with a NaN or an infinity is rejected
// as singular: a NaN off the pivots passes every pivot test, and would
// otherwise spread through the factors without an error.
func invertPivot(blk []float64, n int, aug []float64) error {
	var col int
	switch n {
	case 4:
		col = kern.invert4(blk, aug)
	case 5:
		col = kern.invert5(blk, aug)
	default:
		col = invertBlock(blk, blk, n, aug)
	}
	if col >= 0 {
		return fmt.Errorf("zero pivot in column %d", col)
	}
	var probe float64 // v - v is +0 for every finite v and NaN otherwise
	for _, v := range blk {
		probe += v - v
	}
	if probe != 0 {
		return fmt.Errorf("non-finite inverse")
	}
	return nil
}

// invertBlock inverts the n×n block src into dst (which may be src
// itself) using Gauss-Jordan with partial pivoting — the first row of
// largest magnitude in the column — on the augmented block [A | I], kept
// row-major in aug (2n² scalars of scratch). It returns -1, or the
// column whose pivot is below 1e-300 in magnitude or NaN, leaving dst
// untouched.
func invertBlock(src, dst []float64, n int, aug []float64) int {
	w := 2 * n
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			aug[i*w+j] = src[j*n+i]
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
		if !(math.Abs(aug[piv*w+col]) >= 1e-300) {
			return col
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
			dst[j*n+i] = aug[i*w+n+j]
		}
	}
	return -1
}

// invertBlock4 and invertBlock5 are the Go family's pivot inversions:
// invertBlock itself, the oracle the assembly twins are held to.
func invertBlock4(blk, aug []float64) int { return invertBlock(blk, blk, 4, aug) }
func invertBlock5(blk, aug []float64) int { return invertBlock(blk, blk, 5, aug) }
