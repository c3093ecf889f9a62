package sparse

import (
	"fmt"
	"slices"
	"sort"
)

// BCSR is a block compressed-sparse-row matrix (PETSc's BAIJ): NB block
// rows of B×B dense blocks. Block row i's blocks occupy
// Val[RowPtr[i]*B*B : RowPtr[i+1]*B*B], each block stored row-major, with
// block column indices ColIdx[RowPtr[i]:RowPtr[i+1]] sorted ascending.
//
// This is the "structural blocking" of the paper (section 2.1.2): one
// column index serves B*B values, cutting integer loads by a factor of
// B*B and letting the B values of x used by a block stay in registers.
type BCSR struct {
	NB     int // number of block rows
	B      int // block size (number of unknowns per mesh point)
	RowPtr []int32
	ColIdx []int32
	Val    []float64

	// Worker-pool state of MulVecPar, cached on the matrix: row-stripe
	// boundaries balanced by nonzero count (par.Stripes over RowPtr,
	// recomputed when the worker count changes) and the reusable task.
	// Like the kernels themselves, concurrent MulVecPar calls on the
	// same matrix are not allowed.
	parBounds []int32
	parTask   bcsrMulTask
}

// N returns the scalar dimension NB*B.
func (a *BCSR) N() int { return a.NB * a.B }

// NNZBlocks returns the number of stored blocks.
func (a *BCSR) NNZBlocks() int { return len(a.ColIdx) }

// NNZ returns the number of stored scalar entries.
func (a *BCSR) NNZ() int { return len(a.ColIdx) * a.B * a.B }

// Block returns the storage of the k-th block (row-major B×B), aliasing
// the matrix's value array.
func (a *BCSR) Block(k int) []float64 {
	bb := a.B * a.B
	return a.Val[k*bb : (k+1)*bb]
}

// BlockAt returns (the storage of) block (i, j) and true when present.
func (a *BCSR) BlockAt(i, j int) ([]float64, bool) {
	row := a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]]
	k := sort.Search(len(row), func(p int) bool { return row[p] >= int32(j) })
	if k < len(row) && row[k] == int32(j) {
		return a.Block(int(a.RowPtr[i]) + k), true
	}
	return nil, false
}

// MulVecFlops returns the floating-point work of one MulVec: a multiply
// and an add per stored scalar. Shared between the virtual-machine cost
// model and the measured profiler.
func (a *BCSR) MulVecFlops() int64 {
	return 2 * int64(len(a.ColIdx)) * int64(a.B) * int64(a.B)
}

// MulVecBytes returns the memory traffic of one MulVec: every stored
// block and column index read once, plus source and destination vector
// sweeps.
func (a *BCSR) MulVecBytes() int64 {
	bb := int64(a.B) * int64(a.B)
	return int64(len(a.ColIdx))*(bb*8+4) + 2*int64(a.NB)*int64(a.B)*8
}

// MulVec computes y = A x with x, y in interlaced layout (unknowns of a
// mesh point adjacent). Specialized unrolled kernels handle the paper's
// block sizes (4 incompressible, 5 compressible).
func (a *BCSR) MulVec(x, y []float64) {
	if len(x) < a.N() || len(y) < a.N() {
		//lint:panic-ok kernel precondition: a dimension mismatch is caller misuse caught before the bandwidth-limited sweep
		panic(fmt.Sprintf("sparse: BCSR MulVec dimension mismatch: N=%d len(x)=%d len(y)=%d", a.N(), len(x), len(y)))
	}
	switch a.B {
	case 4:
		a.mulVec4(0, a.NB, x, y)
	case 5:
		a.mulVec5(0, a.NB, x, y)
	default:
		a.mulVecGeneric(0, a.NB, x, y)
	}
}

func (a *BCSR) mulVec4(lo, hi int, x, y []float64) {
	for i := lo; i < hi; i++ {
		start, end := int(a.RowPtr[i]), int(a.RowPtr[i+1]) // bce: hoist the row extent; int arithmetic keeps prove in play below
		var s0, s1, s2, s3 float64
		for k := start; k < end; k++ {
			j := int(a.ColIdx[k]) * 4                      //lint:bce-ok k is bounded by RowPtr contents, a relation no slice length expresses
			x0, x1, x2, x3 := x[j], x[j+1], x[j+2], x[j+3] //lint:bce-ok gather through the block column index is data-dependent
			v := a.Val[k*16 : k*16+16 : k*16+16]           //lint:bce-ok block offset is data-dependent through RowPtr; the constant-length slice erases the 16 per-element checks below
			s0 += v[0]*x0 + v[1]*x1 + v[2]*x2 + v[3]*x3
			s1 += v[4]*x0 + v[5]*x1 + v[6]*x2 + v[7]*x3
			s2 += v[8]*x0 + v[9]*x1 + v[10]*x2 + v[11]*x3
			s3 += v[12]*x0 + v[13]*x1 + v[14]*x2 + v[15]*x3
		}
		o := i * 4
		y[o], y[o+1], y[o+2], y[o+3] = s0, s1, s2, s3
	}
}

func (a *BCSR) mulVec5(lo, hi int, x, y []float64) {
	for i := lo; i < hi; i++ {
		start, end := int(a.RowPtr[i]), int(a.RowPtr[i+1]) // bce: hoist the row extent; int arithmetic keeps prove in play below
		var s0, s1, s2, s3, s4 float64
		for k := start; k < end; k++ {
			j := int(a.ColIdx[k]) * 5                                  //lint:bce-ok k is bounded by RowPtr contents, a relation no slice length expresses
			x0, x1, x2, x3, x4 := x[j], x[j+1], x[j+2], x[j+3], x[j+4] //lint:bce-ok gather through the block column index is data-dependent
			v := a.Val[k*25 : k*25+25 : k*25+25]                       //lint:bce-ok block offset is data-dependent through RowPtr; the constant-length slice erases the 25 per-element checks below
			s0 += v[0]*x0 + v[1]*x1 + v[2]*x2 + v[3]*x3 + v[4]*x4
			s1 += v[5]*x0 + v[6]*x1 + v[7]*x2 + v[8]*x3 + v[9]*x4
			s2 += v[10]*x0 + v[11]*x1 + v[12]*x2 + v[13]*x3 + v[14]*x4
			s3 += v[15]*x0 + v[16]*x1 + v[17]*x2 + v[18]*x3 + v[19]*x4
			s4 += v[20]*x0 + v[21]*x1 + v[22]*x2 + v[23]*x3 + v[24]*x4
		}
		o := i * 5
		y[o], y[o+1], y[o+2], y[o+3], y[o+4] = s0, s1, s2, s3, s4
	}
}

// MulVecAddRows computes y[i] += (A x)[i] for the listed block rows,
// leaving every other row of y untouched. A row's kernel resumes the
// running sums MulVec keeps — the same expressions, continued from y[i]
// — so the product of a matrix split by columns into [D | O], computed
// as y = D x then y += O x over the rows O populates, is bitwise the
// MulVec of the unsplit matrix with D's columns first: what lets a rank
// multiply its owned columns while the ghost values are in flight.
func (a *BCSR) MulVecAddRows(rows []int32, x, y []float64) {
	if len(x) < a.N() || len(y) < a.N() {
		//lint:panic-ok kernel precondition: a dimension mismatch is caller misuse caught before the bandwidth-limited sweep
		panic(fmt.Sprintf("sparse: BCSR MulVecAddRows dimension mismatch: N=%d len(x)=%d len(y)=%d", a.N(), len(x), len(y)))
	}
	switch a.B {
	case 4:
		a.mulVecAddRows4(rows, x, y)
	case 5:
		a.mulVecAddRows5(rows, x, y)
	default:
		a.mulVecAddRowsGeneric(rows, x, y)
	}
}

func (a *BCSR) mulVecAddRows4(rows []int32, x, y []float64) {
	for _, i := range rows {
		start, end := int(a.RowPtr[i]), int(a.RowPtr[i+1]) // bce: hoist the row extent; int arithmetic keeps prove in play below
		o := int(i) * 4
		s0, s1, s2, s3 := y[o], y[o+1], y[o+2], y[o+3]
		for k := start; k < end; k++ {
			j := int(a.ColIdx[k]) * 4                      //lint:bce-ok k is bounded by RowPtr contents, a relation no slice length expresses
			x0, x1, x2, x3 := x[j], x[j+1], x[j+2], x[j+3] //lint:bce-ok gather through the block column index is data-dependent
			v := a.Val[k*16 : k*16+16 : k*16+16]           //lint:bce-ok block offset is data-dependent through RowPtr; the constant-length slice erases the 16 per-element checks below
			s0 += v[0]*x0 + v[1]*x1 + v[2]*x2 + v[3]*x3
			s1 += v[4]*x0 + v[5]*x1 + v[6]*x2 + v[7]*x3
			s2 += v[8]*x0 + v[9]*x1 + v[10]*x2 + v[11]*x3
			s3 += v[12]*x0 + v[13]*x1 + v[14]*x2 + v[15]*x3
		}
		y[o], y[o+1], y[o+2], y[o+3] = s0, s1, s2, s3
	}
}

func (a *BCSR) mulVecAddRows5(rows []int32, x, y []float64) {
	for _, i := range rows {
		start, end := int(a.RowPtr[i]), int(a.RowPtr[i+1]) // bce: hoist the row extent; int arithmetic keeps prove in play below
		o := int(i) * 5
		s0, s1, s2, s3, s4 := y[o], y[o+1], y[o+2], y[o+3], y[o+4]
		for k := start; k < end; k++ {
			j := int(a.ColIdx[k]) * 5                                  //lint:bce-ok k is bounded by RowPtr contents, a relation no slice length expresses
			x0, x1, x2, x3, x4 := x[j], x[j+1], x[j+2], x[j+3], x[j+4] //lint:bce-ok gather through the block column index is data-dependent
			v := a.Val[k*25 : k*25+25 : k*25+25]                       //lint:bce-ok block offset is data-dependent through RowPtr; the constant-length slice erases the 25 per-element checks below
			s0 += v[0]*x0 + v[1]*x1 + v[2]*x2 + v[3]*x3 + v[4]*x4
			s1 += v[5]*x0 + v[6]*x1 + v[7]*x2 + v[8]*x3 + v[9]*x4
			s2 += v[10]*x0 + v[11]*x1 + v[12]*x2 + v[13]*x3 + v[14]*x4
			s3 += v[15]*x0 + v[16]*x1 + v[17]*x2 + v[18]*x3 + v[19]*x4
			s4 += v[20]*x0 + v[21]*x1 + v[22]*x2 + v[23]*x3 + v[24]*x4
		}
		y[o], y[o+1], y[o+2], y[o+3], y[o+4] = s0, s1, s2, s3, s4
	}
}

func (a *BCSR) mulVecAddRowsGeneric(rows []int32, x, y []float64) {
	b := a.B
	bb := b * b
	for _, i := range rows {
		ys := y[int(i)*b : int(i)*b+b]
		start, end := int(a.RowPtr[i]), int(a.RowPtr[i+1])
		for k := start; k < end; k++ {
			j := int(a.ColIdx[k]) * b
			blk := a.Val[k*bb : k*bb+bb]
			xs := x[j : j+b]
			for r := 0; r < b; r++ {
				row := blk[r*b:]
				row = row[:len(xs)] // bce: ties len(row) to len(xs); the c index needs one range check, not two
				var sum float64
				for c, w := range row {
					sum += w * xs[c]
				}
				ys[r] += sum
			}
		}
	}
}

// MulVecRowsFlops returns the floating-point work of a MulVecAddRows
// over a row subset holding nnzBlocks stored blocks of size b.
func MulVecRowsFlops(nnzBlocks, b int) int64 {
	return 2 * int64(nnzBlocks) * int64(b) * int64(b)
}

// MulVecRowsBytes returns the memory traffic of a MulVecAddRows over
// nRows block rows holding nnzBlocks stored blocks of size b: blocks
// and column indices read once, the destination rows read and written
// once, and one source-vector gather per block (subset sweeps have no
// reuse guarantee across the full source vector).
func MulVecRowsBytes(nnzBlocks, nRows, b int) int64 {
	bb := int64(b) * int64(b)
	return int64(nnzBlocks)*(bb*8+4+int64(b)*8) + int64(nRows)*int64(b)*16
}

func (a *BCSR) mulVecGeneric(lo, hi int, x, y []float64) {
	b := a.B
	bb := b * b
	for i := lo; i < hi; i++ {
		ys := y[i*b : i*b+b]
		for c := range ys {
			ys[c] = 0
		}
		start, end := int(a.RowPtr[i]), int(a.RowPtr[i+1])
		for k := start; k < end; k++ {
			j := int(a.ColIdx[k]) * b
			blk := a.Val[k*bb : k*bb+bb]
			xs := x[j : j+b]
			for r := 0; r < b; r++ {
				row := blk[r*b:]
				row = row[:len(xs)] // bce: ties len(row) to len(xs); the c index needs one range check, not two
				var sum float64
				for c, w := range row {
					sum += w * xs[c]
				}
				ys[r] += sum
			}
		}
	}
}

// Validate checks the structural invariants of the format.
func (a *BCSR) Validate() error {
	if a.B < 1 {
		return fmt.Errorf("sparse: BCSR block size %d", a.B)
	}
	if len(a.RowPtr) != a.NB+1 {
		return fmt.Errorf("sparse: BCSR RowPtr length %d, want %d", len(a.RowPtr), a.NB+1)
	}
	if a.RowPtr[0] != 0 || int(a.RowPtr[a.NB]) != len(a.ColIdx) {
		return fmt.Errorf("sparse: inconsistent BCSR pointers")
	}
	if len(a.Val) != len(a.ColIdx)*a.B*a.B {
		return fmt.Errorf("sparse: BCSR value array length %d, want %d", len(a.Val), len(a.ColIdx)*a.B*a.B)
	}
	for i := 0; i < a.NB; i++ {
		row := a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]]
		for k, j := range row {
			if j < 0 || int(j) >= a.NB {
				return fmt.Errorf("sparse: block row %d col %d out of range", i, j)
			}
			if k > 0 && row[k-1] >= j {
				return fmt.Errorf("sparse: block row %d columns not strictly ascending", i)
			}
		}
	}
	return nil
}

// ToCSR expands the block matrix to scalar CSR in interlaced numbering
// (scalar row = blockRow*B + component).
func (a *BCSR) ToCSR() *CSR {
	b := a.B
	out := &CSR{N: a.N(), RowPtr: make([]int32, a.N()+1)}
	nnz := a.NNZ()
	out.ColIdx = make([]int32, 0, nnz)
	out.Val = make([]float64, 0, nnz)
	for i := 0; i < a.NB; i++ {
		for r := 0; r < b; r++ {
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				j := int(a.ColIdx[k]) * b
				blk := a.Block(int(k))
				for c := 0; c < b; c++ {
					out.ColIdx = append(out.ColIdx, int32(j+c)) //lint:alloc-ok appends into capacity preallocated to the exact nnz
					out.Val = append(out.Val, blk[r*b+c])       //lint:alloc-ok appends into capacity preallocated to the exact nnz
				}
			}
			out.RowPtr[i*b+r+1] = int32(len(out.ColIdx))
		}
	}
	return out
}

// ToBCSR1 reinterprets a scalar CSR matrix as a BCSR matrix with 1×1
// blocks (sharing storage), so scalar matrices can use block-only
// algorithms such as the ILU factorization.
func (a *CSR) ToBCSR1() *BCSR {
	return &BCSR{NB: a.N, B: 1, RowPtr: a.RowPtr, ColIdx: a.ColIdx, Val: a.Val}
}

// NewBCSRPattern allocates a BCSR matrix with the given block sparsity:
// rows[i] lists the block columns of block row i (need not be sorted; a
// sorted copy is made). Values are zero.
func NewBCSRPattern(nb, b int, rows [][]int32) *BCSR {
	a := &BCSR{NB: nb, B: b, RowPtr: make([]int32, nb+1)}
	nnzb := 0
	for _, r := range rows {
		nnzb += len(r)
	}
	a.ColIdx = make([]int32, 0, nnzb)
	for i := 0; i < nb; i++ {
		a.ColIdx = append(a.ColIdx, rows[i]...) //lint:alloc-ok appends into capacity preallocated to the exact nnzb
		slices.Sort(a.ColIdx[a.RowPtr[i]:])
		a.RowPtr[i+1] = int32(len(a.ColIdx))
	}
	a.Val = make([]float64, len(a.ColIdx)*b*b)
	return a
}
