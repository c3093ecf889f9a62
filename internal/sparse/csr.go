// Package sparse implements the sparse-matrix storage formats and kernels
// the paper studies: scalar compressed-sparse-row (CSR, PETSc's AIJ) and
// block CSR (BCSR, PETSc's BAIJ) matrices, interlaced and noninterlaced
// multicomponent vector layouts, sparse matrix-vector products for each
// combination, and reduced-precision (float32) value storage for
// bandwidth-limited preconditioner kernels.
package sparse

import (
	"fmt"
	"slices"
	"sort"
)

// CSR is a scalar sparse matrix in compressed-sparse-row format: row i's
// entries are Val[RowPtr[i]:RowPtr[i+1]] in columns
// ColIdx[RowPtr[i]:RowPtr[i+1]] (sorted ascending within each row).
type CSR struct {
	N      int // square dimension
	RowPtr []int32
	ColIdx []int32
	Val    []float64

	// Worker-pool state of MulVecPar (see BCSR): nonzero-balanced row
	// stripe boundaries and the reusable task.
	parBounds []int32
	parTask   csrMulTask
}

// NNZ returns the number of stored entries.
func (a *CSR) NNZ() int { return len(a.ColIdx) }

// Bandwidth returns max |i - j| over stored entries — the β of the
// paper's conflict-miss bound (equation (2)).
func (a *CSR) Bandwidth() int {
	bw := 0
	for i := 0; i < a.N; i++ {
		for _, j := range a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]] {
			d := i - int(j)
			if d < 0 {
				d = -d
			}
			if d > bw {
				bw = d
			}
		}
	}
	return bw
}

// MulVec computes y = A x.
func (a *CSR) MulVec(x, y []float64) {
	if len(x) < a.N || len(y) < a.N {
		//lint:panic-ok kernel precondition: a dimension mismatch is caller misuse caught before the bandwidth-limited sweep
		panic(fmt.Sprintf("sparse: MulVec dimension mismatch: N=%d len(x)=%d len(y)=%d", a.N, len(x), len(y)))
	}
	a.mulVecRange(0, a.N, x, y)
}

func (a *CSR) mulVecRange(lo, hi int, x, y []float64) {
	for i := lo; i < hi; i++ {
		start, end := a.RowPtr[i], a.RowPtr[i+1]
		vals := a.Val[start:end]
		cols := a.ColIdx[start:end]
		cols = cols[:len(vals)] // bce: ties len(cols) to len(vals); one range check serves both row slices
		var sum float64
		for k, v := range vals {
			sum += v * x[cols[k]] //lint:bce-ok gather through the column index is data-dependent; no slice-length relation is provable
		}
		y[i] = sum
	}
}

// At returns A[i,j], zero when the entry is not stored.
func (a *CSR) At(i, j int) float64 {
	row := a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]]
	k := sort.Search(len(row), func(p int) bool { return row[p] >= int32(j) })
	if k < len(row) && row[k] == int32(j) {
		return a.Val[int(a.RowPtr[i])+k]
	}
	return 0
}

// Validate checks the structural invariants of the format.
func (a *CSR) Validate() error {
	if len(a.RowPtr) != a.N+1 {
		return fmt.Errorf("sparse: RowPtr length %d, want %d", len(a.RowPtr), a.N+1)
	}
	if a.RowPtr[0] != 0 || int(a.RowPtr[a.N]) != len(a.ColIdx) || len(a.ColIdx) != len(a.Val) {
		return fmt.Errorf("sparse: inconsistent CSR sizes")
	}
	for i := 0; i < a.N; i++ {
		if a.RowPtr[i] > a.RowPtr[i+1] {
			return fmt.Errorf("sparse: RowPtr not monotone at row %d", i)
		}
		row := a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]]
		for k, j := range row {
			if j < 0 || int(j) >= a.N {
				return fmt.Errorf("sparse: row %d col %d out of range", i, j)
			}
			if k > 0 && row[k-1] >= j {
				return fmt.Errorf("sparse: row %d columns not strictly ascending", i)
			}
		}
	}
	return nil
}

// Builder accumulates entries and produces a CSR with sorted rows.
type Builder struct {
	n    int
	rows []map[int32]float64
}

// NewBuilder returns a builder for an n×n matrix.
func NewBuilder(n int) *Builder {
	rows := make([]map[int32]float64, n)
	for i := range rows {
		rows[i] = make(map[int32]float64, 16) //lint:alloc-ok one-time builder initialization
	}
	return &Builder{n: n, rows: rows}
}

// Add accumulates v into entry (i, j).
func (b *Builder) Add(i, j int, v float64) { b.rows[i][int32(j)] += v }

// Set overwrites entry (i, j).
func (b *Builder) Set(i, j int, v float64) { b.rows[i][int32(j)] = v }

// Build produces the CSR matrix.
func (b *Builder) Build() *CSR {
	a := &CSR{N: b.n, RowPtr: make([]int32, b.n+1)}
	nnz := 0
	for _, r := range b.rows {
		nnz += len(r)
	}
	a.ColIdx = make([]int32, 0, nnz)
	a.Val = make([]float64, 0, nnz)
	cols := make([]int32, 0, 64)
	for i := 0; i < b.n; i++ {
		cols = cols[:0]
		for j := range b.rows[i] {
			cols = append(cols, j) //lint:alloc-ok assembly-time row staging; cols is reused across rows
		}
		slices.Sort(cols)
		for _, j := range cols {
			a.ColIdx = append(a.ColIdx, j)      //lint:alloc-ok appends into capacity preallocated to the exact nnz
			a.Val = append(a.Val, b.rows[i][j]) //lint:alloc-ok appends into capacity preallocated to the exact nnz
		}
		a.RowPtr[i+1] = int32(len(a.ColIdx))
	}
	return a
}
