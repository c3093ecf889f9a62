package sparse

import (
	"testing"

	"petscfun3d/internal/par"
)

// TestBCSRMulVecParBitwiseIdentical: the striped product matches the
// sequential MulVec bit for bit at every worker count, for every
// block-size kernel specialization, in every kernel family the host has
// (the Go one also for the race detector, which does not see the
// assembly's accesses).
func TestBCSRMulVecParBitwiseIdentical(t *testing.T) {
	for _, fam := range families() {
		useKernels(t, fam)
		testMulVecParBitwise(t)
	}
}

func testMulVecParBitwise(t *testing.T) {
	for _, b := range []int{1, 3, 4, 5} {
		g := bandGraph(60)
		a := BlockPattern(g, b)
		a.FillDeterministic(17)
		n := a.N()
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(i%11) - 5.0
		}
		want := make([]float64, n)
		a.MulVec(x, want)
		for _, nw := range []int{1, 2, 4, 8} {
			p := par.New(nw)
			got := make([]float64, n)
			for rep := 0; rep < 3; rep++ {
				a.MulVecPar(p, x, got)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s kernels, b=%d nw=%d rep=%d: y[%d]=%x, want %x", kern.name, b, nw, rep, i, got[i], want[i])
					}
				}
			}
			p.Close()
		}
	}
}

// TestMulVecParNilPool: a nil pool runs the sequential kernel.
func TestMulVecParNilPool(t *testing.T) {
	a := BlockPattern(bandGraph(30), 4)
	a.FillDeterministic(3)
	n := a.N()
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i)
	}
	want := make([]float64, n)
	got := make([]float64, n)
	a.MulVec(x, want)
	a.MulVecPar(nil, x, got)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("y[%d]=%x, want %x", i, got[i], want[i])
		}
	}
}

// TestMulVecParSteadyStateAllocs: after the first call sizes the stripe
// bounds, repeated threaded products do not allocate, at both unrolled
// block sizes and in every kernel family the host runs — the Go kernels
// are what a host without AVX2 runs.
func TestMulVecParSteadyStateAllocs(t *testing.T) {
	p := par.New(4)
	defer p.Close()
	for _, fam := range families() {
		useKernels(t, fam)
		for _, b := range []int{4, 5} {
			a := BlockPattern(bandGraph(48), b)
			a.FillDeterministic(7)
			n := a.N()
			x := make([]float64, n)
			y := make([]float64, n)
			for i := range x {
				x[i] = float64(i % 9)
			}
			a.MulVecPar(p, x, y) // warm up stripe bounds
			if avg := testing.AllocsPerRun(20, func() { a.MulVecPar(p, x, y) }); avg > 0 {
				t.Fatalf("%s kernels, b=%d: MulVecPar allocates %.1f objects per product", fam.name, b, avg)
			}
		}
	}
}

// TestMulVecAddRowsResumesMulVecBitwise: a matrix cut by columns into
// [D | O] — D the columns below a split, O the rest — multiplied as
// y = D x followed by y += O x over the rows O populates has the bits
// of one MulVec of the whole, for every block-size kernel
// specialization; rows outside the list are left alone.
func TestMulVecAddRowsResumesMulVecBitwise(t *testing.T) {
	for _, b := range []int{1, 3, 4, 5} {
		a := BlockPattern(bandGraph(60), b)
		a.FillDeterministic(17)
		x := testVector(a.N(), 29)
		want := make([]float64, a.N())
		a.MulVec(x, want)
		const split = 23
		lo, hi := make([][]int32, a.NB), make([][]int32, a.NB)
		for i := 0; i < a.NB; i++ {
			for _, j := range a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]] {
				if j < split {
					lo[i] = append(lo[i], j)
				} else {
					hi[i] = append(hi[i], j)
				}
			}
		}
		d, o := NewBCSRPattern(a.NB, b, lo), NewBCSRPattern(a.NB, b, hi)
		var rows []int32
		for i := 0; i < a.NB; i++ {
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				half := d
				if a.ColIdx[k] >= split {
					half = o
				}
				dst, _ := half.BlockAt(i, int(a.ColIdx[k]))
				copy(dst, a.Block(int(k)))
			}
			if len(hi[i]) > 0 {
				rows = append(rows, int32(i))
			}
		}
		if len(rows) == 0 || len(rows) == a.NB {
			t.Fatalf("b=%d: O populates %d of %d rows; the split does not exercise the row list", b, len(rows), a.NB)
		}
		got := make([]float64, a.N())
		d.MulVec(x, got)
		o.MulVecAddRows(rows, x, got)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("b=%d: y[%d]=%x, want %x", b, i, got[i], want[i])
			}
		}
		o.MulVecAddRows(nil, x, got)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("b=%d: an empty row list changed y[%d]", b, i)
			}
		}
	}
}
