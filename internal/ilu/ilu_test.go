package ilu

import (
	"math"
	"testing"
	"testing/quick"

	"petscfun3d/internal/mesh"
	"petscfun3d/internal/sparse"
)

func wingBlockMatrix(t testing.TB, nx, ny, nz, b int, seed uint64) *sparse.BCSR {
	t.Helper()
	m, err := mesh.GenerateWing(mesh.DefaultWingSpec(nx, ny, nz))
	if err != nil {
		t.Fatal(err)
	}
	g := sparse.Graph{NV: m.NumVertices(), XAdj: m.XAdj, Adj: m.Adj}
	a := sparse.BlockPattern(g, b)
	a.FillDeterministic(seed)
	return a
}

func TestInvertBlock(t *testing.T) {
	src := []float64{4, 1, 0, 2, 5, 1, 0, 3, 6}
	dst := make([]float64, 9)
	if err := invertBlock(src, dst, 3, make([]float64, 18)); err != nil {
		t.Fatal(err)
	}
	// src * dst == I.
	prod := make([]float64, 9)
	matMul(src, dst, prod, 3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(prod[i*3+j]-want) > 1e-12 {
				t.Fatalf("A*inv(A) not identity at (%d,%d): %g", i, j, prod[i*3+j])
			}
		}
	}
	// In place, as the numeric pass inverts its pivots.
	inPlace := append([]float64(nil), src...)
	if err := invertBlock(inPlace, inPlace, 3, make([]float64, 18)); err != nil {
		t.Fatal(err)
	}
	for i := range dst {
		if inPlace[i] != dst[i] {
			t.Fatalf("in-place inverse differs at %d: %g vs %g", i, inPlace[i], dst[i])
		}
	}
	singular := []float64{1, 2, 2, 4}
	if err := invertBlock(singular, make([]float64, 4), 2, make([]float64, 8)); err == nil {
		t.Error("singular block inverted")
	}
}

func TestInvertBlockNeedsPivoting(t *testing.T) {
	// Zero in the (0,0) position requires a row swap.
	src := []float64{0, 1, 1, 0}
	dst := make([]float64, 4)
	if err := invertBlock(src, dst, 2, make([]float64, 8)); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 0 || dst[1] != 1 || dst[2] != 1 || dst[3] != 0 {
		t.Errorf("inverse of swap = %v", dst)
	}
}

func TestILU0PatternMatchesA(t *testing.T) {
	a := wingBlockMatrix(t, 5, 4, 4, 2, 3)
	f, err := Factor(a, Options{Level: 0})
	if err != nil {
		t.Fatal(err)
	}
	if f.NNZBlocks() != a.NNZBlocks() {
		t.Errorf("ILU(0) has %d blocks, matrix has %d", f.NNZBlocks(), a.NNZBlocks())
	}
}

func TestFillGrowsWithLevel(t *testing.T) {
	a := wingBlockMatrix(t, 6, 5, 4, 1, 5)
	var prev int
	for k := 0; k <= 3; k++ {
		f, err := Factor(a, Options{Level: k})
		if err != nil {
			t.Fatalf("level %d: %v", k, err)
		}
		if k > 0 && f.NNZBlocks() <= prev {
			t.Errorf("fill did not grow from level %d to %d: %d vs %d", k-1, k, prev, f.NNZBlocks())
		}
		prev = f.NNZBlocks()
	}
}

// residualReduction measures ||b - A M^{-1} b|| / ||b||: how well one
// application of the preconditioner inverts A.
func residualReduction(a *sparse.BCSR, f *Factorization) float64 {
	n := a.N()
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i)*0.7) + 1.1
	}
	x := make([]float64, n)
	f.Solve(b, x)
	ax := make([]float64, n)
	a.MulVec(x, ax)
	var num, den float64
	for i := range b {
		d := b[i] - ax[i]
		num += d * d
		den += b[i] * b[i]
	}
	return math.Sqrt(num / den)
}

func TestILUQualityImprovesWithFill(t *testing.T) {
	a := wingBlockMatrix(t, 6, 5, 4, 4, 7)
	var prev float64 = math.Inf(1)
	for k := 0; k <= 2; k++ {
		f, err := Factor(a, Options{Level: k})
		if err != nil {
			t.Fatalf("level %d: %v", k, err)
		}
		r := residualReduction(a, f)
		if r >= 1 {
			t.Errorf("ILU(%d) reduction %g not < 1", k, r)
		}
		if r > prev*1.05 {
			t.Errorf("ILU(%d) reduction %g worse than ILU(%d) %g", k, r, k-1, prev)
		}
		prev = r
	}
}

func TestILUExactOnTriangularCases(t *testing.T) {
	// For a (block) diagonal matrix, ILU(0) is exact: Solve(b) == A^{-1} b.
	rows := [][]int32{{0}, {1}, {2}}
	a := sparse.NewBCSRPattern(3, 2, rows)
	vals := [][]float64{{2, 0, 0, 4}, {1, 0, 1, 3}, {5, 1, 2, 1}} // column-major
	for i := 0; i < 3; i++ {
		blk, _ := a.BlockAt(i, i)
		copy(blk, vals[i])
	}
	f, err := Factor(a, Options{Level: 0})
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{2, 4, 4, 6, 8, 3}
	x := make([]float64, 6)
	f.Solve(b, x)
	ax := make([]float64, 6)
	a.MulVec(x, ax)
	for i := range b {
		if math.Abs(ax[i]-b[i]) > 1e-12 {
			t.Fatalf("block-diagonal solve inexact at %d: %g vs %g", i, ax[i], b[i])
		}
	}
}

func TestILUFullFillIsExact(t *testing.T) {
	// With enough fill levels on a small matrix, ILU == LU and the solve
	// is a direct solve.
	a := wingBlockMatrix(t, 3, 3, 3, 1, 9)
	f, err := Factor(a, Options{Level: 30})
	if err != nil {
		t.Fatal(err)
	}
	if r := residualReduction(a, f); r > 1e-10 {
		t.Errorf("full-fill ILU reduction %g, want ~0", r)
	}
}

func TestSinglePrecisionStorage(t *testing.T) {
	a := wingBlockMatrix(t, 5, 4, 4, 4, 11)
	fd, err := Factor(a, Options{Level: 1})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Factor(a, Options{Level: 1, SinglePrecision: true})
	if err != nil {
		t.Fatal(err)
	}
	if fd.BytesPerValue() != 8 || fs.BytesPerValue() != 4 {
		t.Error("BytesPerValue wrong")
	}
	if fs.SolveBytes() >= fd.SolveBytes() {
		t.Errorf("single SolveBytes %d not < double %d", fs.SolveBytes(), fd.SolveBytes())
	}
	n := a.N()
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Cos(float64(i) * 0.3)
	}
	xd := make([]float64, n)
	xs := make([]float64, n)
	fd.Solve(b, xd)
	fs.Solve(b, xs)
	var worst float64
	for i := range xd {
		if d := math.Abs(xd[i] - xs[i]); d > worst {
			worst = d
		}
	}
	if worst > 1e-3 {
		t.Errorf("single-precision solve too far from double: %g", worst)
	}
	if worst == 0 {
		t.Error("single-precision solve bitwise identical; storage not actually float32?")
	}
}

func TestFactorRejectsNegativeLevel(t *testing.T) {
	a := wingBlockMatrix(t, 3, 3, 3, 1, 1)
	if _, err := Factor(a, Options{Level: -1}); err == nil {
		t.Error("negative level accepted")
	}
}

func TestSolveFlopsPositive(t *testing.T) {
	a := wingBlockMatrix(t, 4, 3, 3, 3, 13)
	f, err := Factor(a, Options{Level: 0})
	if err != nil {
		t.Fatal(err)
	}
	if f.SolveFlops() <= 0 || f.SolveBytes() <= 0 {
		t.Error("nonpositive work estimates")
	}
}

func BenchmarkFactorILU1(b *testing.B) {
	a := wingBlockMatrix(b, 10, 8, 7, 4, 17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Factor(a, Options{Level: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestILUImprovesResidualProperty(t *testing.T) {
	// Property: for any seed, one application of ILU(0) on a diagonally
	// dominant wing matrix reduces the residual (reduction factor < 1).
	a := wingBlockMatrix(t, 5, 4, 4, 3, 1)
	f := func(seed uint16) bool {
		a.FillDeterministic(uint64(seed) + 1)
		fac, err := Factor(a, Options{Level: 0})
		if err != nil {
			return false
		}
		return residualReduction(a, fac) < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
