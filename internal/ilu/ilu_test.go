package ilu

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"petscfun3d/internal/mesh"
	"petscfun3d/internal/par"
	"petscfun3d/internal/prof"
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
	if col := invertBlock(src, dst, 3, make([]float64, 18)); col >= 0 {
		t.Fatalf("zero pivot in column %d", col)
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
	if col := invertBlock(inPlace, inPlace, 3, make([]float64, 18)); col >= 0 {
		t.Fatalf("zero pivot in column %d", col)
	}
	for i := range dst {
		if inPlace[i] != dst[i] {
			t.Fatalf("in-place inverse differs at %d: %g vs %g", i, inPlace[i], dst[i])
		}
	}
	singular := []float64{1, 2, 2, 4}
	if invertBlock(singular, make([]float64, 4), 2, make([]float64, 8)) < 0 {
		t.Error("singular block inverted")
	}
	nan := []float64{math.NaN(), 1, 1, 2}
	if invertBlock(nan, make([]float64, 4), 2, make([]float64, 8)) < 0 {
		t.Error("block with a NaN pivot inverted")
	}

	// The written-out inversions of every family are invertBlock bit for
	// bit: on random blocks, on blocks holding special values, and
	// failing at the same column.
	s := uint64(3)
	for _, fam := range families() {
		for _, n := range []int{4, 5} {
			blk := make([]float64, n*n)
			for trial := 0; trial < 300; trial++ {
				randomBlock(blk, &s, 2+trial%6)
				for i := 0; i < n; i++ {
					blk[i*n+i] += float64(trial%3) * 2 // mostly, but not always, dominant
				}
				invertMatchesGeneric(t, fmt.Sprintf("%s n=%d trial %d", fam.name, n, trial), fam, blk, n)
			}
		}
	}
}

// invertMatchesGeneric inverts blk with fam's written-out inversion and
// with invertBlock, and fails unless both fail at the same column or
// both give the same bits (any NaN matching any NaN).
func invertMatchesGeneric(t *testing.T, who string, fam *blockKernels, blk []float64, n int) {
	t.Helper()
	want, got := append([]float64(nil), blk...), append([]float64(nil), blk...)
	wantCol := invertBlock(want, want, n, make([]float64, 2*n*n))
	gotCol := pick(fam.invert4, fam.invert5, n)(got, make([]float64, 2*n*n))
	if gotCol != wantCol {
		t.Fatalf("%s: written-out inverse fails at column %d, invertBlock at %d", who, gotCol, wantCol)
	}
	if wantCol < 0 {
		sameSolution(t, who, got, want)
	}
}

// TestInvertPivotRejectsNaN: a NaN anywhere in a 4×4 or 5×5 diag(4)
// block fails the pivot inversion in every kernel family — on the
// diagonal by the pivot test, off it by the non-finite inverse — and
// the NaN-free block inverts.
func TestInvertPivotRejectsNaN(t *testing.T) {
	for _, fam := range families() {
		useKernels(t, fam)
		for _, n := range []int{4, 5} {
			aug := make([]float64, 2*n*n)
			blk := make([]float64, n*n)
			for at := -1; at < n*n; at++ {
				clear(blk)
				for d := 0; d < n; d++ {
					blk[d*n+d] = 4
				}
				if at >= 0 {
					blk[at] = math.NaN()
				}
				err := invertPivot(blk, n, aug)
				if (err == nil) != (at < 0) {
					t.Errorf("%s n=%d NaN at %d: invertPivot gave %v", fam.name, n, at, err)
				}
			}
		}
	}
}

func TestInvertBlockNeedsPivoting(t *testing.T) {
	// Zero in the (0,0) position requires a row swap.
	src := []float64{0, 1, 1, 0}
	dst := make([]float64, 4)
	if col := invertBlock(src, dst, 2, make([]float64, 8)); col >= 0 {
		t.Fatalf("zero pivot in column %d", col)
	}
	if dst[0] != 0 || dst[1] != 1 || dst[2] != 1 || dst[3] != 0 {
		t.Errorf("inverse of swap = %v", dst)
	}
	// The written-out inversions choose invertBlock's pivots: the pivot
	// found in the last row (an anti-diagonal block, every column), ties
	// in magnitude going to the first row (±2 in every row of a column,
	// and rows equal up to sign), and a pivot row that changes twice in
	// one search.
	for _, fam := range families() {
		for _, n := range []int{4, 5} {
			nn := n * n
			anti, ties, signs, climb := make([]float64, nn), make([]float64, nn), make([]float64, nn), make([]float64, nn)
			for i := 0; i < n; i++ {
				anti[i*n+n-1-i] = float64(i + 2) // column i's only entry, in row n-1-i
				for j := 0; j < n; j++ {
					ties[j*n+i] = 2
					if (i+j)%2 == 1 {
						ties[j*n+i] = -2
					}
					signs[j*n+i] = float64(j + 1)
					climb[j*n+i] = float64((i*7+j*3)%5) + 0.5
				}
				ties[i*n+i] += 0.5 * float64(i)
				if i%2 == 1 {
					for j := 0; j < n; j++ {
						signs[j*n+i] = -signs[j*n+i] + 0.25*float64(i*j)
					}
				}
				climb[i] = float64(i) // column 0 ascends: every row beats the last
			}
			for name, blk := range map[string][]float64{"anti-diagonal": anti, "tied": ties, "signs": signs, "climbing": climb} {
				invertMatchesGeneric(t, fmt.Sprintf("%s n=%d %s", fam.name, n, name), fam, blk, n)
			}
		}
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

// TestSolveFlopsPositive recounts SolveFlops and SolveBytes by walking
// the factors row by row through LPtr and UPtr, on the counted ILU(0)
// b = 4 and ILU(1) b = 5 factorizations in both precisions. Each stored
// L or U block costs what its sweep's row kernel does with it: b²
// products summed from +0 and b subtractions from the row's running
// value (2b² + b flops), its values at the storage precision and a
// 4-byte column index. The pivot inverse's apply is b² products summed
// from +0 (2b² flops) over its values, with no index. Each row reads
// b once and writes x twice (3b float64s) and one entry of each pointer
// array, which has one more entry at its end.
func TestSolveFlopsPositive(t *testing.T) {
	for _, c := range countedFactorCases {
		for _, single := range []bool{false, true} {
			a := wingBlockMatrix(t, 6, 5, 4, c.b, 11)
			f, err := Factor(a, Options{Level: c.level, SinglePrecision: single})
			if err != nil {
				t.Fatal(err)
			}
			b, v := int64(f.B), int64(f.BytesPerValue())
			var flops, bytes int64
			for i := 0; i < f.NB; i++ {
				lower := int64(f.LPtr[i+1] - f.LPtr[i])
				upper := int64(f.UPtr[i] - 1 - f.UPtr[i+1]) // the inverse follows the U blocks
				flops += (lower+upper)*(2*b*b+b) + 2*b*b
				bytes += (lower+upper)*(b*b*v+4) + b*b*v + 3*b*8 + 2*4
			}
			bytes += 2 * 4
			if flops <= 0 || bytes <= 0 {
				t.Fatalf("B=%d ILU(%d): recounted %d flops and %d bytes", c.b, c.level, flops, bytes)
			}
			if got := f.SolveFlops(); got != flops {
				t.Errorf("B=%d ILU(%d) single=%v: SolveFlops = %d, recounted %d", c.b, c.level, single, got, flops)
			}
			if got := f.SolveBytes(); got != bytes {
				t.Errorf("B=%d ILU(%d) single=%v: SolveBytes = %d, recounted %d", c.b, c.level, single, got, bytes)
			}
		}
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

// TestSpansChargeTheirFormulas: Factor, Refactor, Solve and SolvePar
// each record exactly one span charged their cost formulas; a Factor
// that fails closes its span uncharged; the NoSpan variants record
// nothing. These are the ilu_factor and tri_solve rows the roofline
// tables read.
func TestSpansChargeTheirFormulas(t *testing.T) {
	p := par.New(2)
	defer p.Close()
	for _, single := range []bool{false, true} {
		opts := Options{Level: 1, SinglePrecision: single}
		a := wingBlockMatrix(t, 6, 5, 4, 4, 11)
		bad := fillBlock(t, a, 0, singularPivots[0].set)
		f, err := Factor(a, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(f.fwdPtr) == 0 {
			t.Fatal("factorization has no level schedule; SolvePar would not take the pooled path")
		}
		n := f.NB * f.B
		b := make([]float64, n)
		for i := range b {
			b[i] = float64(i%7) - 3
		}
		x := make([]float64, n)
		factor := prof.PhaseStat{Calls: 1, Flops: f.FactorFlops(), Bytes: f.FactorBytes()}
		solve := prof.PhaseStat{Calls: 1, Flops: f.SolveFlops(), Bytes: f.SolveBytes()}
		none := map[string]prof.PhaseStat{}
		cases := []struct {
			name    string
			run     func() error
			wantErr bool
			want    map[string]prof.PhaseStat
		}{
			{"factor", func() error { _, err := Factor(a, opts); return err }, false,
				map[string]prof.PhaseStat{"ilu_factor": factor}},
			{"singular factor", func() error { _, err := Factor(bad, opts); return err }, true,
				map[string]prof.PhaseStat{"ilu_factor": {Calls: 1}}},
			{"refactor", func() error { return f.Refactor(a) }, false,
				map[string]prof.PhaseStat{"ilu_factor": factor}},
			{"solve", func() error { f.Solve(b, x); return nil }, false,
				map[string]prof.PhaseStat{"tri_solve": solve}},
			{"pooled solve", func() error { f.SolvePar(p, b, x); return nil }, false,
				map[string]prof.PhaseStat{"tri_solve": solve}},
			{"factor without span", func() error { _, err := FactorNoSpan(a, opts); return err }, false, none},
			{"refactor without span", func() error { return f.RefactorNoSpan(a) }, false, none},
			{"solve without span", func() error { f.SolveNoSpan(b, x); return nil }, false, none},
		}
		for _, c := range cases {
			prof.Default.Reset()
			prof.Default.Enable()
			err := c.run()
			prof.Default.Disable()
			rep := prof.Default.Report(0)
			prof.Default.Reset()
			if (err != nil) != c.wantErr {
				t.Fatalf("single=%v %s: error %v, want error %v", single, c.name, err, c.wantErr)
			}
			if len(rep.Phases) != len(c.want) {
				t.Errorf("single=%v %s: recorded phases %+v, want %v", single, c.name, rep.Phases, c.want)
			}
			for _, st := range rep.Phases {
				w, ok := c.want[st.Phase]
				if !ok || st.Calls != w.Calls || st.Flops != w.Flops || st.Bytes != w.Bytes {
					t.Errorf("single=%v %s: phase %s has %d calls, %d flops, %d bytes; want %+v",
						single, c.name, st.Phase, st.Calls, st.Flops, st.Bytes, w)
				}
			}
		}
	}
}

// countOpsByBruteForce recounts one numeric pass's block operations from
// the layout alone, without slot: row i's columns as a set, one L-block
// multiply per L block, one update of row i by pivot p for every column
// of row p's U blocks the set holds, one inversion per row. It also
// returns the updates the level rule drops.
func countOpsByBruteForce(f *Factorization) (mulSub, mulRight, invert, dropped int64) {
	for i := 0; i < f.NB; i++ {
		inRow := map[int32]bool{}
		for _, j := range f.Col[f.LPtr[i]:f.LPtr[i+1]] {
			inRow[j] = true
		}
		for _, j := range f.Col[f.UPtr[i+1]:f.UPtr[i]] {
			inRow[j] = true
		}
		for _, p := range f.Col[f.LPtr[i]:f.LPtr[i+1]] {
			mulRight++
			for _, j := range f.Col[f.UPtr[p+1] : f.UPtr[p]-1] {
				if inRow[j] {
					mulSub++
				} else {
					dropped++
				}
			}
		}
		invert++
	}
	return mulSub, mulRight, invert, dropped
}

// countedFactorCases are the two shapes the charge is recounted on: the
// paper's incompressible ILU(0) and compressible ILU(1) factorizations.
var countedFactorCases = []struct{ b, level int }{{4, 0}, {5, 1}}

// TestFactorFlopsCountsTheElimination: FactorFlops is the recounted
// operations times the flops each kernel's loops execute per call — a
// row update's n² sums of n products accumulated from +0 and one
// subtraction each, an L-block multiply's n² such sums, and a pivot
// inversion's reciprocal, 2n scalings and 2n multiply-subtracts in each
// other row per column of [A | I].
func TestFactorFlopsCountsTheElimination(t *testing.T) {
	for _, c := range countedFactorCases {
		a := wingBlockMatrix(t, 6, 5, 4, c.b, 11)
		f, err := Factor(a, Options{Level: c.level, SinglePrecision: true})
		if err != nil {
			t.Fatal(err)
		}
		n := int64(c.b)
		mulSub, mulRight, invert, dropped := countOpsByBruteForce(f)
		if mulSub == 0 || dropped == 0 {
			t.Fatalf("B=%d ILU(%d): %d kept and %d dropped updates; the fixture should have both", c.b, c.level, mulSub, dropped)
		}
		var perInvert int64
		for col := int64(0); col < n; col++ {
			perInvert++        // the pivot's reciprocal
			perInvert += 2 * n // the pivot row scaled
			for r := int64(0); r < n; r++ {
				if r != col {
					perInvert += 2 * (2 * n) // a multiply and a subtraction per scalar of the row
				}
			}
		}
		perMulSub := n * n * (n + n + 1) // per entry: n products, n additions from +0, one subtraction
		perMulRight := n * n * (n + n)
		want := mulSub*perMulSub + mulRight*perMulRight + invert*perInvert
		if got := f.FactorFlops(); got != want {
			t.Errorf("B=%d ILU(%d): FactorFlops = %d, recounted %d (%d updates, %d L-block multiplies, %d inversions)",
				c.b, c.level, got, want, mulSub, mulRight, invert)
		}
	}
}

// TestFactorBytesCountsTheTraffic: FactorBytes is A's values at 8 bytes,
// every stored factor value at the storage precision, and one 4-byte
// read of each index array the numeric pass walks — A's RowPtr and
// ColIdx, the layout's Col, LPtr and UPtr — summed from the arrays
// themselves.
func TestFactorBytesCountsTheTraffic(t *testing.T) {
	for _, c := range countedFactorCases {
		for _, single := range []bool{false, true} {
			a := wingBlockMatrix(t, 6, 5, 4, c.b, 11)
			f, err := Factor(a, Options{Level: c.level, SinglePrecision: single})
			if err != nil {
				t.Fatal(err)
			}
			want := int64(8*len(a.Val) + 8*len(f.val64) + 4*len(f.val32) +
				4*(len(a.RowPtr)+len(a.ColIdx)+len(f.Col)+len(f.LPtr)+len(f.UPtr)))
			if got := f.FactorBytes(); got != want {
				t.Errorf("B=%d ILU(%d) single=%v: FactorBytes = %d, recounted %d", c.b, c.level, single, got, want)
			}
		}
	}
}
