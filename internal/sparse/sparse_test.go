package sparse

import (
	"math"
	"testing"
	"testing/quick"
)

// ringGraph builds a cyclic graph of nv vertices where v couples to v±1
// and v±2 (mod nv) — small, known structure for tests.
func ringGraph(nv int) Graph {
	xadj := make([]int32, nv+1)
	adj := make([]int32, 0, 4*nv)
	for v := 0; v < nv; v++ {
		for _, d := range []int{-2, -1, 1, 2} {
			adj = append(adj, int32(((v+d)%nv+nv)%nv))
		}
		xadj[v+1] = int32(len(adj))
	}
	return Graph{NV: nv, XAdj: xadj, Adj: adj}
}

// bandGraph is like ringGraph without the wraparound, so the graph
// bandwidth stays small (2) and layout effects on matrix bandwidth are
// visible.
func bandGraph(nv int) Graph {
	xadj := make([]int32, nv+1)
	adj := make([]int32, 0, 4*nv)
	for v := 0; v < nv; v++ {
		for _, d := range []int{-2, -1, 1, 2} {
			if w := v + d; w >= 0 && w < nv {
				adj = append(adj, int32(w))
			}
		}
		xadj[v+1] = int32(len(adj))
	}
	return Graph{NV: nv, XAdj: xadj, Adj: adj}
}

func denseMulVec(a *CSR, x []float64) []float64 {
	y := make([]float64, a.N)
	for i := 0; i < a.N; i++ {
		for j := 0; j < a.N; j++ {
			y[i] += a.At(i, j) * x[j]
		}
	}
	return y
}

func testVector(n int, seed uint64) []float64 {
	x := make([]float64, n)
	s := seed | 1
	for i := range x {
		s = s*6364136223846793005 + 1442695040888963407
		x[i] = float64(int64(s>>20)%1000) / 250.0
	}
	return x
}

func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestCSRMulVecMatchesDense(t *testing.T) {
	g := ringGraph(13)
	a := ScalarPattern(g, 3, Interlaced)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	a.FillDeterministic(7)
	x := testVector(a.N, 3)
	y := make([]float64, a.N)
	a.MulVec(x, y)
	want := denseMulVec(a, x)
	if d := maxAbsDiff(y, want); d > 1e-12 {
		t.Errorf("CSR MulVec differs from dense by %g", d)
	}
}

func TestBCSRMulVecMatchesCSR(t *testing.T) {
	for _, b := range []int{1, 2, 3, 4, 5, 6} {
		g := ringGraph(17)
		blk := BlockPattern(g, b)
		if err := blk.Validate(); err != nil {
			t.Fatalf("b=%d: %v", b, err)
		}
		blk.FillDeterministic(11)
		csr := blk.ToCSR()
		if err := csr.Validate(); err != nil {
			t.Fatalf("b=%d ToCSR: %v", b, err)
		}
		x := testVector(blk.N(), 5)
		yb := make([]float64, blk.N())
		yc := make([]float64, blk.N())
		blk.MulVec(x, yb)
		csr.MulVec(x, yc)
		if d := maxAbsDiff(yb, yc); d > 1e-12 {
			t.Errorf("b=%d: BCSR and CSR MulVec differ by %g", b, d)
		}
	}
}

// TestMulVecFlopsCountsTheProduct recounts MulVecFlops and MulVecBytes
// by walking RowPtr. Each stored block costs what its row kernel does
// with it: b row sums of b products (2b² flops), its values and a 4-byte
// column index. Each block row reads x's b scalars and writes y's once.
// MulVecRowsFlops over every block charges what MulVecFlops charges:
// the row-subset product runs the same kernels.
func TestMulVecFlopsCountsTheProduct(t *testing.T) {
	for _, b := range []int{4, 5} {
		a := BlockPattern(bandGraph(17), b)
		bb := int64(b * b)
		var flops, bytes int64
		for i := 0; i < a.NB; i++ {
			blocks := int64(a.RowPtr[i+1] - a.RowPtr[i])
			flops += blocks * 2 * bb
			bytes += blocks*(bb*8+4) + 2*int64(b)*8
		}
		if got := a.MulVecFlops(); got != flops {
			t.Errorf("b=%d: MulVecFlops = %d, recounted %d", b, got, flops)
		}
		if got := a.MulVecBytes(); got != bytes {
			t.Errorf("b=%d: MulVecBytes = %d, recounted %d", b, got, bytes)
		}
		if got := MulVecRowsFlops(len(a.ColIdx), b); got != a.MulVecFlops() {
			t.Errorf("b=%d: MulVecRowsFlops over every block = %d, MulVecFlops = %d", b, got, a.MulVecFlops())
		}
	}
}

func TestLayoutBandwidthContrast(t *testing.T) {
	// The central claim behind equations (1) and (2): interlacing keeps
	// matrix bandwidth ~ b*beta while noninterlacing pushes it to ~ N.
	g := bandGraph(100)
	b := 4
	inter := ScalarPattern(g, b, Interlaced)
	non := ScalarPattern(g, b, NonInterlaced)
	if err := inter.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := non.Validate(); err != nil {
		t.Fatal(err)
	}
	if inter.NNZ() != non.NNZ() {
		t.Fatalf("layouts disagree on nnz: %d vs %d", inter.NNZ(), non.NNZ())
	}
	bwI, bwN := inter.Bandwidth(), non.Bandwidth()
	// Graph bandwidth beta = 2, so interlaced matrix bandwidth is about
	// b*(beta+1) while noninterlaced reaches (b-1)*nv + beta ~ N.
	if bwN < (b-1)*g.NV {
		t.Errorf("noninterlaced bandwidth %d < (b-1)*nv = %d", bwN, (b-1)*g.NV)
	}
	if bwI > 2*b*3 {
		t.Errorf("interlaced bandwidth %d larger than expected ~%d", bwI, b*3)
	}
	if bwI*10 >= bwN {
		t.Errorf("interlaced bandwidth %d not << noninterlaced %d", bwI, bwN)
	}
}

func TestScalarPatternLayoutsEquivalent(t *testing.T) {
	// The two layouts must describe the same operator up to the layout
	// permutation: A_non (P x) = P (A_int x).
	g := ringGraph(23)
	b := 4
	inter := ScalarPattern(g, b, Interlaced)
	inter.FillDeterministic(21)
	perm := LayoutPerm(g.NV, b, NonInterlaced)
	non := Permute(inter, perm)

	x := testVector(inter.N, 31)
	yInt := make([]float64, inter.N)
	inter.MulVec(x, yInt)

	px := ConvertLayout(x, g.NV, b, Interlaced, NonInterlaced)
	yNon := make([]float64, non.N)
	non.MulVec(px, yNon)
	pyInt := ConvertLayout(yInt, g.NV, b, Interlaced, NonInterlaced)
	if d := maxAbsDiff(yNon, pyInt); d > 1e-12 {
		t.Errorf("layout-permuted operator differs by %g", d)
	}
}

func TestConvertLayoutRoundTrip(t *testing.T) {
	f := func(seed uint32) bool {
		nv, b := 17, 5
		x := testVector(nv*b, uint64(seed)+1)
		y := ConvertLayout(x, nv, b, Interlaced, NonInterlaced)
		z := ConvertLayout(y, nv, b, NonInterlaced, Interlaced)
		return maxAbsDiff(x, z) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestConvertLayoutPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	ConvertLayout(make([]float64, 7), 2, 4, Interlaced, NonInterlaced)
}

func TestBuilderAndAt(t *testing.T) {
	b := NewBuilder(4)
	b.Set(0, 0, 1)
	b.Add(0, 3, 2)
	b.Add(0, 3, 3) // accumulates to 5
	b.Set(2, 1, -1)
	a := b.Build()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.At(0, 0) != 1 || a.At(0, 3) != 5 || a.At(2, 1) != -1 {
		t.Errorf("unexpected entries: %v %v %v", a.At(0, 0), a.At(0, 3), a.At(2, 1))
	}
	if a.At(1, 1) != 0 || a.At(3, 0) != 0 {
		t.Error("missing entries should read as zero")
	}
	if a.NNZ() != 3 {
		t.Errorf("NNZ = %d, want 3", a.NNZ())
	}
}

func TestBlockAt(t *testing.T) {
	g := ringGraph(9)
	a := BlockPattern(g, 2)
	a.FillDeterministic(3)
	if _, ok := a.BlockAt(0, 5); ok {
		t.Error("BlockAt(0,5) should be absent in ring(±2) graph")
	}
	blk, ok := a.BlockAt(3, 4)
	if !ok {
		t.Fatal("BlockAt(3,4) should exist")
	}
	// Column-major: entry (r, c) of the block is blk[c*2+r].
	csr := a.ToCSR()
	for r := 0; r < 2; r++ {
		for c := 0; c < 2; c++ {
			if blk[c*2+r] != csr.At(6+r, 8+c) {
				t.Errorf("BlockAt entry (%d,%d) disagrees with ToCSR", r, c)
			}
		}
	}
}

func TestFillDeterministicDiagonallyDominant(t *testing.T) {
	g := ringGraph(15)
	a := ScalarPattern(g, 2, Interlaced)
	a.FillDeterministic(5)
	for i := 0; i < a.N; i++ {
		var off float64
		var diag float64
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if int(a.ColIdx[k]) == i {
				diag = a.Val[k]
			} else {
				off += math.Abs(a.Val[k])
			}
		}
		if diag <= off {
			t.Fatalf("row %d not diagonally dominant: diag=%g off=%g", i, diag, off)
		}
	}
}

func TestVecKernels(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if got := Dot(x, y); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	if got := Norm2([]float64{3, 4}); got != 5 {
		t.Errorf("Norm2 = %v, want 5", got)
	}
}

func TestMulVecPanicsOnShortVector(t *testing.T) {
	g := ringGraph(5)
	a := ScalarPattern(g, 1, Interlaced)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	a.MulVec(make([]float64, 2), make([]float64, a.N))
}

func TestPropertySpMVLinear(t *testing.T) {
	// Property: A(ax + by) = a*Ax + b*Ay for random vectors.
	g := ringGraph(11)
	a := BlockPattern(g, 4)
	a.FillDeterministic(17)
	n := a.N()
	f := func(seed uint32, ai, bi int8) bool {
		alpha, beta := float64(ai)/8, float64(bi)/8
		x := testVector(n, uint64(seed)+1)
		y := testVector(n, uint64(seed)+99)
		z := make([]float64, n)
		for i := range z {
			z[i] = alpha*x[i] + beta*y[i]
		}
		az := make([]float64, n)
		ax := make([]float64, n)
		ay := make([]float64, n)
		a.MulVec(z, az)
		a.MulVec(x, ax)
		a.MulVec(y, ay)
		for i := range az {
			if math.Abs(az[i]-(alpha*ax[i]+beta*ay[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestToBCSR1SharesStorageAndMatches(t *testing.T) {
	g := ringGraph(11)
	blk := BlockPattern(g, 3)
	blk.FillDeterministic(23)
	c := blk.ToCSR()
	b1 := c.ToBCSR1()
	if err := b1.Validate(); err != nil {
		t.Fatal(err)
	}
	if b1.NB != c.N || b1.B != 1 {
		t.Fatalf("shape %d/%d", b1.NB, b1.B)
	}
	x := testVector(c.N, 77)
	y1 := make([]float64, c.N)
	y2 := make([]float64, c.N)
	c.MulVec(x, y1)
	b1.MulVec(x, y2)
	if d := maxAbsDiff(y1, y2); d != 0 {
		t.Errorf("ToBCSR1 MulVec differs by %g", d)
	}
	// Shared storage: mutating one mutates the other.
	b1.Val[0] = 123.5
	if c.Val[0] != 123.5 {
		t.Error("storage not shared")
	}
}
