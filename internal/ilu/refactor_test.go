package ilu

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"petscfun3d/internal/sparse"
)

// sameFactors fails unless two factorizations hold bit-equal layout and
// values in every array a solve or a later Refactor reads.
func sameFactors(t *testing.T, got, want *Factorization) {
	t.Helper()
	if got.NB != want.NB || got.B != want.B {
		t.Fatalf("shape %d/%d, want %d/%d", got.NB, got.B, want.NB, want.B)
	}
	sameIdx := func(name string, g, w []int32) {
		if len(g) != len(w) {
			t.Fatalf("%s: %d entries, want %d", name, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s[%d] = %d, want %d", name, i, g[i], w[i])
			}
		}
	}
	sameIdx("lPtr", got.LPtr, want.LPtr)
	sameIdx("uPtr", got.UPtr, want.UPtr)
	sameIdx("col", got.Col, want.Col)
	if len(got.val64) != len(want.val64) || len(got.val32) != len(want.val32) {
		t.Fatalf("%d/%d values, want %d/%d", len(got.val64), len(got.val32), len(want.val64), len(want.val32))
	}
	for i, w := range want.val64 {
		if math.Float64bits(got.val64[i]) != math.Float64bits(w) {
			t.Fatalf("val64[%d] = %x, want %x", i, math.Float64bits(got.val64[i]), math.Float64bits(w))
		}
	}
	for i, w := range want.val32 {
		if math.Float32bits(got.val32[i]) != math.Float32bits(w) {
			t.Fatalf("val32[%d] = %x, want %x", i, math.Float32bits(got.val32[i]), math.Float32bits(w))
		}
	}
}

func slotClean(f *Factorization) bool {
	for _, s := range f.slot {
		if s != -1 {
			return false
		}
	}
	return true
}

// TestRefactorBitwiseGrid: a factorization built for one matrix and
// refactored with another of the same pattern is bit-equal to a fresh
// factorization of the second, at every fill level, block size and
// storage precision.
func TestRefactorBitwiseGrid(t *testing.T) {
	for _, b := range []int{1, 4, 5, 7} {
		a1 := wingBlockMatrix(t, 6, 5, 4, b, 11)
		a2 := wingBlockMatrix(t, 6, 5, 4, b, 29)
		for level := 0; level <= 2; level++ {
			for _, single := range []bool{false, true} {
				t.Run(fmt.Sprintf("B%d/level%d/single=%v", b, level, single), func(t *testing.T) {
					opts := Options{Level: level, SinglePrecision: single}
					fresh, err := Factor(a2, opts)
					if err != nil {
						t.Fatal(err)
					}
					f, err := Factor(a1, opts)
					if err != nil {
						t.Fatal(err)
					}
					if err := f.Refactor(a2); err != nil {
						t.Fatal(err)
					}
					sameFactors(t, f, fresh)
					if !slotClean(f) {
						t.Fatal("Refactor left the slot work array dirty")
					}
					// And back: nothing of a2 survives a refresh with a1.
					first, err := Factor(a1, opts)
					if err != nil {
						t.Fatal(err)
					}
					if err := f.Refactor(a1); err != nil {
						t.Fatal(err)
					}
					sameFactors(t, f, first)
				})
			}
		}
	}
}

// fillBlock returns a copy of a whose block (i, i) is set by set.
func fillBlock(t *testing.T, a *sparse.BCSR, i int, set func(blk []float64)) *sparse.BCSR {
	t.Helper()
	c := &sparse.BCSR{NB: a.NB, B: a.B, RowPtr: a.RowPtr, ColIdx: a.ColIdx, Val: append([]float64(nil), a.Val...)}
	blk, ok := c.BlockAt(i, i)
	if !ok {
		t.Fatalf("no diagonal block in row %d", i)
	}
	set(blk)
	return c
}

// singularPivots are pivot blocks the numeric pass must reject: all
// zero, all NaN, and diag(4) with one NaN above the diagonal, which
// passes every pivot test of the elimination.
var singularPivots = []struct {
	name string
	set  func(blk []float64)
}{
	{"zero", func(blk []float64) { clear(blk) }},
	{"NaN", func(blk []float64) {
		for k := range blk {
			blk[k] = math.NaN()
		}
	}},
	{"diag(4) with a NaN above the diagonal", func(blk []float64) {
		clear(blk)
		n := int(math.Sqrt(float64(len(blk))))
		for d := 0; d < n; d++ {
			blk[d*n+d] = 4
		}
		blk[n] = math.NaN() // row 0, column 1: blocks are column-major
	}},
}

// TestRefactorSingularPivotIsRecoverable: a singular pivot block inside
// Refactor — zero, NaN, which no magnitude test passes, or a NaN above
// the diagonal, which leaves only the inverse non-finite — is a structured
// error naming the row, in every kernel family and at every block size
// with its own inversion; it leaves the work array clean, and the next
// Refactor with a good matrix is bit-equal to a fresh Factor.
func TestRefactorSingularPivotIsRecoverable(t *testing.T) {
	for _, fam := range families() {
		useKernels(t, fam)
		for _, b := range []int{4, 5, 7} {
			for _, single := range []bool{false, true} {
				for _, pivot := range singularPivots {
					who := fmt.Sprintf("%s B=%d single=%v pivot block %s", fam.name, b, single, pivot.name)
					opts := Options{Level: 1, SinglePrecision: single}
					a1 := wingBlockMatrix(t, 6, 5, 4, b, 11)
					a2 := wingBlockMatrix(t, 6, 5, 4, b, 29)
					f, err := Factor(a1, opts)
					if err != nil {
						t.Fatal(err)
					}
					// Row 0 has no lower blocks, so its pivot is A's block itself.
					err = f.Refactor(fillBlock(t, a2, 0, pivot.set))
					if err == nil || !strings.Contains(err.Error(), "singular pivot block at row 0") {
						t.Fatalf("%s: gave %v, want a singular-pivot error naming row 0", who, err)
					}
					if !slotClean(f) {
						t.Fatalf("%s: failed Refactor left the slot work array dirty", who)
					}
					if err := f.Refactor(a2); err != nil {
						t.Fatal(err)
					}
					fresh, err := Factor(a2, opts)
					if err != nil {
						t.Fatal(err)
					}
					sameFactors(t, f, fresh)
				}
			}
		}
	}
}

// TestRefactorRejectsOtherPattern: a matrix of another shape or with one
// column moved is an error, and the factors are not touched.
func TestRefactorRejectsOtherPattern(t *testing.T) {
	a := wingBlockMatrix(t, 6, 5, 4, 4, 11)
	f, err := Factor(a, Options{Level: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := append([]float64(nil), f.val64...)
	moved := &sparse.BCSR{NB: a.NB, B: a.B, RowPtr: a.RowPtr, ColIdx: append([]int32(nil), a.ColIdx...), Val: a.Val}
	// Move row 0's last block one column to the right (still sorted,
	// still in range on this mesh).
	last := moved.RowPtr[1] - 1
	moved.ColIdx[last]++
	if int(moved.ColIdx[last]) >= a.NB {
		t.Fatal("fixture: moved column out of range")
	}
	for name, other := range map[string]*sparse.BCSR{
		"other NB":         wingBlockMatrix(t, 5, 5, 4, 4, 11),
		"other B":          wingBlockMatrix(t, 6, 5, 4, 5, 11),
		"one column moved": moved,
	} {
		err := f.Refactor(other)
		if err == nil || !strings.Contains(err.Error(), "pattern mismatch") {
			t.Errorf("%s: Refactor returned %v, want a pattern-mismatch error", name, err)
		}
	}
	for i, v := range before {
		if math.Float64bits(f.val64[i]) != math.Float64bits(v) {
			t.Fatalf("rejected Refactor changed factor value %d", i)
		}
	}
}

// TestRefactorSteadyStateAllocs: the numeric refresh allocates nothing,
// at the unrolled block sizes and at the fallback's — B = 7 inverts its
// pivots in factorization-owned scratch like the rest.
func TestRefactorSteadyStateAllocs(t *testing.T) {
	for _, b := range []int{1, 4, 5, 7} {
		for _, single := range []bool{false, true} {
			a := wingBlockMatrix(t, 6, 5, 4, b, 11)
			f, err := Factor(a, Options{Level: 1, SinglePrecision: single})
			if err != nil {
				t.Fatal(err)
			}
			avg := testing.AllocsPerRun(10, func() {
				if err := f.Refactor(a); err != nil {
					t.Fatal(err)
				}
			})
			if avg > 0 {
				t.Fatalf("B=%d single=%v: Refactor allocates %.1f objects per call", b, single, avg)
			}
		}
	}
}

// rowUpdateFixture lays out what rowUpdate reads for one L block of
// n×n blocks: the L block (the factor) at block 0, row p's m U blocks at
// 1…m — their columns are 0…m-1 — and its inverted pivot at m+1, and the
// blocks of the row being eliminated from m+2 on: slot maps column j to
// block m+2+j, or to -1 where drop(j) (fill dropped by the level rule).
func rowUpdateFixture(n, m int, drop func(j int) bool) (val []float64, pCols, slot []int32) {
	val = make([]float64, (2*m+2)*n*n)
	pCols, slot = make([]int32, m), make([]int32, m)
	for j := range pCols {
		pCols[j] = int32(j)
		slot[j] = int32(m + 2 + j)
		if drop(j) {
			slot[j] = -1
		}
	}
	return val, pCols, slot
}

// rowUpdateByMatMul is rowUpdate in the two-step form the kernels
// replaced: the L block times the inverse through matMul and a copy,
// then each kept update as a matMul into a temporary and a subtraction.
func rowUpdateByMatMul(val []float64, pCols, slot []int32, n int) {
	bb, m := n*n, len(pCols)
	tmp := make([]float64, bb)
	matMul(val[:bb], val[(m+1)*bb:(m+2)*bb], tmp, n)
	copy(val[:bb], tmp)
	for kp, j := range pCols {
		if d := int(slot[j]); d >= 0 {
			matMul(val[:bb], val[(1+kp)*bb:(2+kp)*bb], tmp, n)
			for i, v := range tmp {
				val[d*bb+i] -= v
			}
		}
	}
}

// sameBits fails unless got and want hold the same bits.
func sameBits(t *testing.T, who string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: entry %d: %x, want %x", who, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestMulSubMatchesMatMulThenSubtract pins the row updates of every
// kernel family (mulSub's per-entry sequence inside rowUpdate) to the
// two-step form they replaced, bit for bit, signed zeros included, with
// updates dropped by the level rule and with none at all.
func TestMulSubMatchesMatMulThenSubtract(t *testing.T) {
	for _, fam := range families() {
		useKernels(t, fam)
		mulSubMatchesMatMul(t, fam.name)
	}
}

func mulSubMatchesMatMul(t *testing.T, family string) {
	negZero := math.Copysign(0, -1)
	for _, n := range []int{1, 2, 4, 5, 7} {
		nn := n * n
		s := uint64(n)
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			return float64(int64(s>>20)%2000)/1000 - 1
		}
		for trial := 0; trial < 20; trial++ {
			m := trial % 4
			val, pCols, slot := rowUpdateFixture(n, m, func(j int) bool { return (j+trial)%3 == 2 })
			for i := range val {
				val[i] = next()
			}
			if trial%2 == 1 && m > 0 {
				// A positive L block and inverse give a positive product;
				// against a U block whose column 0 is -0 every term of that
				// column is -0, which separates a sum accumulated from zero
				// (+0, so a -0 destination stays -0) from one seeded with
				// its first product (-0, so it flips to +0).
				for i := 0; i < nn; i++ {
					val[i], val[(m+1)*nn+i] = math.Abs(val[i]), math.Abs(val[(m+1)*nn+i])
				}
				for k := 0; k < n; k++ {
					val[nn+k] = negZero
					for d := m + 2; d < 2*m+2; d++ {
						val[d*nn+k] = negZero
					}
				}
			}
			want := append([]float64(nil), val...)
			rowUpdateByMatMul(want, pCols, slot, n)
			rowUpdate(val, 0, 1, pCols, slot, n, make([]float64, nn))
			sameBits(t, fmt.Sprintf("%s: n=%d trial %d (%d U blocks)", family, n, trial, m), val, want)
		}
	}
}

// TestMulRightMatchesMatMulThenCopy pins the in-place L-block multiply
// (A_ip ← A_ip·invU_pp, mulRight's sequence inside rowUpdate) of every
// kernel family to the matMul-into-scratch-and-copy form it replaced, bit
// for bit, on column-major blocks: random blocks, signed zeros (a row of
// -0 against a positive inverse gives -0 products, so a sum seeded with
// its first product instead of +0 would come out -0), and denormals
// (whose products underflow and whose sums round differently in any
// other order) — alone, and followed by updates that read the product.
func TestMulRightMatchesMatMulThenCopy(t *testing.T) {
	for _, fam := range families() {
		useKernels(t, fam)
		mulRightMatchesMatMul(t, fam.name)
	}
}

func mulRightMatchesMatMul(t *testing.T, family string) {
	negZero := math.Copysign(0, -1)
	denormal := math.Float64frombits(0x000f_0000_0000_0001)
	for _, n := range []int{1, 2, 4, 5, 7} {
		nn := n * n
		s := uint64(n) + 77
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			return float64(int64(s>>20)%2000)/1000 - 1
		}
		for trial := 0; trial < 30; trial++ {
			m := (trial / 3) % 2 * 2 // none, or two updates
			val, pCols, slot := rowUpdateFixture(n, m, func(int) bool { return false })
			for i := range val {
				val[i] = next()
			}
			a, b := val[:nn], val[(m+1)*nn:(m+2)*nn]
			switch trial % 3 {
			case 1:
				for i := 0; i < n; i++ {
					a[i*n] = negZero // row 0
				}
				a[nn-1] = 0
				for i := range b {
					b[i] = math.Abs(b[i])
				}
			case 2:
				for i := 0; i < nn; i += 2 {
					a[i] *= denormal
				}
				b[0], b[nn-1] = denormal, -denormal
			}
			want := append([]float64(nil), val...)
			rowUpdateByMatMul(want, pCols, slot, n)
			rowUpdate(val, 0, 1, pCols, slot, n, make([]float64, nn))
			sameBits(t, fmt.Sprintf("%s: n=%d trial %d (%d U blocks)", family, n, trial, m), val, want)
		}
	}
}

func BenchmarkRefactorILU0(b *testing.B)   { benchmarkRefactor(b, 4, 0) }
func BenchmarkRefactorILU1B5(b *testing.B) { benchmarkRefactor(b, 5, 1) }

func benchmarkRefactor(b *testing.B, bs, level int) {
	a := wingBlockMatrix(b, 20, 14, 10, bs, 7)
	f, err := Factor(a, Options{Level: level})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Refactor(a); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(f.FactorFlops())*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gflop/s")
}
