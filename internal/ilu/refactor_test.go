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

// zeroBlock returns a copy of a with block (i, i) zeroed.
func zeroBlock(t *testing.T, a *sparse.BCSR, i int) *sparse.BCSR {
	t.Helper()
	c := &sparse.BCSR{NB: a.NB, B: a.B, RowPtr: a.RowPtr, ColIdx: a.ColIdx, Val: append([]float64(nil), a.Val...)}
	blk, ok := c.BlockAt(i, i)
	if !ok {
		t.Fatalf("no diagonal block in row %d", i)
	}
	clear(blk)
	return c
}

// TestRefactorSingularPivotIsRecoverable: a singular pivot block inside
// Refactor is a structured error naming the row, leaves the work array
// clean, and the next Refactor with a good matrix is bit-equal to a
// fresh Factor.
func TestRefactorSingularPivotIsRecoverable(t *testing.T) {
	for _, single := range []bool{false, true} {
		opts := Options{Level: 1, SinglePrecision: single}
		a1 := wingBlockMatrix(t, 6, 5, 4, 4, 11)
		a2 := wingBlockMatrix(t, 6, 5, 4, 4, 29)
		f, err := Factor(a1, opts)
		if err != nil {
			t.Fatal(err)
		}
		// Row 0 has no lower blocks, so its pivot is A's block itself.
		err = f.Refactor(zeroBlock(t, a2, 0))
		if err == nil || !strings.Contains(err.Error(), "singular pivot block at row 0") {
			t.Fatalf("single=%v: zeroed diagonal block gave %v, want a singular-pivot error naming row 0", single, err)
		}
		if !slotClean(f) {
			t.Fatalf("single=%v: failed Refactor left the slot work array dirty", single)
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

// TestMulSubMatchesMatMulThenSubtract pins the fused row-update kernel
// of every kernel family to the two-step form it replaced, bit for bit,
// signed zeros included.
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
		a, b, c, want, tmp := make([]float64, nn), make([]float64, nn), make([]float64, nn), make([]float64, nn), make([]float64, nn)
		s := uint64(n)
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			return float64(int64(s>>20)%2000)/1000 - 1
		}
		for trial := 0; trial < 20; trial++ {
			for i := 0; i < nn; i++ {
				a[i], b[i], c[i] = next(), next(), next()
			}
			// A row of negative zeros in a against a positive b and a
			// negative-zero row of c separates a sum accumulated from
			// zero (+0, so c stays -0) from one seeded with its first
			// product (-0, so c flips to +0). Row 0 of a column-major
			// block is every n-th scalar.
			a[nn-1] = 0
			if trial%2 == 1 {
				for i := 0; i < n; i++ {
					a[i*n], c[i*n] = negZero, negZero
				}
				for i := range b {
					b[i] = math.Abs(b[i])
				}
			}
			copy(want, c)
			matMul(a, b, tmp, n)
			for i := range want {
				want[i] -= tmp[i]
			}
			mulSub(c, a, b, n)
			for i := range want {
				if math.Float64bits(c[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: n=%d trial %d entry %d: %x, want %x", family, n, trial, i, math.Float64bits(c[i]), math.Float64bits(want[i]))
				}
			}
		}
	}
}

// TestMulRightMatchesMatMulThenCopy pins the in-place L-block multiply
// (A_ip ← A_ip·invU_pp) of every kernel family to the
// matMul-into-scratch-and-copy form it replaced, bit for bit, on
// column-major blocks: random blocks, signed zeros (a row of -0 against a
// positive b gives -0 products, so a sum seeded with its first product
// instead of +0 would come out -0), and denormals (whose products
// underflow and whose sums round differently in any other order).
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
		a, b, want, scratch := make([]float64, nn), make([]float64, nn), make([]float64, nn), make([]float64, nn)
		s := uint64(n) + 77
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			return float64(int64(s>>20)%2000)/1000 - 1
		}
		for trial := 0; trial < 30; trial++ {
			for i := 0; i < nn; i++ {
				a[i], b[i] = next(), next()
			}
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
			matMul(a, b, want, n)
			mulRight(a, b, scratch, n)
			for i := range want {
				if math.Float64bits(a[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: n=%d trial %d entry %d: %x, want %x", family, n, trial, i, math.Float64bits(a[i]), math.Float64bits(want[i]))
				}
			}
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
}
