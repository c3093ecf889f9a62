package sparse

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"testing"

	"petscfun3d/internal/par"
)

// families returns the kernel families this host runs: the Go kernels,
// and the assembly ones where the host has them.
func families() []*spmvKernels {
	fams := []*spmvKernels{&goKernels}
	if avx2Kernels != nil {
		fams = append(fams, avx2Kernels)
	}
	return fams
}

// needAVX2 returns the assembly family, or skips with the reason there is
// none to compare.
func needAVX2(t testing.TB) *spmvKernels {
	t.Helper()
	if avx2Kernels == nil {
		t.Skipf("no AVX2 kernels on this host (GOARCH=%s, or CPUID reports no AVX2): the Go kernels run, and there is no second family to compare", runtime.GOARCH)
	}
	return avx2Kernels
}

// useKernels makes fam the family the products run until the test ends.
func useKernels(t testing.TB, fam *spmvKernels) {
	prev := kern
	kern = fam
	t.Cleanup(func() { kern = prev })
}

// specials are the values that take the kernels' arithmetic off its
// ordinary path: zeros of both signs, denormals, the extremes of the
// normal range, infinities and NaNs.
var specials = []float64{
	0, math.Copysign(0, -1),
	math.Float64frombits(1), -math.Float64frombits(0x000f_ffff_ffff_ffff), -1e-310,
	math.MaxFloat64, -math.MaxFloat64, 1e-160, -1e-170,
	math.Inf(1), math.Inf(-1),
	math.NaN(), math.Float64frombits(0xfff8_0000_0000_0001),
}

// fillSpecial fills v with values in [-1, 1), one in every rate replaced
// by a special value and one by a value whose products round to zero, so
// the sign of a zero sum is decided by the order of the adds.
func fillSpecial(v []float64, s *uint64, rate int) {
	for i := range v {
		*s = *s*6364136223846793005 + 1442695040888963407
		x := float64(int64(*s>>20)%2000)/1000 - 1
		switch r := int(*s>>50) % rate; {
		case r == 0:
			x = specials[int(*s>>40)%len(specials)]
		case r == 1:
			x *= 1e-200
		}
		v[i] = x
	}
}

// sameBits fails unless got and want are equal bit for bit, any NaN
// matching any NaN.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.IsNaN(want[i]) && math.IsNaN(got[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: y[%d] = %v (%#x), the Go kernel gives %v (%#x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// kernelMatrix is an nb-row matrix of b×b blocks whose rows cycle through
// empty, diagonal-only, one off-diagonal block, and a band of up to ±4.
func kernelMatrix(nb, b int) *BCSR {
	rows := make([][]int32, nb)
	for i := range rows {
		switch i % 5 {
		case 0:
		case 1:
			rows[i] = []int32{int32(i)}
		case 2:
			rows[i] = []int32{int32((i * 7) % nb)}
		default:
			for j := max(0, i-4); j < min(nb, i+5); j++ {
				if j == i || (i+j)%3 != 0 {
					rows[i] = append(rows[i], int32(j))
				}
			}
		}
	}
	return NewBCSRPattern(nb, b, rows)
}

// splitColumns cuts a by columns into D (columns below split) and O (the
// rest) and lists the rows O populates.
func splitColumns(a *BCSR, split int32) (d, o *BCSR, rows []int32) {
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
	d, o = NewBCSRPattern(a.NB, a.B, lo), NewBCSRPattern(a.NB, a.B, hi)
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
	return d, o, rows
}

// TestMulVecKernelsMatchGo: the AVX2 products are bit for bit the Go
// kernels' at b = 4 and 5, on matrices with empty and one-block rows and
// with −0, denormals, ±Inf, NaN and zero-rounding products in the values,
// in x and in the y they add into — over row ranges and row lists, from
// +0 and from y; MulVecAddRows as the second half of a [D | O] column
// split, which must give the bits of the unsplit MulVec; and MulVecPar
// at 1 to 4 workers.
func TestMulVecKernelsMatchGo(t *testing.T) {
	avx := needAVX2(t)
	pools := map[int]*par.Pool{}
	for nw := 1; nw <= 4; nw++ {
		pools[nw] = par.New(nw)
		defer pools[nw].Close()
	}
	s := uint64(11)
	for _, b := range []int{4, 5} {
		for _, v := range []struct {
			name    string
			rate    int  // one value in rate is special
			negZero bool // row 0 of every block −0 against a positive x, y all −0
		}{{"specials/1in3", 3, false}, {"specials/1in7", 7, false}, {"plain", 1 << 30, false}, {"negzero", 1 << 30, true}} {
			t.Run(fmt.Sprintf("B%d/%s", b, v.name), func(t *testing.T) {
				a := kernelMatrix(53, b)
				fillSpecial(a.Val, &s, v.rate)
				n := a.N()
				x, y0 := make([]float64, n), make([]float64, n)
				fillSpecial(x, &s, v.rate)
				fillSpecial(y0, &s, v.rate)
				if v.negZero {
					// Row 0's block sums are −0, and −0 + −0 keeps the
					// row at −0 only if each sum starts from its first
					// product rather than from +0.
					for k := 0; k < len(a.Val); k += b {
						a.Val[k] = math.Copysign(0, -1)
					}
					for i := range x {
						x[i], y0[i] = math.Abs(x[i]), math.Copysign(0, -1)
					}
				}

				want, got := make([]float64, n), make([]float64, n)
				all := make([]int32, a.NB)
				for i := range all {
					all[i] = int32(a.NB - 1 - i) // descending: the list, not the range, decides the rows
				}
				for _, c := range []struct {
					rows   []int32
					lo, hi int
				}{{nil, 0, a.NB}, {nil, 5, 20}, {all, 0, a.NB}, {all, 3, 9}, {all, 7, 7}} {
					for _, add := range []bool{false, true} {
						copy(want, y0)
						copy(got, y0)
						goKernels.mulVec(a, c.rows, c.lo, c.hi, add, x, want)
						avx.mulVec(a, c.rows, c.lo, c.hi, add, x, got)
						sameBits(t, fmt.Sprintf("positions %d…%d (row list %v), add %v", c.lo, c.hi, c.rows != nil, add), got, want)
					}
				}

				useKernels(t, avx)
				goKernels.mulVec(a, nil, 0, a.NB, false, x, want)
				d, o, rows := splitColumns(a, 23)
				clear(got)
				d.MulVec(x, got)
				o.MulVecAddRows(rows, x, got)
				sameBits(t, "[D | O] split", got, want)
				for nw, p := range pools {
					clear(got)
					a.MulVecPar(p, x, got)
					sameBits(t, fmt.Sprintf("MulVecPar at %d workers", nw), got, want)
				}
			})
		}
	}
}

// TestMulVecKernelsStopOnBadIndex: a matrix whose column index, row
// extent or listed row points outside it makes the AVX2 product stop
// before that row, having written the rows before it as the Go kernel
// does, and the Go kernel then panics on it as it always did.
func TestMulVecKernelsStopOnBadIndex(t *testing.T) {
	avx := needAVX2(t)
	const bad = 18 // the row the defect is in: a band row of several blocks
	for _, b := range []int{4, 5} {
		for _, defect := range []string{"column", "negative column", "extent", "listed row"} {
			a := kernelMatrix(40, b)
			a.FillDeterministic(5)
			x := testVector(a.N(), 3)
			rows := []int32{3, 9, bad, 30}
			switch defect {
			case "column":
				a.ColIdx[a.RowPtr[bad]+1] = int32(a.NB)
			case "negative column":
				a.ColIdx[a.RowPtr[bad]] = -1
			case "extent":
				a.RowPtr[bad+1] = int32(len(a.ColIdx) + 1)
			case "listed row":
				rows[2] = int32(a.NB)
			}
			for _, fam := range []*spmvKernels{&goKernels, avx} {
				for _, sweep := range []string{"MulVec", "MulVecAddRows"} {
					y := make([]float64, a.N())
					panicked := func() (p bool) {
						defer func() { p = recover() != nil }()
						if sweep == "MulVec" {
							fam.mulVec(a, nil, 0, a.NB, false, x, y)
						} else {
							fam.mulVec(a, rows, 0, len(rows), true, x, y)
						}
						return false
					}()
					what := fmt.Sprintf("b=%d %s %s, %s family", b, defect, sweep, fam.name)
					if sweep == "MulVec" && defect == "listed row" {
						if panicked {
							t.Fatalf("%s: panicked on a well-formed matrix", what)
						}
						continue
					}
					if !panicked {
						t.Fatalf("%s: no panic", what)
					}
					want := make([]float64, a.N())
					if sweep == "MulVec" {
						goKernels.mulVec(a, nil, 0, bad, false, x, want)
					} else {
						goKernels.mulVec(a, rows, 0, 2, true, x, want)
					}
					sameBits(t, what, y, want)
				}
			}
		}
	}
}

// FuzzMulVecKernels feeds arbitrary 64-bit patterns into the blocks, x
// and the starting y of a three-row matrix — row 0 two blocks, row 1
// none, row 2 one — at b = 4 and 5, and requires the AVX2 MulVec and
// MulVecAddRows to give the Go kernels' bits. The patterns are used
// cyclically, so an input of up to 32 of them reaches every operand;
// longer inputs are skipped, which keeps minimization short.
func FuzzMulVecKernels(f *testing.F) {
	seed := func(vals ...float64) []byte {
		out := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
		}
		return out
	}
	f.Add(seed(specials...))
	f.Add(seed(1, -1, 0.5, math.Copysign(0, -1), 1e-200, 1e-200, -3))
	f.Add(seed(math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, -5e-324, math.MaxFloat64))
	f.Fuzz(func(t *testing.T, data []byte) {
		avx := needAVX2(t)
		if len(data) < 8 || len(data) > 8*32 {
			return
		}
		words := make([]uint64, len(data)/8)
		for i := range words {
			words[i] = binary.LittleEndian.Uint64(data[8*i:])
		}
		next := 0
		fill := func(dst []float64) {
			for i := range dst {
				dst[i] = math.Float64frombits(words[next%len(words)])
				next++
			}
		}
		for _, b := range []int{4, 5} {
			a := NewBCSRPattern(3, b, [][]int32{{0, 2}, nil, {1}})
			fill(a.Val)
			x, y0 := make([]float64, a.N()), make([]float64, a.N())
			fill(x)
			fill(y0)
			want, got := make([]float64, a.N()), make([]float64, a.N())
			goKernels.mulVec(a, nil, 0, a.NB, false, x, want)
			avx.mulVec(a, nil, 0, a.NB, false, x, got)
			sameBits(t, fmt.Sprintf("MulVec b=%d", b), got, want)
			copy(want, y0)
			copy(got, y0)
			goKernels.mulVec(a, []int32{2, 1, 0}, 0, 3, true, x, want)
			avx.mulVec(a, []int32{2, 1, 0}, 0, 3, true, x, got)
			sameBits(t, fmt.Sprintf("MulVecAddRows b=%d", b), got, want)
		}
	})
}
