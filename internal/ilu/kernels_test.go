package ilu

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
func families() []*blockKernels {
	fams := []*blockKernels{&goKernels}
	if avx2Kernels != nil {
		fams = append(fams, avx2Kernels)
	}
	return fams
}

// useKernels makes fam the family factorizations run until the test ends.
func useKernels(t testing.TB, fam *blockKernels) {
	prev := kern
	kern = fam
	t.Cleanup(func() { kern = prev })
}

// needAVX2 returns the assembly family, or skips with the reason there is
// none to compare.
func needAVX2(t testing.TB) *blockKernels {
	t.Helper()
	if avx2Kernels == nil {
		t.Skipf("no AVX2 kernels on this host (GOARCH=%s, or CPUID reports no AVX2): the Go kernels run, and there is no second family to compare", runtime.GOARCH)
	}
	return avx2Kernels
}

// specials are the values that take the kernels' arithmetic off its
// ordinary path: zeros of both signs, denormals of both signs and one at
// the bottom of the range, the extremes of the normal range, infinities
// and NaNs (quiet, with a payload, negative).
var specials = []float64{
	0, math.Copysign(0, -1),
	math.Float64frombits(1), -math.Float64frombits(0x000f_ffff_ffff_ffff), 5e-324, -1e-310,
	math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64, 1e-160, -1e-170,
	math.Inf(1), math.Inf(-1),
	math.NaN(), math.Float64frombits(0x7ff8_0000_0000_beef), math.Float64frombits(0xfff8_0000_0000_0001),
}

// randomBlock fills blk with values in [-1, 1), every third entry then
// replaced by a special value or by a value whose products round to a
// zero (so a sign of zero is decided by the order of the sum).
func randomBlock(blk []float64, s *uint64, specialRate int) {
	for i := range blk {
		*s = *s*6364136223846793005 + 1442695040888963407
		v := float64(int64(*s>>20)%2000)/1000 - 1
		switch r := int(*s>>50) % specialRate; {
		case r == 0:
			v = specials[int(*s>>40)%len(specials)]
		case r == 1:
			v *= 1e-200 // times another such entry: a product that rounds to ±0
		}
		blk[i] = v
	}
}

// TestBlockKernelsMatchGo: every AVX2 kernel is bit for bit its Go kernel
// — the elimination's row kernels on random blocks seeded with signed
// zeros, denormals, infinities, NaNs and products that round to -0 (row
// updates with dropped and with no updates, A's row loaded through a
// shuffled slot, pivot inversions, rounding to float32 at every length
// up to 40); the sweeps over B {4, 5} × fill {0, 1, 2} × precision ×
// {the whole range, the level row lists}, with right-hand sides holding
// the same; whole factorizations built by either family; and Solve ≡
// SolvePar at 1, 2 and 4 workers under the AVX2 family.
func TestBlockKernelsMatchGo(t *testing.T) {
	avx := needAVX2(t)
	t.Run("elimination", func(t *testing.T) {
		s := uint64(7)
		for _, n := range []int{4, 5} {
			nn := n * n
			for trial := 0; trial < 400; trial++ {
				rate := 3 + trial%5
				m := trial % 5
				val, pCols, slot := rowUpdateFixture(n, m, func(j int) bool { return (j+trial)%3 == 1 })
				randomBlock(val, &s, rate)
				if trial%4 == 1 {
					// A row of -0 in the L block against a positive inverse:
					// products of -0, so a sum seeded with its first product
					// would give -0.
					for k := 0; k < n; k++ {
						val[k*n] = math.Copysign(0, -1)
					}
					for i := (m + 1) * nn; i < (m+2)*nn; i++ {
						val[i] = math.Abs(val[i])
					}
				}
				want := append([]float64(nil), val...)
				pick(goKernels.rowUpdate4, goKernels.rowUpdate5, n)(want, 0, 1, pCols, slot)
				pick(avx.rowUpdate4, avx.rowUpdate5, n)(val, 0, 1, pCols, slot)
				sameSolution(t, fmt.Sprintf("rowUpdate%d trial %d (%d U blocks)", n, trial, m), val, want)

				kernelsAgreeOnRow(t, fmt.Sprintf("trial %d", trial), avx, n, val[:nn], val[nn:])
			}
		}
		for length := 0; length <= 40; length++ {
			src := make([]float64, length)
			randomBlock(src, &s, 3)
			got, want := make([]float32, length), make([]float32, length)
			goKernels.round32(want, src)
			avx.round32(got, src)
			for k := range want {
				if math.Float32bits(got[k]) != math.Float32bits(want[k]) {
					t.Fatalf("round32 of %d values: entry %d (%x) is %x, want %x", length, k, math.Float64bits(src[k]), math.Float32bits(got[k]), math.Float32bits(want[k]))
				}
			}
		}
	})
	pools := map[int]*par.Pool{}
	for _, nw := range []int{1, 2, 4} {
		pools[nw] = par.New(nw)
		defer pools[nw].Close()
	}
	for _, b := range []int{4, 5} {
		a := wingBlockMatrix(t, 8, 5, 4, b, 42)
		for level := 0; level <= 2; level++ {
			for _, single := range []bool{false, true} {
				t.Run(fmt.Sprintf("B%d/level%d/single=%v", b, level, single), func(t *testing.T) {
					opts := Options{Level: level, SinglePrecision: single}
					useKernels(t, &goKernels)
					want, err := Factor(a, opts)
					if err != nil {
						t.Fatal(err)
					}
					useKernels(t, avx)
					f, err := Factor(a, opts)
					if err != nil {
						t.Fatal(err)
					}
					sameFactors(t, f, want)
					n := f.NB * f.B
					sides := kernelRHS(n)
					withSpecials := append([]float64(nil), sides["plain"]...)
					for c := 0; c < n; c += 7 {
						withSpecials[c] = specials[c%len(specials)]
					}
					sides["specials"] = withSpecials
					for name, rhs := range sides {
						sweepsMatch(t, name, f, avx, rhs)
						ref := make([]float64, n)
						f.Solve(rhs, ref)
						for nw, p := range pools {
							got := make([]float64, n)
							f.SolvePar(p, rhs, got)
							sameSolution(t, fmt.Sprintf("%s: SolvePar at %d workers", name, nw), got, ref)
						}
					}
				})
			}
		}
	}
}

// kernelsAgreeOnRow runs the Go and fam's loadRow and pivot inversion on
// the same operands: A's row — the blocks of src, its columns shuffled
// into the blocks of val in reverse — and the inverse of blk, which
// must fail at the same column or give the same bits.
func kernelsAgreeOnRow(t *testing.T, who string, fam *blockKernels, n int, blk, src []float64) {
	t.Helper()
	nn := n * n
	nblk := len(src) / nn
	cols, slot := make([]int32, nblk), make([]int32, nblk)
	for k := range cols {
		cols[k] = int32(k)
		slot[k] = int32(nblk - 1 - k)
	}
	want, got := make([]float64, len(src)), make([]float64, len(src))
	pick(goKernels.loadRow4, goKernels.loadRow5, n)(want, src[:nblk*nn], cols, slot)
	pick(fam.loadRow4, fam.loadRow5, n)(got, src[:nblk*nn], cols, slot)
	sameBits(t, fmt.Sprintf("loadRow%d %s", n, who), got, want)

	wantInv, gotInv := append([]float64(nil), blk[:nn]...), append([]float64(nil), blk[:nn]...)
	aug := make([]float64, 2*nn)
	wantCol := pick(goKernels.invert4, goKernels.invert5, n)(wantInv, aug)
	gotCol := pick(fam.invert4, fam.invert5, n)(gotInv, aug)
	if gotCol != wantCol {
		t.Fatalf("invert%d %s: failed at column %d, want %d", n, who, gotCol, wantCol)
	}
	sameSolution(t, fmt.Sprintf("invert%d %s", n, who), gotInv, wantInv)
}

// pick returns the b = 4 or the b = 5 kernel of a pair.
func pick[F any](k4, k5 F, n int) F {
	if n == 4 {
		return k4
	}
	return k5
}

// sweepsMatch runs the forward and then the backward sweep of f with the
// Go kernels and with fam's, over the whole row range and over every
// level's row list, and compares them bit for bit after each sweep (the
// diagonal multiply that ends the backward one erases the sign of a zero).
func sweepsMatch(t *testing.T, name string, f *Factorization, fam *blockKernels, rhs []float64) {
	t.Helper()
	n := f.NB * f.B
	for _, byLevel := range []bool{false, true} {
		want, got := make([]float64, n), make([]float64, n)
		for _, fwd := range []bool{true, false} {
			run := func(k *blockKernels, x []float64) {
				sweep := func(rows []int32, lo, hi int) {
					switch {
					case f.val32 != nil && fwd:
						pick(k.f32.forward4, k.f32.forward5, f.B)(f.val32, f.Col, f.LPtr, rows, lo, hi, rhs, x)
					case f.val32 != nil:
						pick(k.f32.backward4, k.f32.backward5, f.B)(f.val32, f.Col, f.UPtr, rows, lo, hi, x)
					case fwd:
						pick(k.f64.forward4, k.f64.forward5, f.B)(f.val64, f.Col, f.LPtr, rows, lo, hi, rhs, x)
					default:
						pick(k.f64.backward4, k.f64.backward5, f.B)(f.val64, f.Col, f.UPtr, rows, lo, hi, x)
					}
				}
				rows, ptr := f.fwdRows, f.fwdPtr
				if !fwd {
					rows, ptr = f.bwdRows, f.bwdPtr
				}
				if !byLevel {
					sweep(nil, 0, f.NB)
					return
				}
				for l := 0; l+1 < len(ptr); l++ {
					sweep(rows, int(ptr[l]), int(ptr[l+1]))
				}
			}
			run(&goKernels, want)
			run(fam, got)
			sameSolution(t, fmt.Sprintf("%s: forward=%v sweep (level lists %v)", name, fwd, byLevel), got, want)
		}
	}
}

// FuzzBlockKernels feeds arbitrary 64-bit patterns into the blocks of
// one row update (an L block, its inverse, three U blocks of which the
// level rule drops one, and their destinations), into the load, the
// inversion and the float32 rounding of the blocks it leaves, and into
// the blocks, x and right-hand side of one forward and one backward row,
// at B = 4 and 5 and in both storage precisions (a float32 block takes
// the low half of each pattern), and requires the AVX2 kernels to give
// the Go kernels' bits.
// The patterns are used cyclically, so an input of up to 32 of them
// reaches every operand; longer inputs are skipped, which keeps the
// engine's minimization of a new input short.
func FuzzBlockKernels(f *testing.F) {
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
		fill64 := func(dst []float64) {
			for i := range dst {
				dst[i] = math.Float64frombits(words[next%len(words)])
				next++
			}
		}
		fill32 := func(dst []float32) {
			for i := range dst {
				dst[i] = math.Float32frombits(uint32(words[next%len(words)]))
				next++
			}
		}
		for _, n := range []int{4, 5} {
			nn := n * n
			// One L block against three U blocks, the second dropped.
			val, pCols, slot := rowUpdateFixture(n, 3, func(j int) bool { return j == 1 })
			fill64(val)
			want := append([]float64(nil), val...)
			pick(goKernels.rowUpdate4, goKernels.rowUpdate5, n)(want, 0, 1, pCols, slot)
			pick(avx.rowUpdate4, avx.rowUpdate5, n)(val, 0, 1, pCols, slot)
			sameSolution(t, fmt.Sprintf("rowUpdate%d", n), val, want)
			kernelsAgreeOnRow(t, "", avx, n, val[:nn], val[nn:])
			r32, w32 := make([]float32, len(val)), make([]float32, len(val))
			goKernels.round32(w32, val)
			avx.round32(r32, val)
			for k := range w32 {
				if math.Float32bits(r32[k]) != math.Float32bits(w32[k]) {
					t.Fatalf("round32: entry %d (%x) is %x, want %x", k, math.Float64bits(val[k]), math.Float32bits(r32[k]), math.Float32bits(w32[k]))
				}
			}

			// Three block rows. Forward: row 2 reads rows 0 and 1 through
			// two L blocks. Backward: row 0 reads rows 1 and 2 through two U
			// blocks, then its inverted pivot.
			col, lPtr := []int32{0, 1, 1, 2, 0}, []int32{0, 0, 0, 2}
			uPtr := []int32{5, 2, 2, 2}
			rhs, x0 := make([]float64, 3*n), make([]float64, 3*n)
			fill64(rhs)
			fill64(x0)
			v64, v32 := make([]float64, 5*nn), make([]float32, 5*nn)
			fill64(v64)
			fill32(v32)
			want, got := make([]float64, 3*n), make([]float64, 3*n)
			for _, rows := range [][]int32{nil, {2, 0}} {
				lo, hi := 2, 3
				if rows != nil {
					lo, hi = 0, 2 // rows[0:2] is {2, 0}: the row list path
				}
				copy(want, x0)
				copy(got, x0)
				pick(goKernels.f64.forward4, goKernels.f64.forward5, n)(v64, col, lPtr, rows, lo, hi, rhs, want)
				pick(avx.f64.forward4, avx.f64.forward5, n)(v64, col, lPtr, rows, lo, hi, rhs, got)
				sameSolution(t, fmt.Sprintf("forward%d float64", n), got, want)
				copy(want, x0)
				copy(got, x0)
				pick(goKernels.f32.forward4, goKernels.f32.forward5, n)(v32, col, lPtr, rows, lo, hi, rhs, want)
				pick(avx.f32.forward4, avx.f32.forward5, n)(v32, col, lPtr, rows, lo, hi, rhs, got)
				sameSolution(t, fmt.Sprintf("forward%d float32", n), got, want)
			}
			copy(want, x0)
			copy(got, x0)
			pick(goKernels.f64.backward4, goKernels.f64.backward5, n)(v64, col, uPtr, nil, 0, 1, want)
			pick(avx.f64.backward4, avx.f64.backward5, n)(v64, col, uPtr, nil, 0, 1, got)
			sameSolution(t, fmt.Sprintf("backward%d float64", n), got, want)
			copy(want, x0)
			copy(got, x0)
			pick(goKernels.f32.backward4, goKernels.f32.backward5, n)(v32, col, uPtr, nil, 0, 1, want)
			pick(avx.f32.backward4, avx.f32.backward5, n)(v32, col, uPtr, nil, 0, 1, got)
			sameSolution(t, fmt.Sprintf("backward%d float32", n), got, want)
		}
	})
}
