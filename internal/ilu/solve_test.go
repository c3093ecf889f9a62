package ilu

import (
	"fmt"
	"math"
	"testing"

	"petscfun3d/internal/mesh"
	"petscfun3d/internal/par"
	"petscfun3d/internal/sparse"
)

// logicalFactors is a factorization re-read as the combined-row CSR
// pattern it stands for: every row's blocks in ascending column order,
// the position of its diagonal, and the values widened to float64 — each
// block still column-major, as stored.
type logicalFactors struct {
	rowPtr, colIdx, diagK []int32
	val                   []float64
}

func logical(f *Factorization) logicalFactors {
	bb := f.B * f.B
	lf := logicalFactors{rowPtr: make([]int32, f.NB+1), diagK: make([]int32, f.NB)}
	for i := 0; i < f.NB; i++ {
		for s, seg := range f.rowSegments(i) {
			for k := int(seg[0]); k < int(seg[1]); k++ {
				if s == 1 {
					lf.diagK[i] = int32(len(lf.colIdx))
				}
				lf.colIdx = append(lf.colIdx, f.Col[k])
				for e := k * bb; e < k*bb+bb; e++ {
					if f.val32 != nil {
						lf.val = append(lf.val, float64(f.val32[e]))
					} else {
						lf.val = append(lf.val, f.val64[e])
					}
				}
			}
		}
		lf.rowPtr[i+1] = int32(len(lf.colIdx))
	}
	return lf
}

// referenceForward and referenceBackward are the substitution the row
// kernels replaced: generic over the block size, one (row, column)
// pattern, the diagonal multiply through a temporary. The kernels must
// reproduce each sweep bit for bit.
func referenceForward(lf logicalFactors, n int, b, x []float64) {
	for i := range lf.diagK {
		xi := x[i*n : i*n+n]
		copy(xi, b[i*n:i*n+n])
		for k := int(lf.rowPtr[i]); k < int(lf.diagK[i]); k++ {
			lf.subtract(n, xi, x, k)
		}
	}
}

func referenceBackward(lf logicalFactors, n int, x []float64) {
	bb := n * n
	tmp := make([]float64, n)
	for i := len(lf.diagK) - 1; i >= 0; i-- {
		xi := x[i*n : i*n+n]
		for k := int(lf.diagK[i]) + 1; k < int(lf.rowPtr[i+1]); k++ {
			lf.subtract(n, xi, x, k)
		}
		inv := lf.val[int(lf.diagK[i])*bb:][:bb]
		for r := 0; r < n; r++ {
			var s float64
			for c := 0; c < n; c++ {
				s += inv[c*n+r] * xi[c]
			}
			tmp[r] = s
		}
		copy(xi, tmp)
	}
}

// subtract is xi -= (block k)·x_j, each dot product summed from zero;
// entry (r, c) of a block is its scalar c·n + r.
func (lf logicalFactors) subtract(n int, xi, x []float64, k int) {
	xs := x[int(lf.colIdx[k])*n:][:n]
	blk := lf.val[k*n*n:][:n*n]
	for r := 0; r < n; r++ {
		var s float64
		for c := 0; c < n; c++ {
			s += blk[c*n+r] * xs[c]
		}
		xi[r] -= s
	}
}

// kernelRHS returns right-hand sides that exercise the corners of the
// kernels' arithmetic: ordinary values, zeros of either sign and
// denormals (the signed-zero and gradual-underflow paths), and one with
// a NaN and an infinity in it.
func kernelRHS(n int) map[string][]float64 {
	plain := make([]float64, n)
	s := uint64(n)
	for i := range plain {
		s = s*6364136223846793005 + 1442695040888963407
		plain[i] = float64(int64(s>>20)%2000)/1000 - 1
	}
	zeros := append([]float64(nil), plain...)
	for i := range zeros {
		switch i % 5 {
		case 0:
			zeros[i] = math.Copysign(0, -1)
		case 1:
			zeros[i] = 0
		case 2:
			zeros[i] = math.Float64frombits(uint64(i + 1)) // denormal
		case 3:
			zeros[i] = -1e-310
		}
	}
	// Zeros of random sign: every product is a zero, and a block row whose
	// four or five products are all -0 tells a sum started from +0 (the
	// row's -0 stays -0) from one started with its first product.
	signedZeros := make([]float64, n)
	for i := range signedZeros {
		s = s*6364136223846793005 + 1442695040888963407
		signedZeros[i] = math.Copysign(0, float64(int64(s>>40)%2)-0.5)
	}
	nonFinite := append([]float64(nil), plain...)
	nonFinite[n/3] = math.NaN()
	nonFinite[2*n/3] = math.Inf(1)
	return map[string][]float64{"plain": plain, "zeros+denormals": zeros, "signed zeros": signedZeros, "NaN+Inf": nonFinite}
}

// sameSolution compares two solutions bit for bit; a NaN must sit where
// a NaN is wanted (its payload is the one thing the hardware is free to
// choose by operand order).
func sameSolution(t *testing.T, who string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.IsNaN(want[i]) {
			if !math.IsNaN(got[i]) {
				t.Fatalf("%s: x[%d] = %x, want NaN", who, i, math.Float64bits(got[i]))
			}
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: x[%d] = %x, want %x", who, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestKernelsBitwiseGrid: each sweep of the row kernels, Solve, and
// SolvePar at every worker count are bit-equal to the reference
// substitution at every fill level, block size (the unrolled 4 and 5 and
// the fallback) and storage precision, in the kernel family the host
// runs — and where that is the assembly one, again in the Go family
// ("Go/…"), so that under the race detector the threaded solve also runs
// code it can see. The forward sweep is compared on its own because the
// diagonal multiply that ends the backward one erases the sign of a zero.
func TestKernelsBitwiseGrid(t *testing.T) {
	pools := map[int]*par.Pool{}
	for _, nw := range []int{1, 2, 4} {
		pools[nw] = par.New(nw)
		defer pools[nw].Close()
	}
	for _, b := range []int{1, 3, 4, 5, 7} {
		kernelsGridB(t, "", b, pools)
	}
	if kern != &goKernels {
		useKernels(t, &goKernels)
		for _, b := range []int{4, 5} {
			kernelsGridB(t, "Go/", b, pools)
		}
	}
}

func kernelsGridB(t *testing.T, prefix string, b int, pools map[int]*par.Pool) {
	a := wingBlockMatrix(t, 8, 5, 4, b, 42)
	for level := 0; level <= 2; level++ {
		for _, single := range []bool{false, true} {
			f, err := Factor(a, Options{Level: level, SinglePrecision: single})
			if err != nil {
				t.Fatal(err)
			}
			lf := logical(f)
			n := f.NB * f.B
			want, got := make([]float64, n), make([]float64, n)
			for name, rhs := range kernelRHS(n) {
				t.Run(fmt.Sprintf("%sB%d/level%d/single=%v/%s", prefix, b, level, single, name), func(t *testing.T) {
					referenceForward(lf, f.B, rhs, want)
					f.forward(nil, 0, f.NB, rhs, got, f.tmp)
					sameSolution(t, "forward sweep", got, want)
					referenceBackward(lf, f.B, want)
					f.backward(nil, 0, f.NB, got, f.tmp)
					sameSolution(t, "backward sweep", got, want)
					clear(got)
					f.Solve(rhs, got)
					sameSolution(t, "Solve", got, want)
					for nw, p := range pools {
						clear(got)
						f.SolvePar(p, rhs, got)
						sameSolution(t, fmt.Sprintf("SolvePar, %d workers", nw), got, want)
					}
				})
			}
		}
	}
}

// benchmarkTriSolve times Solve beside MulVec on the matrix it factored,
// at the paper's smallest mesh (22,677 vertices targeted; factors well
// beyond L2), each with SetBytes from its own cost formula so the two
// MB/s columns compare as fractions of the same STREAM rate.
func benchmarkTriSolve(b *testing.B, bs, level int, single, mulVec bool) {
	m, err := mesh.GenerateWingN(22677)
	if err != nil {
		b.Fatal(err)
	}
	m.Renumber(mesh.RCM(m))
	a := sparse.BlockPattern(sparse.Graph{NV: m.NumVertices(), XAdj: m.XAdj, Adj: m.Adj}, bs)
	a.FillDeterministic(17)
	f, err := Factor(a, Options{Level: level, SinglePrecision: single})
	if err != nil {
		b.Fatal(err)
	}
	rhs, x := make([]float64, a.N()), make([]float64, a.N())
	for i := range rhs {
		rhs[i] = 1 + float64(i%7)
	}
	if mulVec {
		b.SetBytes(a.MulVecBytes())
	} else {
		b.SetBytes(f.SolveBytes())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if mulVec {
			a.MulVec(rhs, x)
		} else {
			f.Solve(rhs, x)
		}
	}
}

func BenchmarkTriSolveDouble(b *testing.B)       { benchmarkTriSolve(b, 4, 0, false, false) }
func BenchmarkTriSolveSingle(b *testing.B)       { benchmarkTriSolve(b, 4, 0, true, false) }
func BenchmarkTriSolveMulVec(b *testing.B)       { benchmarkTriSolve(b, 4, 0, false, true) }
func BenchmarkTriSolveDoubleB5ILU1(b *testing.B) { benchmarkTriSolve(b, 5, 1, false, false) }
func BenchmarkTriSolveSingleB5ILU1(b *testing.B) { benchmarkTriSolve(b, 5, 1, true, false) }
func BenchmarkTriSolveMulVecB5(b *testing.B)     { benchmarkTriSolve(b, 5, 1, false, true) }
