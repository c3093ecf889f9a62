package ilu

import "petscfun3d/internal/prof"

// Solve applies the factorization: x = (LU)⁻¹ b, via a block forward
// substitution (unit-diagonal L) followed by a block backward
// substitution using the pre-inverted U diagonal blocks. b and x must
// have length NB*B and may not alias. This triangular solve is the
// memory-bandwidth-bound kernel of the paper's Table 2: each stored
// factor value is read exactly once per solve, in storage order.
func (f *Factorization) Solve(b, x []float64) {
	sp := prof.Begin(prof.PhaseTriSolve)
	defer sp.End(f.SolveFlops(), f.SolveBytes())
	f.SolveNoSpan(b, x)
}

// SolveNoSpan is Solve for a pool task's workers (see FactorNoSpan).
func (f *Factorization) SolveNoSpan(b, x []float64) {
	b, x = f.vectors(b, x)
	f.forward(nil, 0, f.NB, b, x, f.tmp)
	f.backward(nil, 0, f.NB, x, f.tmp)
}

// vectors cuts b and x to the NB·B scalars a solve reads and writes, and
// panics if either is shorter: the assembly kernels index without checks.
func (f *Factorization) vectors(b, x []float64) ([]float64, []float64) {
	n := f.NB * f.B
	return b[:n], x[:n]
}

// The row kernels. Each runs one sweep's body for rows[lo:hi] — for the
// rows lo…hi-1 themselves when rows is nil — ascending in the forward
// sweep and descending in the backward one, the order their blocks are
// stored in. Solve passes the whole row range, SolvePar a level's row
// list; there is no other substitution loop. Storage is float32 or
// float64 by instantiation, arithmetic float64 either way. Per stored
// block, every kernel accumulates the B dot products of the block's rows
// with the gathered x from +0 in ascending column order (not from the
// first product: a -0 product would flip the sign of a zero result) and
// subtracts each from the row's running value once, so results are
// bitwise the same for every kernel, row set and worker count. Blocks are
// column-major, so the products of one x entry with one block column are
// B consecutive scalars — the row-parallel form the assembly twins run.

// forward runs y_i = b_i - Σ_{j<i} L_ij y_j, stored into x; tmp is B
// scalars of scratch owned by the caller.
func (f *Factorization) forward(rows []int32, lo, hi int, b, x, tmp []float64) {
	if f.val32 != nil {
		forwardRows(f, f.val32, &kern.f32, rows, lo, hi, b, x, tmp)
	} else {
		forwardRows(f, f.val64, &kern.f64, rows, lo, hi, b, x, tmp)
	}
}

// backward runs x_i = invU_ii (y_i - Σ_{j>i} U_ij x_j) in place; tmp is
// B scalars of scratch owned by the caller.
func (f *Factorization) backward(rows []int32, lo, hi int, x, tmp []float64) {
	if f.val32 != nil {
		backwardRows(f, f.val32, &kern.f32, rows, lo, hi, x, tmp)
	} else {
		backwardRows(f, f.val64, &kern.f64, rows, lo, hi, x, tmp)
	}
}

func forwardRows[T float32 | float64](f *Factorization, val []T, k *sweeps[T], rows []int32, lo, hi int, b, x, tmp []float64) {
	switch f.B {
	case 4:
		k.forward4(val, f.Col, f.LPtr, rows, lo, hi, b, x)
	case 5:
		k.forward5(val, f.Col, f.LPtr, rows, lo, hi, b, x)
	default:
		forwardN(val, f.Col, f.LPtr, rows, lo, hi, f.B, b, x, tmp)
	}
}

func backwardRows[T float32 | float64](f *Factorization, val []T, k *sweeps[T], rows []int32, lo, hi int, x, tmp []float64) {
	switch f.B {
	case 4:
		k.backward4(val, f.Col, f.UPtr, rows, lo, hi, x)
	case 5:
		k.backward5(val, f.Col, f.UPtr, rows, lo, hi, x)
	default:
		backwardN(val, f.Col, f.UPtr, rows, lo, hi, f.B, x, tmp)
	}
}

func forward4[T float32 | float64](val []T, col, lPtr, rows []int32, lo, hi int, b, x []float64) {
	for r := lo; r < hi; r++ {
		i := r
		if rows != nil {
			i = int(rows[r])
		}
		o := i * 4
		y0, y1, y2, y3 := b[o], b[o+1], b[o+2], b[o+3]
		start, end := int(lPtr[i]), int(lPtr[i+1])
		for k := start; k < end; k++ {
			j := int(col[k]) * 4                           //lint:bce-ok k is bounded by lPtr contents, a relation no slice length expresses
			x0, x1, x2, x3 := x[j], x[j+1], x[j+2], x[j+3] //lint:bce-ok gather through the block column index is data-dependent
			v := val[k*16 : k*16+16 : k*16+16]             //lint:bce-ok block offset is data-dependent through lPtr; the constant-length slice erases the 16 per-element checks below
			var s0, s1, s2, s3 float64
			s0 += float64(v[0]) * x0
			s1 += float64(v[1]) * x0
			s2 += float64(v[2]) * x0
			s3 += float64(v[3]) * x0
			s0 += float64(v[4]) * x1
			s1 += float64(v[5]) * x1
			s2 += float64(v[6]) * x1
			s3 += float64(v[7]) * x1
			s0 += float64(v[8]) * x2
			s1 += float64(v[9]) * x2
			s2 += float64(v[10]) * x2
			s3 += float64(v[11]) * x2
			s0 += float64(v[12]) * x3
			s1 += float64(v[13]) * x3
			s2 += float64(v[14]) * x3
			s3 += float64(v[15]) * x3
			y0 -= s0
			y1 -= s1
			y2 -= s2
			y3 -= s3
		}
		x[o], x[o+1], x[o+2], x[o+3] = y0, y1, y2, y3
	}
}

func backward4[T float32 | float64](val []T, col, uPtr, rows []int32, lo, hi int, x []float64) {
	for r := hi - 1; r >= lo; r-- {
		i := r
		if rows != nil {
			i = int(rows[r])
		}
		o := i * 4
		y0, y1, y2, y3 := x[o], x[o+1], x[o+2], x[o+3]
		start, end := int(uPtr[i+1]), int(uPtr[i])-1
		for k := start; k < end; k++ {
			j := int(col[k]) * 4                           //lint:bce-ok k is bounded by uPtr contents, a relation no slice length expresses
			x0, x1, x2, x3 := x[j], x[j+1], x[j+2], x[j+3] //lint:bce-ok gather through the block column index is data-dependent
			v := val[k*16 : k*16+16 : k*16+16]             //lint:bce-ok block offset is data-dependent through uPtr; the constant-length slice erases the 16 per-element checks below
			var s0, s1, s2, s3 float64
			s0 += float64(v[0]) * x0
			s1 += float64(v[1]) * x0
			s2 += float64(v[2]) * x0
			s3 += float64(v[3]) * x0
			s0 += float64(v[4]) * x1
			s1 += float64(v[5]) * x1
			s2 += float64(v[6]) * x1
			s3 += float64(v[7]) * x1
			s0 += float64(v[8]) * x2
			s1 += float64(v[9]) * x2
			s2 += float64(v[10]) * x2
			s3 += float64(v[11]) * x2
			s0 += float64(v[12]) * x3
			s1 += float64(v[13]) * x3
			s2 += float64(v[14]) * x3
			s3 += float64(v[15]) * x3
			y0 -= s0
			y1 -= s1
			y2 -= s2
			y3 -= s3
		}
		// The row's inverted diagonal block follows its U blocks.
		d := val[end*16 : end*16+16 : end*16+16]
		var t0, t1, t2, t3 float64
		t0 += float64(d[0]) * y0
		t1 += float64(d[1]) * y0
		t2 += float64(d[2]) * y0
		t3 += float64(d[3]) * y0
		t0 += float64(d[4]) * y1
		t1 += float64(d[5]) * y1
		t2 += float64(d[6]) * y1
		t3 += float64(d[7]) * y1
		t0 += float64(d[8]) * y2
		t1 += float64(d[9]) * y2
		t2 += float64(d[10]) * y2
		t3 += float64(d[11]) * y2
		t0 += float64(d[12]) * y3
		t1 += float64(d[13]) * y3
		t2 += float64(d[14]) * y3
		t3 += float64(d[15]) * y3
		x[o], x[o+1], x[o+2], x[o+3] = t0, t1, t2, t3
	}
}

func forward5[T float32 | float64](val []T, col, lPtr, rows []int32, lo, hi int, b, x []float64) {
	for r := lo; r < hi; r++ {
		i := r
		if rows != nil {
			i = int(rows[r])
		}
		o := i * 5
		y0, y1, y2, y3, y4 := b[o], b[o+1], b[o+2], b[o+3], b[o+4]
		start, end := int(lPtr[i]), int(lPtr[i+1])
		for k := start; k < end; k++ {
			j := int(col[k]) * 5                                       //lint:bce-ok k is bounded by lPtr contents, a relation no slice length expresses
			x0, x1, x2, x3, x4 := x[j], x[j+1], x[j+2], x[j+3], x[j+4] //lint:bce-ok gather through the block column index is data-dependent
			v := val[k*25 : k*25+25 : k*25+25]                         //lint:bce-ok block offset is data-dependent through lPtr; the constant-length slice erases the 25 per-element checks below
			var s0, s1, s2, s3, s4 float64
			s0 += float64(v[0]) * x0
			s1 += float64(v[1]) * x0
			s2 += float64(v[2]) * x0
			s3 += float64(v[3]) * x0
			s4 += float64(v[4]) * x0
			s0 += float64(v[5]) * x1
			s1 += float64(v[6]) * x1
			s2 += float64(v[7]) * x1
			s3 += float64(v[8]) * x1
			s4 += float64(v[9]) * x1
			s0 += float64(v[10]) * x2
			s1 += float64(v[11]) * x2
			s2 += float64(v[12]) * x2
			s3 += float64(v[13]) * x2
			s4 += float64(v[14]) * x2
			s0 += float64(v[15]) * x3
			s1 += float64(v[16]) * x3
			s2 += float64(v[17]) * x3
			s3 += float64(v[18]) * x3
			s4 += float64(v[19]) * x3
			s0 += float64(v[20]) * x4
			s1 += float64(v[21]) * x4
			s2 += float64(v[22]) * x4
			s3 += float64(v[23]) * x4
			s4 += float64(v[24]) * x4
			y0 -= s0
			y1 -= s1
			y2 -= s2
			y3 -= s3
			y4 -= s4
		}
		x[o], x[o+1], x[o+2], x[o+3], x[o+4] = y0, y1, y2, y3, y4
	}
}

func backward5[T float32 | float64](val []T, col, uPtr, rows []int32, lo, hi int, x []float64) {
	for r := hi - 1; r >= lo; r-- {
		i := r
		if rows != nil {
			i = int(rows[r])
		}
		o := i * 5
		y0, y1, y2, y3, y4 := x[o], x[o+1], x[o+2], x[o+3], x[o+4]
		start, end := int(uPtr[i+1]), int(uPtr[i])-1
		for k := start; k < end; k++ {
			j := int(col[k]) * 5                                       //lint:bce-ok k is bounded by uPtr contents, a relation no slice length expresses
			x0, x1, x2, x3, x4 := x[j], x[j+1], x[j+2], x[j+3], x[j+4] //lint:bce-ok gather through the block column index is data-dependent
			v := val[k*25 : k*25+25 : k*25+25]                         //lint:bce-ok block offset is data-dependent through uPtr; the constant-length slice erases the 25 per-element checks below
			var s0, s1, s2, s3, s4 float64
			s0 += float64(v[0]) * x0
			s1 += float64(v[1]) * x0
			s2 += float64(v[2]) * x0
			s3 += float64(v[3]) * x0
			s4 += float64(v[4]) * x0
			s0 += float64(v[5]) * x1
			s1 += float64(v[6]) * x1
			s2 += float64(v[7]) * x1
			s3 += float64(v[8]) * x1
			s4 += float64(v[9]) * x1
			s0 += float64(v[10]) * x2
			s1 += float64(v[11]) * x2
			s2 += float64(v[12]) * x2
			s3 += float64(v[13]) * x2
			s4 += float64(v[14]) * x2
			s0 += float64(v[15]) * x3
			s1 += float64(v[16]) * x3
			s2 += float64(v[17]) * x3
			s3 += float64(v[18]) * x3
			s4 += float64(v[19]) * x3
			s0 += float64(v[20]) * x4
			s1 += float64(v[21]) * x4
			s2 += float64(v[22]) * x4
			s3 += float64(v[23]) * x4
			s4 += float64(v[24]) * x4
			y0 -= s0
			y1 -= s1
			y2 -= s2
			y3 -= s3
			y4 -= s4
		}
		// The row's inverted diagonal block follows its U blocks.
		d := val[end*25 : end*25+25 : end*25+25]
		var t0, t1, t2, t3, t4 float64
		t0 += float64(d[0]) * y0
		t1 += float64(d[1]) * y0
		t2 += float64(d[2]) * y0
		t3 += float64(d[3]) * y0
		t4 += float64(d[4]) * y0
		t0 += float64(d[5]) * y1
		t1 += float64(d[6]) * y1
		t2 += float64(d[7]) * y1
		t3 += float64(d[8]) * y1
		t4 += float64(d[9]) * y1
		t0 += float64(d[10]) * y2
		t1 += float64(d[11]) * y2
		t2 += float64(d[12]) * y2
		t3 += float64(d[13]) * y2
		t4 += float64(d[14]) * y2
		t0 += float64(d[15]) * y3
		t1 += float64(d[16]) * y3
		t2 += float64(d[17]) * y3
		t3 += float64(d[18]) * y3
		t4 += float64(d[19]) * y3
		t0 += float64(d[20]) * y4
		t1 += float64(d[21]) * y4
		t2 += float64(d[22]) * y4
		t3 += float64(d[23]) * y4
		t4 += float64(d[24]) * y4
		x[o], x[o+1], x[o+2], x[o+3], x[o+4] = t0, t1, t2, t3, t4
	}
}

// forwardN and backwardN are the fallback for every other block size:
// per block, the B row sums accumulate in tmp one block column at a time.
func forwardN[T float32 | float64](val []T, col, lPtr, rows []int32, lo, hi, n int, b, x, tmp []float64) {
	bb := n * n
	for r := lo; r < hi; r++ {
		i := r
		if rows != nil {
			i = int(rows[r])
		}
		xi := x[i*n : i*n+n]
		s := tmp[:len(xi)]
		copy(xi, b[i*n:i*n+n])
		for k := int(lPtr[i]); k < int(lPtr[i+1]); k++ {
			j := int(col[k]) * n
			blk, xs := val[k*bb:k*bb+bb], x[j:j+n]
			clear(s)
			for c, xc := range xs {
				axpyCol(s, blk[c*n:c*n+n], xc) //lint:bce-ok one slice check per block column: c*n+n <= n*n relates lengths the prover cannot carry
			}
			for c, v := range s {
				xi[c] -= v
			}
		}
	}
}

func backwardN[T float32 | float64](val []T, col, uPtr, rows []int32, lo, hi, n int, x, tmp []float64) {
	bb := n * n
	for r := hi - 1; r >= lo; r-- {
		i := r
		if rows != nil {
			i = int(rows[r])
		}
		xi := x[i*n : i*n+n]
		s := tmp[:len(xi)]
		end := int(uPtr[i]) - 1
		for k := int(uPtr[i+1]); k < end; k++ {
			j := int(col[k]) * n
			blk, xs := val[k*bb:k*bb+bb], x[j:j+n]
			clear(s)
			for c, xc := range xs {
				axpyCol(s, blk[c*n:c*n+n], xc) //lint:bce-ok one slice check per block column: c*n+n <= n*n relates lengths the prover cannot carry
			}
			for c, v := range s {
				xi[c] -= v
			}
		}
		// The row's inverted diagonal block follows its U blocks.
		inv := val[end*bb : end*bb+bb]
		clear(s)
		for c, xc := range xi {
			axpyCol(s, inv[c*n:c*n+n], xc) //lint:bce-ok one slice check per block column: c*n+n <= n*n relates lengths the prover cannot carry
		}
		copy(xi, s)
	}
}

// axpyCol adds one block column times xc to the row sums s.
func axpyCol[T float32 | float64](s []float64, col []T, xc float64) {
	col = col[:len(s)] //lint:bce-ok ties len(col) to len(s): one range check per block column, not two per element
	for r, w := range col {
		s[r] += float64(w) * xc
	}
}

// SolveFlops returns the floating-point work of one Solve, counted from
// the kernels: a multiply and an add per stored scalar, plus, per
// off-diagonal block, the B subtractions of its dot products from the
// row's running value.
func (f *Factorization) SolveFlops() int64 {
	b := int64(f.B)
	return int64(len(f.Col))*(2*b*b+b) - int64(f.NB)*b
}

// SolveBytes returns the memory traffic of one Solve given the storage
// precision, counted from the kernels: every stored block read once, a
// column index per off-diagonal block, both row-pointer arrays, b read
// and x written by each sweep.
func (f *Factorization) SolveBytes() int64 {
	b := int64(f.B)
	valBytes := int64(f.BytesPerValue())
	return int64(len(f.Col))*(b*b*valBytes+4) - int64(f.NB)*4 + // blocks + off-diagonal column indices
		2*int64(f.NB+1)*4 + // lPtr, uPtr
		3*int64(f.NB)*b*8 // b read, x written twice
}
