package ilu

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"petscfun3d/internal/mesh"
	"petscfun3d/internal/sparse"
)

// orderedBlockMatrix is wingBlockMatrix's 6×5×4 matrix under a vertex
// ordering: "rcm"; "natural", the generator's own; or "arrow", the
// natural order with the two ends of one edge moved to the first and the
// last row, so that the last row reads row 0 and every U segment stays
// live to the end.
func orderedBlockMatrix(t *testing.T, ordering string, b int, seed uint64) *sparse.BCSR {
	t.Helper()
	m, err := mesh.GenerateWing(mesh.DefaultWingSpec(6, 5, 4))
	if err != nil {
		t.Fatal(err)
	}
	switch ordering {
	case "rcm":
		m = m.Renumber(mesh.RCM(m))
	case "arrow":
		nv := m.NumVertices()
		v := nv / 2
		w := int(m.Neighbors(v)[0])
		order := []int32{int32(v)}
		for u := 0; u < nv; u++ {
			if u != v && u != w {
				order = append(order, int32(u))
			}
		}
		m = m.Renumber(mesh.NewOrdering(append(order, int32(w))))
	}
	a := sparse.BlockPattern(sparse.Graph{NV: m.NumVertices(), XAdj: m.XAdj, Adj: m.Adj}, b)
	a.FillDeterministic(seed)
	return a
}

// zeroRow returns a copy of a with every block of row i zeroed: the row
// stays zero through its elimination, so its pivot block is singular
// after the rows before it have been factored.
func zeroRow(a *sparse.BCSR, i int) *sparse.BCSR {
	c := &sparse.BCSR{NB: a.NB, B: a.B, RowPtr: a.RowPtr, ColIdx: a.ColIdx, Val: append([]float64(nil), a.Val...)}
	bb := a.B * a.B
	clear(c.Val[int(a.RowPtr[i])*bb : int(a.RowPtr[i+1])*bb])
	return c
}

// roundedDouble fails unless single holds, bit for bit, the float32
// rounding of double's factors — and no float64 copy of them.
func roundedDouble(t *testing.T, single, double *Factorization) {
	t.Helper()
	if single.val64 != nil {
		t.Fatal("float32 storage keeps a float64 factor array")
	}
	if len(single.val32) != len(double.val64) {
		t.Fatalf("%d float32 values, %d float64", len(single.val32), len(double.val64))
	}
	for k, v := range double.val64 {
		if math.Float32bits(single.val32[k]) != math.Float32bits(float32(v)) {
			t.Fatalf("val32[%d] = %x, want float32(val64[%d]) = %x", k, math.Float32bits(single.val32[k]), k, math.Float32bits(float32(v)))
		}
	}
}

// windowIntact walks the elimination in plan: while row i is eliminated
// in its slot of the ring, the slot lies inside the ring and touches no
// segment of the rows need(i)…i-1 that row i or a later row still reads.
// It returns the ring's capacity and the U block count.
func windowIntact(t *testing.T, f *Factorization) (ring, uBlocks int32) {
	t.Helper()
	nb := f.NB
	need := make([]int32, nb+1)
	need[nb] = int32(nb)
	maxL := 0
	for i := nb - 1; i >= 0; i-- {
		need[i] = min(need[i+1], int32(i))
		if f.LPtr[i] < f.LPtr[i+1] {
			need[i] = min(need[i], f.Col[f.LPtr[i]])
		}
		maxL = max(maxL, int(f.LPtr[i+1]-f.LPtr[i]))
	}
	seg := func(r int) (lo, hi int32) { return f.uOff[r], f.uOff[r] + f.UPtr[r] - f.UPtr[r+1] }
	for i := 0; i < nb; i++ {
		lo, hi := seg(i)
		if lo < 0 || hi > f.lBuf {
			t.Fatalf("row %d: slot [%d, %d) outside the ring of %d blocks", i, lo, hi, f.lBuf)
		}
		for r := int(need[i]); r < i; r++ {
			if rlo, rhi := seg(r); lo < rhi && rlo < hi {
				t.Fatalf("row %d: slot [%d, %d) overlaps row %d's live segment [%d, %d)", i, lo, hi, r, rlo, rhi)
			}
		}
	}
	if want := (int(f.lBuf) + maxL) * f.B * f.B; len(f.elim) != want {
		t.Fatalf("window of %d scalars, want ring + longest L row = %d", len(f.elim), want)
	}
	return f.lBuf, f.UPtr[0] - f.UPtr[nb]
}

// TestSinglePrecisionIsRoundedDouble pins what float32 storage is: the
// float64 factorization, every stored value rounded once — after Factor
// and after a Refactor that follows a refresh a singular pivot stopped
// half way — with no float64 copy of the factors, a window whose plan
// never puts a row on a segment still to be read, and a refresh that
// allocates nothing in either precision.
func TestSinglePrecisionIsRoundedDouble(t *testing.T) {
	for _, b := range []int{1, 3, 4, 5, 7} {
		for level := 0; level <= 2; level++ {
			for _, ordering := range []string{"rcm", "natural", "arrow"} {
				t.Run(fmt.Sprintf("B%d/level%d/%s", b, level, ordering), func(t *testing.T) {
					a1 := orderedBlockMatrix(t, ordering, b, 11)
					a2 := orderedBlockMatrix(t, ordering, b, 29)
					factor := func(a *sparse.BCSR, single bool) *Factorization {
						f, err := Factor(a, Options{Level: level, SinglePrecision: single})
						if err != nil {
							t.Fatal(err)
						}
						return f
					}
					double, single := factor(a2, false), factor(a2, true)
					roundedDouble(t, single, double)
					ring, uBlocks := windowIntact(t, single)
					switch ordering {
					case "arrow":
						if ring != uBlocks {
							t.Errorf("ring of %d blocks, want every U block (%d): the last row reads row 0", ring, uBlocks)
						}
					case "rcm":
						if ring >= uBlocks {
							t.Errorf("ring of %d blocks under RCM, want fewer than the %d U blocks", ring, uBlocks)
						}
					}
					for _, f := range []*Factorization{factor(a1, false), factor(a1, true)} {
						err := f.Refactor(zeroRow(a2, a2.NB/2))
						if want := fmt.Sprintf("singular pivot block at row %d", a2.NB/2); err == nil || !strings.Contains(err.Error(), want) {
							t.Fatalf("zeroed row gave %v, want %q", err, want)
						}
						if err := f.Refactor(a2); err != nil {
							t.Fatal(err)
						}
						if f.val32 != nil {
							sameFactors(t, f, single)
							roundedDouble(t, f, double)
						} else {
							sameFactors(t, f, double)
						}
						if avg := testing.AllocsPerRun(2, func() {
							if err := f.Refactor(a2); err != nil {
								t.Fatal(err)
							}
						}); avg > 0 {
							t.Errorf("single=%v: Refactor allocates %.1f objects per call", f.val32 != nil, avg)
						}
					}
				})
			}
		}
	}
}
