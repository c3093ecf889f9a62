package ilu

import (
	"math"
	"testing"

	"petscfun3d/internal/par"
)

// levelFixture factors a wing matrix for the schedule tests.
func levelFixture(t testing.TB, b, level int, single bool) *Factorization {
	t.Helper()
	a := wingBlockMatrix(t, 8, 5, 4, b, 42)
	f, err := Factor(a, Options{Level: level, SinglePrecision: single})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestLayoutInvariants: the solve-order storage holds every logical
// block of the fill pattern exactly once — L stream ascending by row, U
// stream descending by row, each row's diagonal last in its U range —
// every block column-major, and the level schedule is a valid one for
// the dependencies it stores.
func TestLayoutInvariants(t *testing.T) {
	for _, level := range []int{0, 1, 2} {
		a := wingBlockMatrix(t, 8, 5, 4, 4, 42)
		f, err := Factor(a, Options{Level: level})
		if err != nil {
			t.Fatal(err)
		}
		nb, nnzb := f.NB, int32(f.NNZBlocks())
		if len(f.LPtr) != nb+1 || len(f.UPtr) != nb+1 || f.LPtr[0] != 0 || f.UPtr[nb] != f.LPtr[nb] || f.UPtr[0] != nnzb {
			t.Fatalf("level=%d: stream bounds lPtr[0]=%d lPtr[NB]=%d uPtr[NB]=%d uPtr[0]=%d nnzb=%d",
				level, f.LPtr[0], f.LPtr[nb], f.UPtr[nb], f.UPtr[0], nnzb)
		}
		seen := make([]bool, nnzb)
		for i := 0; i < nb; i++ {
			if f.LPtr[i+1] < f.LPtr[i] {
				t.Fatalf("level=%d: L stream not ascending at row %d", level, i)
			}
			if f.UPtr[i+1] >= f.UPtr[i] {
				t.Fatalf("level=%d: U stream not descending at row %d (no room for its diagonal)", level, i)
			}
			if kd := f.UPtr[i] - 1; f.Col[kd] != int32(i) {
				t.Fatalf("level=%d: row %d's last U-stream block is column %d, want its diagonal", level, i, f.Col[kd])
			}
			prev := int32(-1)
			for s, seg := range f.rowSegments(i) {
				for k := seg[0]; k < seg[1]; k++ {
					if seen[k] {
						t.Fatalf("level=%d: block %d stored in two rows", level, k)
					}
					seen[k] = true
					j := f.Col[k]
					if j <= prev {
						t.Fatalf("level=%d row %d: column %d after %d", level, i, j, prev)
					}
					prev = j
					if (s == 0 && j >= int32(i)) || (s == 1 && j != int32(i)) || (s == 2 && j <= int32(i)) {
						t.Fatalf("level=%d row %d: column %d in segment %d", level, i, j, s)
					}
				}
			}
			// Every block of A is a logical block of its row.
			for _, j := range a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]] {
				found := false
				for _, seg := range f.rowSegments(i) {
					for k := seg[0]; k < seg[1]; k++ {
						found = found || f.Col[k] == j
					}
				}
				if !found {
					t.Fatalf("level=%d: A's block (%d,%d) is not in the factor", level, i, j)
				}
			}
		}
		for k, ok := range seen {
			if !ok {
				t.Fatalf("level=%d: block %d belongs to no row", level, k)
			}
		}
		if level == 0 && int(nnzb) != a.NNZBlocks() {
			t.Fatalf("ILU(0) stores %d blocks, A %d", nnzb, a.NNZBlocks())
		}
		// Blocks are column-major, in A and in the factors: row 0 has no
		// pivots, so its U blocks are A's, entry (r, c) at scalar c·B + r,
		// and its pivot times A's diagonal block is the identity.
		b, bb := f.B, f.B*f.B
		for k := f.UPtr[1]; k < f.UPtr[0]; k++ {
			ab, ok := a.BlockAt(0, int(f.Col[k]))
			if !ok {
				t.Fatalf("level=%d: row 0 stores column %d, A does not", level, f.Col[k])
			}
			got := f.val64[int(k)*bb : int(k+1)*bb]
			for r := 0; r < b; r++ {
				for c := 0; c < b; c++ {
					if k == f.UPtr[0]-1 {
						var s float64
						for m := 0; m < b; m++ {
							s += ab[m*b+r] * got[c*b+m]
						}
						want := 0.0
						if r == c {
							want = 1
						}
						if math.Abs(s-want) > 1e-12 {
							t.Fatalf("level=%d: (A_00 · stored pivot)(%d,%d) = %g, want %g", level, r, c, s, want)
						}
					} else if math.Float64bits(got[c*b+r]) != math.Float64bits(ab[c*b+r]) {
						t.Fatalf("level=%d: block (0,%d) entry (%d,%d) stored at %d is %g, A has %g", level, f.Col[k], r, c, c*b+r, got[c*b+r], ab[c*b+r])
					}
				}
			}
		}
		for dir, sched := range map[string]struct{ rows, ptr []int32 }{
			"fwd": {f.fwdRows, f.fwdPtr},
			"bwd": {f.bwdRows, f.bwdPtr},
		} {
			if len(sched.rows) != nb {
				t.Fatalf("level=%d %s: %d scheduled rows, want %d", level, dir, len(sched.rows), nb)
			}
			levelOf := make([]int, nb)
			scheduled := make([]bool, nb)
			for l := 0; l+1 < len(sched.ptr); l++ {
				for _, i := range sched.rows[sched.ptr[l]:sched.ptr[l+1]] {
					if scheduled[i] {
						t.Fatalf("level=%d %s: row %d scheduled twice", level, dir, i)
					}
					scheduled[i] = true
					levelOf[i] = l
				}
			}
			for i := 0; i < nb; i++ {
				if !scheduled[i] {
					t.Fatalf("level=%d %s: row %d never scheduled", level, dir, i)
				}
				deps := f.rowSegments(i)[0]
				if dir == "bwd" {
					deps = f.rowSegments(i)[2]
				}
				for k := deps[0]; k < deps[1]; k++ {
					if j := f.Col[k]; levelOf[j] >= levelOf[i] {
						t.Fatalf("level=%d %s: row %d (level %d) depends on row %d (level %d)",
							level, dir, i, levelOf[i], j, levelOf[j])
					}
				}
			}
		}
	}
}

// TestSolveParBitwiseIdentical: the level-scheduled solve matches the
// sequential solve bit for bit at every worker count, for both storage
// precisions and several fill levels, across repeated runs.
func TestSolveParBitwiseIdentical(t *testing.T) {
	for _, single := range []bool{false, true} {
		for _, level := range []int{0, 1} {
			f := levelFixture(t, 4, level, single)
			n := f.NB * f.B
			b := make([]float64, n)
			for i := range b {
				b[i] = float64(i%13) - 6.0
			}
			want := make([]float64, n)
			f.Solve(b, want)
			for _, nw := range []int{1, 2, 4, 8} {
				p := par.New(nw)
				got := make([]float64, n)
				for rep := 0; rep < 3; rep++ {
					f.SolvePar(p, b, got)
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("single=%v level=%d nw=%d rep=%d: x[%d]=%x, want %x",
								single, level, nw, rep, i, got[i], want[i])
						}
					}
				}
				p.Close()
			}
		}
	}
}

// TestSolveParNilPool: a nil pool falls back to the sequential solve.
func TestSolveParNilPool(t *testing.T) {
	f := levelFixture(t, 4, 0, false)
	n := f.NB * f.B
	b := make([]float64, n)
	for i := range b {
		b[i] = 1.0 / float64(i+1)
	}
	want := make([]float64, n)
	got := make([]float64, n)
	f.Solve(b, want)
	f.SolvePar(nil, b, got)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("x[%d]=%x, want %x", i, got[i], want[i])
		}
	}
}

// TestLevelStats: the schedule statistics are internally consistent and
// show real parallelism on a mesh-derived pattern.
func TestLevelStats(t *testing.T) {
	f := levelFixture(t, 4, 1, false)
	st := f.LevelStats()
	if st.Rows != f.NB {
		t.Fatalf("Rows=%d, want %d", st.Rows, f.NB)
	}
	if st.FwdLevels < 1 || st.FwdLevels > f.NB || st.BwdLevels < 1 || st.BwdLevels > f.NB {
		t.Fatalf("level counts out of range: fwd=%d bwd=%d NB=%d", st.FwdLevels, st.BwdLevels, f.NB)
	}
	if st.MaxWidth < 1 || st.MaxWidth > f.NB {
		t.Fatalf("MaxWidth=%d out of range", st.MaxWidth)
	}
	if st.AvgWidth <= 1 {
		t.Fatalf("AvgWidth=%.2f: a wing mesh schedule should expose parallelism", st.AvgWidth)
	}
}

// TestSolveParSteadyStateAllocs: after a warm-up solve sizes the
// per-worker scratch (which only the fallback kernels of B = 7 use),
// repeated threaded solves do not allocate, in every kernel family the
// host runs — the Go kernels are what a host without AVX2 runs.
func TestSolveParSteadyStateAllocs(t *testing.T) {
	for _, fam := range families() {
		useKernels(t, fam)
		for _, b := range []int{4, 7} {
			f := levelFixture(t, b, 1, false)
			n := f.NB * f.B
			rhs := make([]float64, n)
			x := make([]float64, n)
			for i := range rhs {
				rhs[i] = float64(i % 7)
			}
			p := par.New(4)
			f.SolvePar(p, rhs, x) // warm up scratch
			if avg := testing.AllocsPerRun(20, func() { f.SolvePar(p, rhs, x) }); avg > 0 {
				t.Fatalf("%s kernels, B=%d: SolvePar allocates %.1f objects per solve", fam.name, b, avg)
			}
			p.Close()
		}
	}
}

// rowSegments returns row i's blocks as three block ranges in ascending
// column order: its L blocks, its diagonal, its U blocks.
func (f *Factorization) rowSegments(i int) [3][2]int32 {
	kd := f.UPtr[i] - 1
	return [3][2]int32{{f.LPtr[i], f.LPtr[i+1]}, {kd, kd + 1}, {f.UPtr[i+1], kd}}
}
