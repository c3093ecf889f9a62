package dist

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"petscfun3d/internal/ilu"
	"petscfun3d/internal/krylov"
	"petscfun3d/internal/mesh"
	"petscfun3d/internal/mpi"
	"petscfun3d/internal/par"
	"petscfun3d/internal/partition"
	"petscfun3d/internal/prof"
	"petscfun3d/internal/schwarz"
	"petscfun3d/internal/sparse"
)

type testProblem struct {
	a    *sparse.BCSR
	g    sparse.Graph
	part *partition.Partition
	rhs  []float64
}

func buildTestProblem(t testing.TB, nx, ny, nz, b, nparts int) *testProblem {
	t.Helper()
	m, err := mesh.GenerateWing(mesh.DefaultWingSpec(nx, ny, nz))
	if err != nil {
		t.Fatal(err)
	}
	g := sparse.Graph{NV: m.NumVertices(), XAdj: m.XAdj, Adj: m.Adj}
	a := sparse.BlockPattern(g, b)
	a.FillDeterministic(101)
	p, err := partition.KWay(g, nparts)
	if err != nil {
		t.Fatal(err)
	}
	rhs := make([]float64, a.N())
	for i := range rhs {
		rhs[i] = math.Sin(float64(i) * 0.19)
	}
	return &testProblem{a: a, g: g, part: p, rhs: rhs}
}

// gather assembles per-rank owned vectors into a global vector.
type gatherBoard struct {
	mu   sync.Mutex
	vals map[int32][]float64 // global block row -> values
}

func TestDistributedMatVecMatchesSequential(t *testing.T) {
	pr := buildTestProblem(t, 7, 6, 5, 4, 5)
	b := 4
	x := make([]float64, pr.a.N())
	for i := range x {
		x[i] = math.Cos(float64(i) * 0.23)
	}
	want := make([]float64, pr.a.N())
	pr.a.MulVec(x, want)

	board := &gatherBoard{vals: map[int32][]float64{}}
	err := mpi.Run(5, func(c *mpi.Comm) error {
		dm, err := NewMatrix(c, pr.a, pr.part.Part)
		if err != nil {
			return err
		}
		lx := make([]float64, dm.LocalN())
		ly := make([]float64, dm.LocalN())
		for li, gr := range dm.Owned {
			copy(lx[li*b:(li+1)*b], x[int(gr)*b:(int(gr)+1)*b])
		}
		if err := dm.MulVec(lx, ly); err != nil {
			return err
		}
		board.mu.Lock()
		for li, gr := range dm.Owned {
			board.vals[gr] = append([]float64(nil), ly[li*b:(li+1)*b]...)
		}
		board.mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for gr, vals := range board.vals {
		for cpt, got := range vals {
			if math.Abs(got-want[int(gr)*b+cpt]) > 1e-12 {
				t.Fatalf("row %d comp %d: %g vs %g", gr, cpt, got, want[int(gr)*b+cpt])
			}
		}
	}
	if len(board.vals) != pr.a.NB {
		t.Fatalf("gathered %d rows, want %d", len(board.vals), pr.a.NB)
	}
}

// TestGMRESReductionRounds pins the batched solve's synchronization
// arithmetic: ONE global reduction round per inner iteration (the fused
// projection batch, which also carries the norm scalars) plus one
// residual norm at startup and one per restart — where the per-vector
// Gram-Schmidt formulation pays j+2 rounds at inner step j.
func TestGMRESReductionRounds(t *testing.T) {
	pr := buildTestProblem(t, 8, 7, 5, 4, 6)
	b := 4
	err := mpi.Run(6, func(c *mpi.Comm) error {
		dm, err := NewMatrix(c, pr.a, pr.part.Part)
		if err != nil {
			return err
		}
		solve, err := dm.BlockJacobi(ilu.Options{Level: 0})
		if err != nil {
			return err
		}
		lb := make([]float64, dm.LocalN())
		lx := make([]float64, dm.LocalN())
		for li, gr := range dm.Owned {
			copy(lb[li*b:(li+1)*b], pr.rhs[int(gr)*b:(int(gr)+1)*b])
		}
		// A small restart forces multiple cycles, exercising the restart
		// residual rounds too.
		st, err := GMRES(dm, solve, lb, lx, GMRESOptions{Restart: 4, MaxIters: 60, RelTol: 1e-8})
		if err != nil {
			return err
		}
		if !st.Converged {
			return fmt.Errorf("rank %d: not converged (res %g)", c.Rank(), st.ResidualNorm)
		}
		if st.Restarts == 0 {
			return fmt.Errorf("rank %d: expected restarts at Restart=4 (iters=%d)", c.Rank(), st.Iterations)
		}
		if want := 1 + st.Restarts + st.Iterations; st.Reductions != want {
			return fmt.Errorf("rank %d: %d reduction rounds, want %d (1 startup + %d restarts + %d iterations)",
				c.Rank(), st.Reductions, want, st.Restarts, st.Iterations)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistributedGMRESMatchesSequentialSchwarz(t *testing.T) {
	// The distributed block-Jacobi GMRES must converge to the same
	// solution (and essentially the same iteration count) as the
	// sequential GMRES with the schwarz package's block Jacobi over the
	// same partition: they are the same algorithm.
	pr := buildTestProblem(t, 8, 7, 5, 4, 6)
	b := 4

	pc, err := schwarz.New(pr.a, pr.part.Part, 6, schwarz.Options{ILU: ilu.Options{Level: 0}})
	if err != nil {
		t.Fatal(err)
	}
	xSeq := make([]float64, pr.a.N())
	seqStats, err := krylov.Solve(krylov.OperatorFunc(pr.a.MulVec), pc, pr.rhs, xSeq,
		krylov.Options{Restart: 25, MaxIters: 400, RelTol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if !seqStats.Converged {
		t.Fatal("sequential reference did not converge")
	}

	board := &gatherBoard{vals: map[int32][]float64{}}
	var distIts int
	var itsMu sync.Mutex
	err = mpi.Run(6, func(c *mpi.Comm) error {
		dm, err := NewMatrix(c, pr.a, pr.part.Part)
		if err != nil {
			return err
		}
		solve, err := dm.BlockJacobi(ilu.Options{Level: 0})
		if err != nil {
			return err
		}
		lb := make([]float64, dm.LocalN())
		lx := make([]float64, dm.LocalN())
		for li, gr := range dm.Owned {
			copy(lb[li*b:(li+1)*b], pr.rhs[int(gr)*b:(int(gr)+1)*b])
		}
		st, err := GMRES(dm, solve, lb, lx, GMRESOptions{Restart: 25, MaxIters: 400, RelTol: 1e-9})
		if err != nil {
			return err
		}
		if !st.Converged {
			return fmt.Errorf("rank %d: distributed GMRES did not converge (res %g)", c.Rank(), st.ResidualNorm)
		}
		itsMu.Lock()
		distIts = st.Iterations
		itsMu.Unlock()
		board.mu.Lock()
		for li, gr := range dm.Owned {
			board.vals[gr] = append([]float64(nil), lx[li*b:(li+1)*b]...)
		}
		board.mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Solutions agree (both solve to 1e-9 of the same system).
	var worst float64
	for gr, vals := range board.vals {
		for cpt, got := range vals {
			if d := math.Abs(got - xSeq[int(gr)*b+cpt]); d > worst {
				worst = d
			}
		}
	}
	if worst > 1e-5 {
		t.Errorf("distributed and sequential solutions differ by %g", worst)
	}
	// Same algorithm: iteration counts agree to a small margin (inner
	// products are summed in different orders).
	if diff := distIts - seqStats.Iterations; diff < -3 || diff > 3 {
		t.Errorf("iteration counts diverge: distributed %d vs sequential %d", distIts, seqStats.Iterations)
	}
}

// TestDistributedProfileMeasuresCommunication gives each rank its own
// profiler, solves, and merges them: the merged report must show the
// message-passing phases (scatter, reduce) with real time and byte
// counts alongside the compute phases — the measured counterpart of
// machine.Report's communication buckets.
func TestDistributedProfileMeasuresCommunication(t *testing.T) {
	const nranks = 4
	pr := buildTestProblem(t, 7, 6, 5, 4, nranks)
	b := 4
	profs := make([]*prof.Profiler, nranks)
	for i := range profs {
		profs[i] = prof.New()
		profs[i].Enable()
	}
	err := mpi.Run(nranks, func(c *mpi.Comm) error {
		dm, err := NewMatrix(c, pr.a, pr.part.Part)
		if err != nil {
			return err
		}
		dm.Prof = profs[c.Rank()]
		solve, err := dm.BlockJacobi(ilu.Options{Level: 0})
		if err != nil {
			return err
		}
		lb := make([]float64, dm.LocalN())
		lx := make([]float64, dm.LocalN())
		for li, gr := range dm.Owned {
			copy(lb[li*b:(li+1)*b], pr.rhs[int(gr)*b:(int(gr)+1)*b])
		}
		_, err = GMRES(dm, solve, lb, lx, GMRESOptions{Restart: 20, MaxIters: 60, RelTol: 1e-6})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	merged := prof.New()
	for _, p := range profs {
		merged.Merge(p)
	}
	rep := merged.Report(0)
	got := map[string]prof.PhaseStat{}
	for _, st := range rep.Phases {
		got[st.Phase] = st
	}
	for _, want := range []string{"krylov", "matvec", "scatter_pack", "scatter_wait", "interior", "boundary", "reduce", "tri_solve", "ortho"} {
		st, ok := got[want]
		if !ok {
			t.Fatalf("phase %q missing from merged report %v", want, rep.Phases)
		}
		if st.Calls <= 0 || st.Seconds < 0 {
			t.Fatalf("phase %q has calls=%d seconds=%g", want, st.Calls, st.Seconds)
		}
	}
	if got["scatter_pack"].Bytes <= 0 || got["scatter_wait"].Bytes <= 0 {
		t.Error("scatter phases recorded no bytes")
	}
	if got["scatter_pack"].Category != "scatter" || got["scatter_wait"].Category != "wait" || got["reduce"].Category != "reduce" {
		t.Error("communication phases not in their machine.Report buckets")
	}
	if got["tri_solve"].Flops <= 0 || got["interior"].Flops <= 0 || got["boundary"].Flops <= 0 {
		t.Error("compute phases recorded no flops")
	}
	// The interior/boundary split's flop accounting must equal one full
	// MulVec per call: the two subsets partition the stored blocks.
	if got["interior"].Flops+got["boundary"].Flops <= 0 {
		t.Error("split matvec recorded no flops")
	}
	// Every rank's halo phases happen inside its matvecs: cumulative
	// child time cannot exceed cumulative parent time.
	for _, child := range []string{"scatter_pack", "scatter_wait", "interior", "boundary"} {
		if got[child].CumulativeSeconds > got["matvec"].CumulativeSeconds {
			t.Errorf("%s cumulative %g exceeds matvec cumulative %g",
				child, got[child].CumulativeSeconds, got["matvec"].CumulativeSeconds)
		}
	}
}

// TestOverlappedMatVecBitwiseIdentical: the overlapped interior/boundary
// split must reproduce the blocking path bit for bit on the same
// partition — same per-row kernels, same accumulation order per row.
func TestOverlappedMatVecBitwiseIdentical(t *testing.T) {
	pr := buildTestProblem(t, 7, 6, 5, 4, 5)
	b := 4
	x := make([]float64, pr.a.N())
	for i := range x {
		x[i] = math.Cos(float64(i)*0.37) * math.Exp(math.Sin(float64(i)))
	}
	want := make([]float64, pr.a.N())
	pr.a.MulVec(x, want)
	err := mpi.Run(5, func(c *mpi.Comm) error {
		dm, err := NewMatrix(c, pr.a, pr.part.Part)
		if err != nil {
			return err
		}
		lx := make([]float64, dm.LocalN())
		yOver := make([]float64, dm.LocalN())
		yBlock := make([]float64, dm.LocalN())
		for li, gr := range dm.Owned {
			copy(lx[li*b:(li+1)*b], x[int(gr)*b:(int(gr)+1)*b])
		}
		if err := dm.MulVec(lx, yOver); err != nil {
			return err
		}
		dm.NoOverlap = true
		if err := dm.MulVec(lx, yBlock); err != nil {
			return err
		}
		for i := range yOver {
			if yOver[i] != yBlock[i] {
				return fmt.Errorf("rank %d entry %d: overlapped %x vs blocking %x", c.Rank(), i, yOver[i], yBlock[i])
			}
		}
		// Both agree with the sequential kernel to rounding (the ghost
		// renumbering may permute a boundary row's column order, so the
		// cross-code comparison is not bitwise).
		for li, gr := range dm.Owned {
			for cpt := 0; cpt < b; cpt++ {
				if math.Abs(yOver[li*b+cpt]-want[int(gr)*b+cpt]) > 1e-12 {
					return fmt.Errorf("row %d comp %d: %g vs sequential %g", gr, cpt, yOver[li*b+cpt], want[int(gr)*b+cpt])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAsymmetricPartitionZeroGhosts drives the overlapped MulVec on a
// block-diagonal matrix whose components are split across ranks: some
// ranks have no ghosts at all (pure interior, no exchange posted), and
// the result must still match the sequential kernel. Run under -race
// this also exercises the no-traffic edge of the request plumbing.
func TestAsymmetricPartitionZeroGhosts(t *testing.T) {
	// Two disconnected 4-row components: ranks 0/1 split the first
	// (ghosts across the cut), rank 2 owns the second outright (zero
	// ghosts).
	const nb, b = 8, 4
	rows := make([][]int32, nb)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			rows[i] = append(rows[i], int32(j))
			rows[4+i] = append(rows[4+i], int32(4+j))
		}
	}
	a := sparse.NewBCSRPattern(nb, b, rows)
	a.FillDeterministic(7)
	part := []int32{0, 0, 1, 1, 2, 2, 2, 2}
	x := make([]float64, a.N())
	for i := range x {
		x[i] = math.Sin(float64(i) * 0.7)
	}
	want := make([]float64, a.N())
	a.MulVec(x, want)
	err := mpi.Run(3, func(c *mpi.Comm) error {
		dm, err := NewMatrix(c, a, part)
		if err != nil {
			return err
		}
		if c.Rank() == 2 && len(dm.Ghosts) != 0 {
			return fmt.Errorf("rank 2 should have zero ghosts, has %d", len(dm.Ghosts))
		}
		lx := make([]float64, dm.LocalN())
		ly := make([]float64, dm.LocalN())
		yBlock := make([]float64, dm.LocalN())
		for li, gr := range dm.Owned {
			copy(lx[li*b:(li+1)*b], x[int(gr)*b:(int(gr)+1)*b])
		}
		if err := dm.MulVec(lx, ly); err != nil {
			return err
		}
		dm.NoOverlap = true
		if err := dm.MulVec(lx, yBlock); err != nil {
			return err
		}
		for i := range ly {
			if ly[i] != yBlock[i] {
				return fmt.Errorf("rank %d entry %d: overlapped %x vs blocking %x", c.Rank(), i, ly[i], yBlock[i])
			}
		}
		// The ghost renumbering permutes some rows' column order on this
		// partition, so sequential agreement is to rounding, not bitwise.
		for li, gr := range dm.Owned {
			for cpt := 0; cpt < b; cpt++ {
				if math.Abs(ly[li*b+cpt]-want[int(gr)*b+cpt]) > 1e-12 {
					return fmt.Errorf("rank %d row %d: %g vs %g", c.Rank(), gr, ly[li*b+cpt], want[int(gr)*b+cpt])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAsymmetricPartitionAllBoundaryRows gives one rank a share whose
// every row touches a ghost column (empty interior set): the overlapped
// path degenerates to post-wait-compute and must still be exact.
func TestAsymmetricPartitionAllBoundaryRows(t *testing.T) {
	// Dense 5-block-row coupling, rank 1 owning a single row: each of
	// rank 1's rows (and several of rank 0's) reads ghost columns.
	const nb, b = 5, 4
	rows := make([][]int32, nb)
	for i := 0; i < nb; i++ {
		for j := 0; j < nb; j++ {
			rows[i] = append(rows[i], int32(j))
		}
	}
	a := sparse.NewBCSRPattern(nb, b, rows)
	a.FillDeterministic(23)
	part := []int32{0, 0, 1, 0, 0}
	x := make([]float64, a.N())
	for i := range x {
		x[i] = math.Cos(float64(i) * 1.3)
	}
	want := make([]float64, a.N())
	a.MulVec(x, want)
	err := mpi.Run(2, func(c *mpi.Comm) error {
		dm, err := NewMatrix(c, a, part)
		if err != nil {
			return err
		}
		if len(dm.boundary) != len(dm.Owned) {
			return fmt.Errorf("rank %d expected all-boundary rows, got %d of %d", c.Rank(), len(dm.boundary), len(dm.Owned))
		}
		lx := make([]float64, dm.LocalN())
		ly := make([]float64, dm.LocalN())
		yBlock := make([]float64, dm.LocalN())
		for li, gr := range dm.Owned {
			copy(lx[li*b:(li+1)*b], x[int(gr)*b:(int(gr)+1)*b])
		}
		if err := dm.MulVec(lx, ly); err != nil {
			return err
		}
		dm.NoOverlap = true
		if err := dm.MulVec(lx, yBlock); err != nil {
			return err
		}
		for i := range ly {
			if ly[i] != yBlock[i] {
				return fmt.Errorf("rank %d entry %d: overlapped %x vs blocking %x", c.Rank(), i, ly[i], yBlock[i])
			}
		}
		// The ghost renumbering permutes some rows' column order on this
		// partition, so sequential agreement is to rounding, not bitwise.
		for li, gr := range dm.Owned {
			for cpt := 0; cpt < b; cpt++ {
				if math.Abs(ly[li*b+cpt]-want[int(gr)*b+cpt]) > 1e-12 {
					return fmt.Errorf("rank %d row %d: %g vs %g", c.Rank(), gr, ly[li*b+cpt], want[int(gr)*b+cpt])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNewMatrixValidation(t *testing.T) {
	pr := buildTestProblem(t, 4, 3, 3, 2, 2)
	err := mpi.Run(2, func(c *mpi.Comm) error {
		if _, err := NewMatrix(c, pr.a, pr.part.Part[:5]); err == nil {
			return fmt.Errorf("short partition accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// A partition leaving any rank empty is rejected by every rank
	// (before communication, so no deadlock).
	allZero := make([]int32, pr.a.NB)
	err = mpi.Run(2, func(c *mpi.Comm) error {
		if _, err := NewMatrix(c, pr.a, allZero); err == nil {
			return fmt.Errorf("empty rank accepted on rank %d", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGMRESOptionValidation(t *testing.T) {
	pr := buildTestProblem(t, 4, 3, 3, 2, 2)
	err := mpi.Run(2, func(c *mpi.Comm) error {
		dm, err := NewMatrix(c, pr.a, pr.part.Part)
		if err != nil {
			return err
		}
		lb := make([]float64, dm.LocalN())
		lx := make([]float64, dm.LocalN())
		if _, err := GMRES(dm, nil, lb, lx, GMRESOptions{Restart: 0, MaxIters: 1}); err == nil {
			return fmt.Errorf("restart 0 accepted")
		}
		if _, err := GMRES(dm, nil, lb[:1], lx, GMRESOptions{Restart: 5, MaxIters: 5}); err == nil {
			return fmt.Errorf("short vector accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestHaloDoubleStartRejected pins the Start/Finish protocol guard: a
// second Start while an exchange is in flight must fail loudly instead
// of silently overwriting the posted requests (which would leak them
// and misalign every later message on the pair streams). After Finish
// the plan must be reusable.
func TestHaloDoubleStartRejected(t *testing.T) {
	pr := buildTestProblem(t, 6, 5, 4, 4, 3)
	err := mpi.Run(3, func(c *mpi.Comm) error {
		dm, err := NewMatrix(c, pr.a, pr.part.Part)
		if err != nil {
			return err
		}
		ext := make([]float64, dm.LocalN()+len(dm.Ghosts)*dm.B)
		if err := dm.halo.Start(dm.Prof, ext); err != nil {
			return fmt.Errorf("rank %d first Start: %v", c.Rank(), err)
		}
		if err := dm.halo.Start(dm.Prof, ext); err == nil {
			return fmt.Errorf("rank %d: second Start before Finish succeeded, want in-flight error", c.Rank())
		}
		if err := dm.halo.Finish(dm.Prof, ext); err != nil {
			return fmt.Errorf("rank %d Finish: %v", c.Rank(), err)
		}
		// The guard resets: the plan is reusable after Finish.
		if err := dm.halo.Exchange(dm.Prof, ext); err != nil {
			return fmt.Errorf("rank %d reuse after Finish: %v", c.Rank(), err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSplitMatVecBitwiseGrid: the product computed as diag·x_owned, then
// the ghost columns added on the boundary rows, has the bits of
// sparse.BCSR.MulVec on the global matrix renumbered owned-first (owned
// rows, then ghosts, then the rest, each ascending — so an owned row
// keeps its stored column order): at 1 and 2 threads, overlapped and
// blocking, on a mesh partition, on the 1-rank world whose ghost block
// is empty, and on a partition where every row of a rank is a boundary
// row.
func TestSplitMatVecBitwiseGrid(t *testing.T) {
	mesh3 := buildTestProblem(t, 7, 6, 5, 4, 3)
	mesh1 := buildTestProblem(t, 6, 5, 4, 5, 1)
	const nb = 5
	rows := make([][]int32, nb)
	for i := range rows {
		for j := 0; j < nb; j++ {
			rows[i] = append(rows[i], int32(j))
		}
	}
	dense := sparse.NewBCSRPattern(nb, 4, rows)
	dense.FillDeterministic(23)
	cases := []struct {
		name   string
		a      *sparse.BCSR
		part   []int32
		nranks int
	}{
		{"mesh, 3 ranks", mesh3.a, mesh3.part.Part, 3},
		{"mesh, 1 rank", mesh1.a, mesh1.part.Part, 1},
		{"dense, every row a boundary row", dense, []int32{0, 0, 1, 0, 0}, 2},
	}
	for _, tc := range cases {
		a, b := tc.a, tc.a.B
		x := make([]float64, a.N())
		for i := range x {
			x[i] = math.Cos(float64(i)*0.37) * math.Exp(math.Sin(float64(i)))
		}
		err := mpi.Run(tc.nranks, func(c *mpi.Comm) error {
			dm, err := NewMatrix(c, a, tc.part)
			if err != nil {
				return err
			}
			if tc.nranks == 1 && len(dm.off.ColIdx)+len(dm.boundary) != 0 {
				return fmt.Errorf("the 1-rank world has %d ghost-column blocks", len(dm.off.ColIdx))
			}
			// The owned-first renumbering of the global rows.
			perm := make([]int32, a.NB)
			for g := range perm {
				perm[g] = -1
			}
			next := int32(0)
			for _, list := range [][]int32{dm.Owned, dm.Ghosts} {
				for _, g := range list {
					perm[g] = next
					next++
				}
			}
			for g := range perm {
				if perm[g] < 0 {
					perm[g] = next
					next++
				}
			}
			refRows := make([][]int32, a.NB)
			for _, gr := range dm.Owned {
				for _, j := range a.ColIdx[a.RowPtr[gr]:a.RowPtr[gr+1]] {
					refRows[perm[gr]] = append(refRows[perm[gr]], perm[j])
				}
			}
			ref := sparse.NewBCSRPattern(a.NB, b, refRows)
			for _, gr := range dm.Owned {
				for k := a.RowPtr[gr]; k < a.RowPtr[gr+1]; k++ {
					dst, _ := ref.BlockAt(int(perm[gr]), int(perm[a.ColIdx[k]]))
					copy(dst, a.Block(int(k)))
				}
			}
			xp, want := make([]float64, a.N()), make([]float64, a.N())
			for g, pg := range perm {
				copy(xp[int(pg)*b:int(pg)*b+b], x[g*b:g*b+b])
			}
			ref.MulVec(xp, want)
			lx, ly := xp[:dm.LocalN()], make([]float64, dm.LocalN())
			for _, threads := range []int{1, 2} {
				pool := par.New(threads)
				dm.SetPool(pool)
				for _, blocking := range []bool{false, true} {
					dm.NoOverlap = blocking
					for i := range ly {
						ly[i] = math.NaN() // MulVec must overwrite
					}
					err := dm.MulVec(lx, ly)
					if err == nil {
						err = bitsDiffer(ly, want[:len(ly)])
					}
					if err != nil {
						pool.Close()
						return fmt.Errorf("rank %d, %d threads, blocking=%v: %w", c.Rank(), threads, blocking, err)
					}
				}
				dm.SetPool(nil)
				pool.Close()
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
}
