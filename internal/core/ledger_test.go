package core

import (
	"reflect"
	"runtime"
	"testing"

	"petscfun3d/internal/dist"
	"petscfun3d/internal/mesh"
	"petscfun3d/internal/mpi"
	"petscfun3d/internal/newton"
	"petscfun3d/internal/prof"
	"petscfun3d/internal/schwarz"
	"petscfun3d/internal/sparse"
)

// residentBytes is the heap a structure keeps alive: the capacity of
// every slice reachable from v (through pointers, structs, slices and
// interfaces, exported or not), each backing array counted once across
// calls that share seen — so a structure visited after one it aliases
// is charged only what it adds.
func residentBytes(v any, seen map[uintptr]bool) int64 {
	var walk func(reflect.Value) int64
	walk = func(v reflect.Value) int64 {
		switch v.Kind() {
		case reflect.Pointer, reflect.Interface:
			if v.IsNil() || (v.Kind() == reflect.Pointer && seen[v.Pointer()]) {
				return 0
			}
			if v.Kind() == reflect.Pointer {
				seen[v.Pointer()] = true
			}
			return walk(v.Elem())
		case reflect.Struct:
			var n int64
			for i := 0; i < v.NumField(); i++ {
				n += walk(v.Field(i))
			}
			return n
		case reflect.Slice:
			if v.IsNil() || v.Cap() == 0 || seen[v.Pointer()] {
				return 0
			}
			seen[v.Pointer()] = true
			n := int64(v.Cap()) * int64(v.Type().Elem().Size())
			switch v.Type().Elem().Kind() {
			case reflect.Pointer, reflect.Interface, reflect.Struct, reflect.Slice:
				for i := 0; i < v.Len(); i++ {
					n += walk(v.Index(i))
				}
			}
			return n
		}
		return 0
	}
	return walk(reflect.ValueOf(v))
}

// allocated returns the bytes f allocates.
func allocated(f func()) int64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc)
}

// TestAllocationLedger states the floor a memory model predicts for one
// solve — every resident structure allocated once, sized from the
// structures themselves — prints what each layer allocates against it
// (the table of EXPERIMENTS.md "A solve that allocates once"; regenerate
// it with `go test ./internal/core -run Ledger -v`), and gates the user
// path: Build + solve within 1.25 × the floor. A layer's excess is its
// set-up churn.
func TestAllocationLedger(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation ledger: the race detector allocates on its own")
	}
	cfg := DefaultConfig()
	cfg.TargetVertices = 3000
	fail := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	type row struct {
		layer           string
		measured, floor int64
	}
	var rows []row
	seen := map[uintptr]bool{}

	// The layers one at a time, through the constructors Build and the
	// solver call, each charged what it adds to what is already resident.
	var m *mesh.Mesh
	got := allocated(func() {
		var err error
		m, err = mesh.GenerateWingN(cfg.TargetVertices)
		fail(err)
		m = m.Renumber(mesh.RCM(m))
	})
	rows = append(rows, row{"mesh (generate, RCM, renumber)", got, residentBytes(m, seen)})

	var p *Problem
	got = allocated(func() {
		var err error
		p, err = Build(cfg)
		fail(err)
	})
	defer p.Close()
	residentBytes(p.Mesh, seen) // Build's own mesh: the row above charged its twin
	rows = append(rows, row{"geometry, discretization, partition", got - rows[0].measured, residentBytes(p, seen)})

	jac := p.Disc.JacobianPattern()
	got = allocated(func() { jac = p.Disc.JacobianPattern() })
	rows = append(rows, row{"jacobian", got, residentBytes(jac, seen)})

	// fill gives a Jacobian the values of the first step's operator.
	fill := func(p *Problem, jac *sparse.BCSR) {
		q := p.Disc.FreestreamVector()
		fail(p.Disc.AssembleJacobian(q, jac))
		ts := make([]float64, p.Mesh.NumVertices())
		p.Disc.TimeScalesInto(q, ts)
		newton.AddTimeDiagonal(jac, ts, p.Cfg.Newton.CFL0)
	}
	fill(p, jac)
	var pc *schwarz.Preconditioner
	got = allocated(func() {
		var err error
		pc, err = schwarz.New(jac, p.Part.Part, p.Part.NParts, p.schwarzOptions())
		fail(err)
	})
	rows = append(rows, row{"preconditioner (ILU factor and indices)", got, residentBytes(pc, seen)})

	n := int64(p.Disc.N())
	workspace := int64(cfg.Newton.Krylov.Restart+4) * n * 8
	vectors := 5*n*8 + int64(8*m.NumVertices()) // q, r, rhs, dq, qTrial; ts
	rows = append(rows, row{"krylov workspace, (Restart+4)·n·8", workspace, workspace},
		row{"newton vectors, 5·n·8 + nv·8", vectors, vectors})

	var floor int64
	for _, r := range rows {
		floor += r.floor
	}
	total := allocated(func() {
		_, err := RunSequential(cfg)
		fail(err)
	})
	rows = append(rows, row{"Build + solve, user path", total, floor})

	t.Logf("%-42s %12s %12s %8s", "layer", "measured B", "floor B", "ratio")
	for _, r := range rows {
		t.Logf("%-42s %12d %12d %8.2f", r.layer, r.measured, r.floor, float64(r.measured)/float64(r.floor))
	}
	if float64(total) > 1.25*float64(floor) {
		t.Errorf("Build + solve allocates %d B, %.2f × the %d B floor of its resident structures; want at most 1.25 ×",
			total, float64(total)/float64(floor), floor)
	}

	// The altpath configuration's preconditioner — four overlapping
	// subdomains, b = 5, ILU(1), float32 factors — against a floor written
	// out, not measured from the structure: 4 bytes a factor scalar and no
	// float64 copy of them, each subdomain's elimination window, the
	// layout indices, and the extracted local matrices with their copy
	// index. What New allocates beyond it is the symbolic analysis.
	pa, err := Build(altpathConfig())
	fail(err)
	defer pa.Close()
	ajac := pa.Disc.JacobianPattern()
	fill(pa, ajac)
	var apc *schwarz.Preconditioner
	got = allocated(func() {
		var err error
		apc, err = schwarz.New(ajac, pa.Part.Part, pa.Part.NParts, pa.schwarzOptions())
		fail(err)
	})
	var afloor int64
	for _, sub := range apc.Subs {
		f, l := sub.Factor, sub.Local
		scalars := int64(f.NNZBlocks() * f.B * f.B)
		window := f.StorageBytes() - 4*scalars
		if window < 0 || window > 4*scalars {
			t.Errorf("altpath: a subdomain keeps %d B for %d factor scalars: not 4 B each plus a window", f.StorageBytes(), scalars)
		}
		afloor += 4*scalars + window +
			4*int64(len(f.Col)+len(f.LPtr)+len(f.UPtr)) +
			8*int64(len(l.Val)) + 4*int64(2*len(l.ColIdx)+len(l.RowPtr)) // Local and its copy index
	}
	t.Logf("%-42s %12d %12d %8.2f", "altpath: preconditioner (4 parts, float32)", got, afloor, float64(got)/float64(afloor))
	if float64(got) > 1.15*float64(afloor) {
		t.Errorf("altpath: schwarz.New allocates %d B, %.2f × the %d B floor of float32 factors, windows, indices and local matrices; want at most 1.15 ×",
			got, float64(got)/float64(afloor), afloor)
	}

	// Two ranks through dist.NewtonSolve: each rank's floor is what it
	// keeps — its diagonal and ghost-column blocks with the halo plan and
	// the block Jacobi factors (a reference dist.Matrix of the same
	// partition, measured like every structure above), the Krylov
	// workspace, the assembly and residual plans and the loop's
	// global-length vectors — plus the fabric's copy of every message.
	// The ranks' solves together may not allocate one more array the size
	// of the smaller rank's diagonal block.
	cfg.Ranks = 2
	p2, err := Build(cfg)
	fail(err)
	defer p2.Close()
	opts := dist.DefaultNewtonOptions()
	part := p2.Part.Part
	b, nv := p2.Sys.B(), p2.Mesh.NumVertices()
	var floors, diagVal [2]int64
	fail(mpi.Run(2, func(c *mpi.Comm) error {
		me := int32(c.Rank())
		dm, err := dist.NewMatrix(c, jac, part)
		if err != nil {
			return err
		}
		if _, err := dm.BlockJacobi(opts.ILU); err != nil {
			return err
		}
		planEdges := 0
		for _, e := range p2.Mesh.Edges {
			if part[e.A] == me || part[e.B] == me {
				planEdges++
			}
		}
		for _, v := range dm.Owned {
			for _, w := range p2.Mesh.Neighbors(int(v)) {
				if part[w] == me {
					diagVal[me]++
				}
			}
		}
		diagVal[me] = (diagVal[me] + int64(len(dm.Owned))) * int64(b*b) * 8
		nLocal := int64(dm.LocalN())
		floors[me] = residentBytes(dm, map[uintptr]bool{}) +
			int64(opts.Krylov.Restart+4)*nLocal*8 + 2*nLocal*8 + // Krylov workspace; local right-hand side and correction
			int64(planEdges)*(5+1)*4 + int64(nv)*(4+1) + // assembly plan (edge, two blocks, two time-scale rows) and residual edge lists; diagonal positions and ownership mask
			5*n*8 + int64(len(dm.Owned)+1)*8 // q, r, rhs, dq, qTrial at global length; the rank's time scales
		return nil
	}))
	profs := []*prof.Profiler{prof.New(), prof.New()}
	total2 := allocated(func() {
		fail(mpi.Run(2, func(c *mpi.Comm) error {
			profs[c.Rank()].Enable()
			_, err := dist.NewtonSolve(c, p2.Disc, part, p2.Disc.FreestreamVector(), opts, profs[c.Rank()])
			return err
		}))
	})
	var messages int64 // each payload copied once by ISend, with its envelope (alloc_test.go)
	for _, pr := range profs {
		for _, st := range pr.Report(0).Phases {
			if st.Phase == prof.PhaseScatterWait.String() {
				messages += st.Bytes/2*9/8 + 1024*st.Calls
			}
		}
	}
	floor2 := floors[0] + floors[1] + messages
	t.Logf("%-42s %12s %12d", "2 ranks: rank 0 resident floor", "", floors[0])
	t.Logf("%-42s %12s %12d", "2 ranks: rank 1 resident floor", "", floors[1])
	t.Logf("%-42s %12s %12d", "2 ranks: messages", "", messages)
	t.Logf("%-42s %12d %12d %8.2f", "2 ranks: dist.NewtonSolve, both ranks", total2, floor2, float64(total2)/float64(floor2))
	if spare := min(diagVal[0], diagVal[1]); total2-floor2 >= spare {
		t.Errorf("the 2-rank solve allocates %d B beyond its %d B floor: room for a second matrix-sized array (the smaller diagonal block is %d B)",
			total2-floor2, floor2, spare)
	}
}
