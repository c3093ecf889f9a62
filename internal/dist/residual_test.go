package dist

import (
	"fmt"
	"math"
	"testing"

	"petscfun3d/internal/euler"
	"petscfun3d/internal/faults"
	"petscfun3d/internal/mesh"
	"petscfun3d/internal/mpi"
	"petscfun3d/internal/par"
	"petscfun3d/internal/partition"
	"petscfun3d/internal/prof"
	"petscfun3d/internal/sparse"
)

func buildResidualProblem(t testing.TB, nx, ny, nz, nparts int) (*euler.Discretization, *partition.Partition, []float64) {
	t.Helper()
	m, err := mesh.GenerateWing(mesh.DefaultWingSpec(nx, ny, nz))
	if err != nil {
		t.Fatal(err)
	}
	d, err := euler.NewDiscretization(m, nil, euler.NewIncompressible(), euler.Options{Order: 1, Layout: sparse.Interlaced})
	if err != nil {
		t.Fatal(err)
	}
	g := sparse.Graph{NV: m.NumVertices(), XAdj: m.XAdj, Adj: m.Adj}
	p, err := partition.KWay(g, nparts)
	if err != nil {
		t.Fatal(err)
	}
	// A smooth non-freestream state so every flux term is exercised.
	q := d.FreestreamVector()
	for i := range q {
		q[i] += 0.05 * math.Sin(float64(i)*0.13)
	}
	return d, p, q
}

// TestDistributedResidualMatchesSequential: the overlapped
// interior/frontier edge split must reproduce the sequential residual
// on every owned vertex. Each rank's state holds garbage (NaN) at
// every vertex it neither owns nor receives as a ghost, proving the
// halo supplies exactly the state the frontier edges read.
func TestDistributedResidualMatchesSequential(t *testing.T) {
	const nranks = 4
	d, p, q := buildResidualProblem(t, 7, 6, 5, nranks)
	b := 4
	want := make([]float64, d.N())
	d.Residual(q, want)

	err := mpi.Run(nranks, func(c *mpi.Comm) error {
		rd, err := NewResidual(c, d, p.Part)
		if err != nil {
			return err
		}
		lq := make([]float64, d.N())
		res := make([]float64, d.N())
		for i := range lq {
			lq[i] = math.NaN()
		}
		for v := int32(0); v < int32(d.M.NumVertices()); v++ {
			if rd.Owned(v) {
				copy(lq[int(v)*b:(int(v)+1)*b], q[int(v)*b:(int(v)+1)*b])
			}
		}
		if err := rd.Eval(lq, res); err != nil {
			return err
		}
		for v := int32(0); v < int32(d.M.NumVertices()); v++ {
			if !rd.Owned(v) {
				continue
			}
			for cpt := 0; cpt < b; cpt++ {
				got, ref := res[int(v)*b+cpt], want[int(v)*b+cpt]
				if math.IsNaN(got) || math.Abs(got-ref) > 1e-12 {
					return fmt.Errorf("rank %d vertex %d comp %d: %g vs %g", c.Rank(), v, cpt, got, ref)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDistributedResidualPhases: on every rank the overlapped Eval
// records exactly flux (uncharged: the work is in the nested spans),
// scatter_pack, scatter_wait, interior and boundary, and OwnedNorm2 one
// reduce span, each charged its cost formulas. Eval makes exactly the
// halo's messages, and OwnedNorm2 its one collective.
func TestDistributedResidualPhases(t *testing.T) {
	const nranks = 3
	d, p, q0 := buildResidualProblem(t, 6, 5, 4, nranks)
	b := d.Sys.B()
	plan := faults.NewPlan(0, faults.ProfileNone)
	err := mpi.Run(nranks, func(c *mpi.Comm) error {
		rd, err := NewResidual(c, d, p.Part)
		if err != nil {
			return err
		}
		h := rd.halo
		ops := countOps(plan, c)
		q := make([]float64, d.N())
		for v := int32(0); v < int32(d.M.NumVertices()); v++ {
			if rd.Owned(v) {
				copy(q[int(v)*b:(int(v)+1)*b], q0[int(v)*b:(int(v)+1)*b])
			}
		}
		res := make([]float64, d.N())
		rep, err := profiled(func(p *prof.Profiler) error { rd.Prof = p; return rd.Eval(q, res) })
		if err != nil {
			return err
		}
		if err := samePhases("residual", rep, map[string]prof.PhaseStat{
			"flux":         {Calls: 1},
			"scatter_pack": {Calls: 2, Bytes: h.haloPackBytes() + h.haloUnpackBytes()},
			"scatter_wait": {Calls: 1, Bytes: h.haloWireBytes()},
			"interior": {Calls: 1, Flops: euler.EdgeSubsetFlops(len(rd.interior), b),
				Bytes: euler.EdgeSubsetBytes(len(rd.interior), b)},
			"boundary": {Calls: 1, Flops: euler.EdgeSubsetFlops(len(rd.frontier), b),
				Bytes: euler.EdgeSubsetBytes(len(rd.frontier), b)},
		}); err != nil {
			return err
		}
		if len(rd.interior) == 0 || len(rd.frontier) == 0 {
			return fmt.Errorf("rank %d: %d interior and %d frontier edges; want both nonempty",
				c.Rank(), len(rd.interior), len(rd.frontier))
		}
		if n, msgs := ops(), haloMessages(h); n != msgs || msgs == 0 {
			return fmt.Errorf("rank %d: residual made %d fabric operations, want the halo's %d (> 0)", c.Rank(), n, msgs)
		}
		rep, _ = profiled(func(p *prof.Profiler) error { rd.Prof = p; rd.OwnedNorm2(res); return nil })
		if err := samePhases("owned norm", rep, map[string]prof.PhaseStat{
			"reduce": {Calls: 1, Flops: par.MDotFlops(1, rd.nOwned*b), Bytes: par.MDotBytes(1, rd.nOwned*b)},
		}); err != nil {
			return err
		}
		if n := ops(); n != 1 {
			return fmt.Errorf("rank %d: owned norm made %d fabric operations, want its one collective", c.Rank(), n)
		}
		return nil
	}, mpi.Options{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNewResidualValidation(t *testing.T) {
	d, p, _ := buildResidualProblem(t, 5, 4, 4, 2)
	// Second-order discretizations are rejected before any communication.
	d2, err := euler.NewDiscretization(d.M, d.Geo, d.Sys, euler.Options{Order: 2, Layout: sparse.Interlaced})
	if err != nil {
		t.Fatal(err)
	}
	err = mpi.Run(2, func(c *mpi.Comm) error {
		if _, err := NewResidual(c, d2, p.Part); err == nil {
			return fmt.Errorf("second-order discretization accepted")
		}
		if _, err := NewResidual(c, d, p.Part[:3]); err == nil {
			return fmt.Errorf("short partition accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
