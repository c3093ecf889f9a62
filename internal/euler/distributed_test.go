package euler

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"petscfun3d/internal/partition"
	"petscfun3d/internal/sparse"
)

// TestLocalJacobianMatchesGlobalBitwise: every rank's in-place rows and
// owned time scales are the owned rows of the global AssembleJacobian
// and TimeScalesInto bit for bit — both systems, 1 to 4 ranks, both
// partitioners, both edge orderings, at freestream and at a perturbed
// state. A rank's array here is its owned rows of the global pattern,
// back to back, then the sink; it starts out all NaN, so a block the
// plan leaves unwritten, or a sink value leaking into an owned row,
// shows.
func TestLocalJacobianMatchesGlobalBitwise(t *testing.T) {
	m := testMesh(t, 7, 6, 5)
	nv := m.NumVertices()
	g := sparse.Graph{NV: nv, XAdj: m.XAdj, Adj: m.Adj}
	partitioners := map[string]func(sparse.Graph, int) (*partition.Partition, error){
		"kway": partition.KWay, "pway": partition.PWay,
	}
	for _, sys := range kernelSystems() {
		for _, ordering := range []string{"sorted", "colored"} {
			d := newDisc(t, m, sys, Options{Order: 1, EdgeOrdering: ordering})
			b := sys.B()
			bb := b * b
			a := d.JacobianPattern()
			for state, q := range map[string][]float64{"freestream": d.FreestreamVector(), "perturbed": roughState(d)} {
				if err := d.AssembleJacobian(q, a); err != nil {
					t.Fatal(err)
				}
				wantTS := d.TimeScales(q)
				for pname, cut := range partitioners {
					for nranks := 1; nranks <= 4; nranks++ {
						part, err := cut(g, nranks)
						if err != nil {
							t.Fatal(err)
						}
						for rank := int32(0); rank < int32(nranks); rank++ {
							name := fmt.Sprintf("%s/%s/%s/%s/rank %d of %d", sys.Name(), ordering, state, pname, rank, nranks)
							owned := make([]bool, nv)
							first := make([]int32, nv) // first block of each owned row in the rank's array
							nblocks := int32(0)
							for v := range owned {
								if owned[v] = part.Part[v] == rank; owned[v] {
									first[v] = nblocks
									nblocks += a.RowPtr[v+1] - a.RowPtr[v]
								}
							}
							block := func(i, j int32) (int32, bool) {
								k, ok := slices.BinarySearch(a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]], j)
								return first[i] + int32(k), ok
							}
							plan, err := d.PlanLocalJacobian(owned, block, nblocks)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							val := make([]float64, int(nblocks+1)*bb)
							ts := make([]float64, nv)
							for i := range val {
								val[i] = math.NaN()
							}
							for i := range ts {
								ts[i] = math.NaN()
							}
							plan.Assemble(q, val)
							plan.TimeScalesInto(q, ts)
							for v := range owned {
								if !owned[v] {
									continue
								}
								lo, n := int(first[v])*bb, int(a.RowPtr[v+1]-a.RowPtr[v])*bb
								requireSame(t, fmt.Sprintf("%s: row %d", name, v), val[lo:lo+n], a.Val[int(a.RowPtr[v])*bb:][:n])
								requireSame(t, fmt.Sprintf("%s: time scale %d", name, v), ts[v:v+1], wantTS[v:v+1])
							}
							if sink := val[int(nblocks)*bb:]; nranks == 1 && slices.ContainsFunc(sink, func(x float64) bool { return x != 0 }) {
								t.Fatalf("%s: a rank that owns every row accumulated into the sink", name)
							}
						}
					}
				}
			}
		}
	}
}

// TestPlanLocalJacobianValidation: a short mask, a discretization the
// distributed path does not support and an array without one of the
// mesh graph's blocks are errors.
func TestPlanLocalJacobianValidation(t *testing.T) {
	m := testMesh(t, 5, 4, 4)
	nv := m.NumVertices()
	all := make([]bool, nv)
	for v := range all {
		all[v] = true
	}
	none := func(i, j int32) (int32, bool) { return 0, false }
	d := newDisc(t, m, NewIncompressible(), Options{Order: 1})
	if _, err := d.PlanLocalJacobian(all[:nv-1], none, 0); err == nil {
		t.Error("short ownership mask accepted")
	}
	if _, err := d.PlanLocalJacobian(all, none, 0); err == nil {
		t.Error("array without the graph's blocks accepted")
	}
	viscous := newDisc(t, m, NewIncompressible(), Options{Order: 1, Viscosity: 0.01})
	if _, err := viscous.PlanLocalJacobian(all, none, 0); err == nil {
		t.Error("viscous discretization accepted")
	}
}
