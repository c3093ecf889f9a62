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
// back to back, then the sink, and its time scales one per owned row,
// then the sink's; both start out all NaN, so an entry the plan leaves
// unwritten, or a sink value leaking into an owned row, shows.
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
							var owned []int32
							first := make([]int32, nv) // first block of each owned row in the rank's array
							nblocks := int32(0)
							for v := range first {
								if part.Part[v] == rank {
									owned = append(owned, int32(v))
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
							ts := make([]float64, len(owned)+1)
							for i := range val {
								val[i] = math.NaN()
							}
							for i := range ts {
								ts[i] = math.NaN()
							}
							plan.Assemble(q, val)
							plan.TimeScalesInto(q, ts)
							for li, v := range owned {
								lo, n := int(first[v])*bb, int(a.RowPtr[v+1]-a.RowPtr[v])*bb
								requireSame(t, fmt.Sprintf("%s: row %d", name, v), val[lo:lo+n], a.Val[int(a.RowPtr[v])*bb:][:n])
								requireSame(t, fmt.Sprintf("%s: time scale %d", name, v), ts[li:li+1], wantTS[v:v+1])
							}
							if nranks == 1 && ts[len(owned)] != 0 {
								t.Fatalf("%s: a rank that owns every row accumulated into the sink time scale", name)
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

// TestPlanLocalJacobianValidation: an owned list that is not ascending
// vertices, a discretization the distributed path does not support and
// an array without one of the mesh graph's blocks are errors.
func TestPlanLocalJacobianValidation(t *testing.T) {
	m := testMesh(t, 5, 4, 4)
	nv := int32(m.NumVertices())
	all := make([]int32, nv)
	for v := range all {
		all[v] = int32(v)
	}
	none := func(i, j int32) (int32, bool) { return 0, false }
	some := func(i, j int32) (int32, bool) { return 0, true }
	d := newDisc(t, m, NewIncompressible(), Options{Order: 1})
	for name, owned := range map[string][]int32{"repeated": {3, 3}, "descending": {4, 2}, "past the mesh": {nv}, "negative": {-1}} {
		if _, err := d.PlanLocalJacobian(owned, some, 0); err == nil {
			t.Errorf("%s owned list accepted", name)
		}
	}
	if _, err := d.PlanLocalJacobian(all, none, 0); err == nil {
		t.Error("array without the graph's blocks accepted")
	}
	if _, err := d.PlanLocalJacobian(nil, none, 0); err != nil {
		t.Errorf("a rank that owns no row needs no block: %v", err)
	}
	viscous := newDisc(t, m, NewIncompressible(), Options{Order: 1, Viscosity: 0.01})
	if _, err := viscous.PlanLocalJacobian(all, some, 0); err == nil {
		t.Error("viscous discretization accepted")
	}
}
