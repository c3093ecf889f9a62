package mesh

import (
	"testing"
	"testing/quick"
)

func testWing(t *testing.T, nx, ny, nz int) *Mesh {
	t.Helper()
	m, err := GenerateWing(DefaultWingSpec(nx, ny, nz))
	if err != nil {
		t.Fatalf("GenerateWing(%d,%d,%d): %v", nx, ny, nz, err)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return m
}

func TestGenerateWingCounts(t *testing.T) {
	cases := []struct{ nx, ny, nz int }{
		{2, 2, 2}, {3, 3, 3}, {5, 4, 3}, {10, 8, 6},
	}
	for _, c := range cases {
		m := testWing(t, c.nx, c.ny, c.nz)
		wantV := c.nx * c.ny * c.nz
		if m.NumVertices() != wantV {
			t.Errorf("%dx%dx%d: vertices = %d, want %d", c.nx, c.ny, c.nz, m.NumVertices(), wantV)
		}
		wantT := 6 * (c.nx - 1) * (c.ny - 1) * (c.nz - 1)
		if m.NumTets() != wantT {
			t.Errorf("%dx%dx%d: tets = %d, want %d", c.nx, c.ny, c.nz, m.NumTets(), wantT)
		}
	}
}

func TestGenerateWingRejectsBadSpec(t *testing.T) {
	if _, err := GenerateWing(DefaultWingSpec(1, 3, 3)); err == nil {
		t.Error("expected error for nx=1")
	}
	spec := DefaultWingSpec(3, 3, 3)
	spec.Taper = 0
	if _, err := GenerateWing(spec); err == nil {
		t.Error("expected error for taper=0")
	}
	spec.Taper = 1.5
	if _, err := GenerateWing(spec); err == nil {
		t.Error("expected error for taper>1")
	}
}

func TestWingDegreeStatistics(t *testing.T) {
	m := testWing(t, 12, 10, 8)
	// Interior vertices of the 6-tet hex split have degree 14; the mean
	// over the whole mesh should land near the unstructured-CFD range the
	// paper assumes (~15 nonzeros per row).
	avg := m.AvgDegree()
	if avg < 9 || avg > 15 {
		t.Errorf("average degree %.2f outside expected range [9, 15]", avg)
	}
	if m.MaxDegree() > 20 {
		t.Errorf("max degree %d unexpectedly large", m.MaxDegree())
	}
}

func TestWingConnected(t *testing.T) {
	m := testWing(t, 6, 5, 4)
	seen := make([]bool, m.NumVertices())
	stack := []int32{0}
	seen[0] = true
	count := 0
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		count++
		for _, w := range m.Neighbors(int(v)) {
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	if count != m.NumVertices() {
		t.Errorf("mesh graph disconnected: reached %d of %d vertices", count, m.NumVertices())
	}
}

func TestGenerateWingN(t *testing.T) {
	for _, target := range []int{100, 1000, 22677} {
		m, err := GenerateWingN(target)
		if err != nil {
			t.Fatalf("GenerateWingN(%d): %v", target, err)
		}
		got := m.NumVertices()
		if got < target/3 || got > target*3 {
			t.Errorf("GenerateWingN(%d) produced %d vertices, outside 3x band", target, got)
		}
	}
	if _, err := GenerateWingN(1); err == nil {
		t.Error("expected error for tiny target")
	}
}

func TestRCMReducesBandwidth(t *testing.T) {
	m := testWing(t, 10, 9, 8)
	natBW := m.Bandwidth()
	rcm := m.Renumber(RCM(m))
	if err := rcm.Validate(); err != nil {
		t.Fatalf("renumbered mesh invalid: %v", err)
	}
	rcmBW := rcm.Bandwidth()
	// Natural ordering of a 10x9x8 lattice has bandwidth ~ nx*ny ≈ 90+;
	// RCM should not be worse and typically is comparable or better. The
	// important property for the paper is that RCM beats a *scrambled*
	// ordering decisively.
	if rcmBW > natBW {
		t.Errorf("RCM bandwidth %d worse than natural %d", rcmBW, natBW)
	}
	scrambled := m.Renumber(scrambleOrdering(m.NumVertices()))
	badBW := scrambled.Bandwidth()
	rescued := scrambled.Renumber(RCM(scrambled))
	if got := rescued.Bandwidth(); got*2 > badBW {
		t.Errorf("RCM bandwidth %d not < half of scrambled bandwidth %d", got, badBW)
	}
}

// scrambleOrdering returns a deterministic pseudo-random permutation.
func scrambleOrdering(n int) Ordering {
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	state := uint64(0x9e3779b97f4a7c15)
	for i := n - 1; i > 0; i-- {
		state = state*6364136223846793005 + 1442695040888963407
		j := int(state % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	return NewOrdering(order)
}

func TestOrderingInverse(t *testing.T) {
	ord := scrambleOrdering(257)
	for o := range ord.Perm {
		if ord.Order[ord.Perm[o]] != int32(o) {
			t.Fatalf("Order[Perm[%d]] = %d", o, ord.Order[ord.Perm[o]])
		}
	}
	id := Identity(31)
	for i, v := range id.Order {
		if int(v) != i || id.Perm[i] != int32(i) {
			t.Fatalf("Identity broken at %d", i)
		}
	}
}

func TestRenumberPreservesGraph(t *testing.T) {
	m := testWing(t, 5, 5, 4)
	ord := scrambleOrdering(m.NumVertices())
	rm := m.Renumber(ord)
	if rm.NumEdges() != m.NumEdges() {
		t.Fatalf("edge count changed: %d -> %d", m.NumEdges(), rm.NumEdges())
	}
	// Every original edge must map to an edge of the renumbered mesh.
	has := make(map[Edge]bool, rm.NumEdges())
	for _, e := range rm.Edges {
		has[e] = true
	}
	for _, e := range m.Edges {
		a, b := ord.Perm[e.A], ord.Perm[e.B]
		if a > b {
			a, b = b, a
		}
		if !has[Edge{a, b}] {
			t.Fatalf("edge (%d,%d) lost in renumbering", e.A, e.B)
		}
	}
	// Coordinates and boundary flags follow their vertices.
	for newIdx, oldIdx := range ord.Order {
		if rm.Coords[newIdx] != m.Coords[oldIdx] {
			t.Fatalf("coords not permuted at %d", newIdx)
		}
		if rm.Boundary[newIdx] != m.Boundary[oldIdx] {
			t.Fatalf("boundary flag not permuted at %d", newIdx)
		}
	}
}

func TestSortEdges(t *testing.T) {
	m := testWing(t, 6, 5, 4)
	_, classes := ColorEdges(m.Edges, m.NumVertices())
	colored, _ := ColorEdges(m.Edges, m.NumVertices())
	sorted := SortEdges(colored)
	for i := 1; i < len(sorted); i++ {
		if sorted[i].A < sorted[i-1].A ||
			(sorted[i].A == sorted[i-1].A && sorted[i].B < sorted[i-1].B) {
			t.Fatalf("SortEdges not sorted at %d", i)
		}
	}
	if len(sorted) != len(m.Edges) {
		t.Fatalf("SortEdges changed length")
	}
	_ = classes
}

func TestColorEdgesValid(t *testing.T) {
	m := testWing(t, 7, 6, 5)
	ordered, classes := ColorEdges(m.Edges, m.NumVertices())
	total := 0
	for _, c := range classes {
		total += c
	}
	if total != len(m.Edges) {
		t.Fatalf("class sizes sum to %d, want %d", total, len(m.Edges))
	}
	if !VerifyColoring(ordered, classes, m.NumVertices()) {
		t.Fatal("coloring invalid: a color class repeats a vertex")
	}
	// A valid edge coloring needs at least maxDegree colors.
	if len(classes) < m.MaxDegree() {
		t.Errorf("got %d colors, expected at least max degree %d", len(classes), m.MaxDegree())
	}
}

func TestColoredOrderingHasWorseLocality(t *testing.T) {
	m := testWing(t, 10, 8, 7)
	sorted := SortEdges(m.Edges)
	colored, _ := ColorEdges(m.Edges, m.NumVertices())
	rs := MeanReuseTime(sorted, m.NumVertices())
	rc := MeanReuseTime(colored, m.NumVertices())
	// The colored (vector-machine) ordering should have decisively worse
	// reuse times than the sorted ordering.
	if rs*3 > rc {
		t.Errorf("sorted reuse time %.1f not >=3x better than colored %.1f", rs, rc)
	}
}

func TestMeanReuseTimeDegenerate(t *testing.T) {
	if MeanReuseTime(nil, 4) != 0 {
		t.Error("MeanReuseTime(nil) should be 0")
	}
	if MeanReuseTime([]Edge{{0, 1}, {2, 3}}, 4) != 0 {
		t.Error("no vertex reused: reuse time should be 0")
	}
	// Edge repeated immediately: references A B A B, reuse time 2.
	if got := MeanReuseTime([]Edge{{0, 1}, {0, 1}}, 2); got != 2 {
		t.Errorf("MeanReuseTime of repeated edge = %v, want 2", got)
	}
}

func TestEdgeLocalityDegenerate(t *testing.T) {
	if EdgeLocality(nil) != 0 || EdgeLocality([]Edge{{0, 1}}) != 0 {
		t.Error("EdgeLocality of <2 edges should be 0")
	}
}

func TestBandwidthProperty(t *testing.T) {
	// Property: bandwidth is invariant under the identity and bounded by
	// n-1 under any permutation.
	m := testWing(t, 5, 4, 4)
	f := func(seed uint32) bool {
		ord := scrambleOrderingSeeded(m.NumVertices(), uint64(seed)+1)
		bw := m.Renumber(ord).Bandwidth()
		return bw >= 1 && bw <= m.NumVertices()-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func scrambleOrderingSeeded(n int, seed uint64) Ordering {
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	state := seed
	for i := n - 1; i > 0; i-- {
		state = state*6364136223846793005 + 1442695040888963407
		j := int(state % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	return NewOrdering(order)
}

func TestValidateCatchesCorruption(t *testing.T) {
	m := testWing(t, 3, 3, 3)
	bad := *m
	bad.Tets = append([][4]int32{}, m.Tets...)
	bad.Tets[0] = [4]int32{0, 0, 1, 2}
	if err := bad.Validate(); err == nil {
		t.Error("repeated vertex in tet not caught")
	}
	bad.Tets[0] = [4]int32{0, 1, 2, 9999}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range vertex not caught")
	}
	bad2 := *m
	bad2.Edges = append([]Edge{}, m.Edges...)
	bad2.Edges[0] = Edge{5, 5}
	if err := bad2.Validate(); err == nil {
		t.Error("degenerate edge not caught")
	}
	bad3 := *m
	bad3.Adj = append([]int32{}, m.Adj...)
	bad3.Adj[0], bad3.Adj[1] = bad3.Adj[1], bad3.Adj[0]
	if err := bad3.Validate(); err == nil {
		t.Error("unsorted neighbour list not caught")
	}
}

// TestConnectivityIsSortedAndUnique: buildConnectivity sorts nothing
// after bucketing, so the orders every consumer relies on — edges
// strictly ascending by (A, B), each vertex's neighbours strictly
// ascending — are checked on a generated, an RCM-renumbered and a
// scrambled mesh, against an edge set recomputed the slow way.
func TestConnectivityIsSortedAndUnique(t *testing.T) {
	m := testWing(t, 6, 5, 4)
	for name, mm := range map[string]*Mesh{
		"generated": m,
		"rcm":       m.Renumber(RCM(m)),
		"scrambled": m.Renumber(scrambleOrdering(m.NumVertices())),
	} {
		if err := mm.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := map[Edge]bool{}
		for _, tet := range mm.Tets {
			for i := 0; i < 4; i++ {
				for j := i + 1; j < 4; j++ {
					want[Edge{min(tet[i], tet[j]), max(tet[i], tet[j])}] = true
				}
			}
		}
		if len(mm.Edges) != len(want) || cap(mm.Edges) != len(want) {
			t.Fatalf("%s: %d edges in capacity %d, want exactly %d", name, len(mm.Edges), cap(mm.Edges), len(want))
		}
		for i, e := range mm.Edges {
			if !want[e] {
				t.Fatalf("%s: edge %v is not an edge of any tetrahedron", name, e)
			}
			if i > 0 && !(mm.Edges[i-1].A < e.A || (mm.Edges[i-1].A == e.A && mm.Edges[i-1].B < e.B)) {
				t.Fatalf("%s: edges %v, %v out of (A, B) order", name, mm.Edges[i-1], e)
			}
		}
	}
}

func BenchmarkGenerateWing22k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := GenerateWingN(22677)
		if err != nil {
			b.Fatal(err)
		}
		_ = m
	}
}

func BenchmarkRCM22k(b *testing.B) {
	m, err := GenerateWingN(22677)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = RCM(m)
	}
}
