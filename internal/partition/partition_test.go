package partition

import (
	"testing"
	"testing/quick"

	"petscfun3d/internal/mesh"
	"petscfun3d/internal/sparse"
)

func wingGraph(t testing.TB, nx, ny, nz int) sparse.Graph {
	t.Helper()
	m, err := mesh.GenerateWing(mesh.DefaultWingSpec(nx, ny, nz))
	if err != nil {
		t.Fatal(err)
	}
	return sparse.Graph{NV: m.NumVertices(), XAdj: m.XAdj, Adj: m.Adj}
}

func TestKWayBasics(t *testing.T) {
	g := wingGraph(t, 12, 10, 8)
	for _, np := range []int{1, 2, 4, 8, 16} {
		p, err := KWay(g, np)
		if err != nil {
			t.Fatalf("KWay(%d): %v", np, err)
		}
		if p.NParts != np {
			t.Fatalf("NParts = %d", p.NParts)
		}
		if imb := p.Imbalance(); imb > 1.3 {
			t.Errorf("KWay(%d) imbalance %.3f too high", np, imb)
		}
		sizes := p.Sizes()
		total := 0
		for _, s := range sizes {
			if s == 0 {
				t.Errorf("KWay(%d): empty part", np)
			}
			total += s
		}
		if total != g.NV {
			t.Errorf("KWay(%d): sizes sum %d != %d", np, total, g.NV)
		}
	}
}

func TestKWayMostlyConnected(t *testing.T) {
	g := wingGraph(t, 12, 10, 8)
	p, err := KWay(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	comps := p.Components(g)
	multi := 0
	for _, c := range comps {
		if c < 1 {
			t.Fatalf("part with %d components", c)
		}
		if c > 1 {
			multi++
		}
	}
	if multi > 2 {
		t.Errorf("KWay produced %d fragmented parts of 8", multi)
	}
}

func TestPWayBalanceBeatsKWay(t *testing.T) {
	g := wingGraph(t, 12, 10, 8)
	kp, err := KWay(g, 16)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := PWay(g, 16)
	if err != nil {
		t.Fatal(err)
	}
	// PWay must achieve near-perfect balance: sizes within one.
	sizes := pp.Sizes()
	lo, hi := g.NV, 0
	for _, s := range sizes {
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	if hi-lo > 1 {
		t.Errorf("PWay sizes spread %d..%d, want within 1", lo, hi)
	}
	if pp.Imbalance() > kp.Imbalance()+1e-9 {
		t.Errorf("PWay imbalance %.4f worse than KWay %.4f", pp.Imbalance(), kp.Imbalance())
	}
}

func TestEdgeCutSane(t *testing.T) {
	g := wingGraph(t, 10, 8, 7)
	p, err := KWay(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	cut := p.EdgeCut(g)
	totalEdges := len(g.Adj) / 2
	if cut <= 0 || cut >= totalEdges {
		t.Errorf("edge cut %d outside (0, %d)", cut, totalEdges)
	}
	// Single part: no cut.
	p1, _ := KWay(g, 1)
	if p1.EdgeCut(g) != 0 {
		t.Error("1-part cut nonzero")
	}
}

func TestComponentsCountsSingletons(t *testing.T) {
	// Hand-built graph: two disjoint triangles assigned to one part must
	// count as 2 components.
	xadj := []int32{0, 2, 4, 6, 8, 10, 12}
	adj := []int32{1, 2, 0, 2, 0, 1, 4, 5, 3, 5, 3, 4}
	g := sparse.Graph{NV: 6, XAdj: xadj, Adj: adj}
	p := &Partition{NParts: 1, Part: make([]int32, 6)}
	comps := p.Components(g)
	if comps[0] != 2 {
		t.Errorf("components = %d, want 2", comps[0])
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	g := wingGraph(t, 5, 4, 3)
	p := &Partition{NParts: 2, Part: make([]int32, g.NV)}
	p.Part[0] = 5 // invalid part
	if err := p.Validate(g); err == nil {
		t.Error("invalid part index accepted")
	}
	p2 := &Partition{NParts: 2, Part: make([]int32, 3)}
	if err := p2.Validate(g); err == nil {
		t.Error("wrong length accepted")
	}
	// All vertices in part 0 leaves part 1 empty.
	p3 := &Partition{NParts: 2, Part: make([]int32, g.NV)}
	if err := p3.Validate(g); err == nil {
		t.Error("empty part accepted")
	}
}

func TestKWayRejectsBadCounts(t *testing.T) {
	g := wingGraph(t, 4, 3, 3)
	if _, err := KWay(g, 0); err == nil {
		t.Error("nparts=0 accepted")
	}
	if _, err := KWay(g, g.NV+1); err == nil {
		t.Error("nparts>NV accepted")
	}
}

func TestBuildHalosSymmetric(t *testing.T) {
	g := wingGraph(t, 10, 8, 6)
	p, err := KWay(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	halos := BuildHalos(g, p)
	// Symmetry: part a's ghosts owned by b == part b's sends to a.
	for a := int32(0); a < int32(p.NParts); a++ {
		for b, ghosts := range halos[a].Ghosts {
			sends := halos[b].Sends[a]
			if len(sends) != len(ghosts) {
				t.Fatalf("halo asymmetry between %d and %d: %d vs %d", a, b, len(ghosts), len(sends))
			}
			for i := range sends {
				if sends[i] != ghosts[i] {
					t.Fatalf("halo lists differ between %d and %d", a, b)
				}
				if p.Part[sends[i]] != b {
					t.Fatalf("send list of %d contains vertex not owned by it", b)
				}
			}
		}
	}
	// Every cut edge's off-part endpoint is some ghost.
	totalGhosts := 0
	for i := range halos {
		totalGhosts += halos[i].NumGhosts()
	}
	if totalGhosts == 0 {
		t.Error("no ghosts in a 6-way partition")
	}
}

func TestHaloShrinksPerPartWithMoreParts(t *testing.T) {
	// Surface-to-volume: with more parts, ghosts per part grow as a
	// fraction of part size (the paper's communication-growth effect:
	// total communicated data rises with processor count).
	g := wingGraph(t, 14, 12, 9)
	tot := func(np int) int {
		p, err := KWay(g, np)
		if err != nil {
			t.Fatal(err)
		}
		halos := BuildHalos(g, p)
		n := 0
		for i := range halos {
			n += halos[i].NumGhosts()
		}
		return n
	}
	g4, g32 := tot(4), tot(32)
	if g32 <= g4 {
		t.Errorf("total ghosts should grow with parts: %d (4) vs %d (32)", g4, g32)
	}
}

func TestPWayFragmentsMoreAtScale(t *testing.T) {
	g := wingGraph(t, 14, 12, 9)
	np := 64
	kp, err := KWay(g, np)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := PWay(g, np)
	if err != nil {
		t.Fatal(err)
	}
	kc, pc := kp.Components(g), pp.Components(g)
	kExtra, pExtra := 0, 0
	for i := 0; i < np; i++ {
		kExtra += kc[i] - 1
		pExtra += pc[i] - 1
	}
	if pExtra < kExtra {
		t.Errorf("PWay extra components %d < KWay %d; balance pass should not reduce fragmentation", pExtra, kExtra)
	}
}

func BenchmarkKWay64(b *testing.B) {
	g := wingGraph(b, 20, 16, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KWay(g, 64); err != nil {
			b.Fatal(err)
		}
	}
}

func TestKWayValidProperty(t *testing.T) {
	// Property: KWay yields a valid partition (all vertices assigned, no
	// empty part) for arbitrary part counts.
	g := wingGraph(t, 8, 7, 5)
	f := func(raw uint8) bool {
		np := int(raw)%48 + 1
		p, err := KWay(g, np)
		if err != nil {
			return false
		}
		return p.Validate(g) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestKWayDeterministic is the regression for score ties that used to
// fall to map iteration order in rebalance and refineCut: with three or
// more parts KWay could return different partitions call to call
// (12 of 60 calls at 600 vertices and 4 parts).
func TestKWayDeterministic(t *testing.T) {
	m, err := mesh.GenerateWingN(600)
	if err != nil {
		t.Fatal(err)
	}
	g := sparse.Graph{NV: m.NumVertices(), XAdj: m.XAdj, Adj: m.Adj}
	for _, nparts := range []int{3, 4, 8} {
		first, err := KWay(g, nparts)
		if err != nil {
			t.Fatal(err)
		}
		for call := 1; call < 60; call++ {
			p, err := KWay(g, nparts)
			if err != nil {
				t.Fatal(err)
			}
			for v := range p.Part {
				if p.Part[v] != first.Part[v] {
					t.Fatalf("%d parts: call %d puts vertex %d in part %d, the first call in %d", nparts, call, v, p.Part[v], first.Part[v])
				}
			}
		}
	}
}
