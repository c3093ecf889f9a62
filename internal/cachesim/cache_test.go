package cachesim

import (
	"testing"

	"petscfun3d/internal/ilu"
	"petscfun3d/internal/mesh"
	"petscfun3d/internal/sparse"
)

func TestCacheGeometryErrors(t *testing.T) {
	if _, err := NewCache("x", 0, 32, 2); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := NewCache("x", 100, 32, 2); err == nil {
		t.Error("non-multiple size accepted")
	}
	if _, err := NewCache("x", 64, 32, 4); err == nil {
		t.Error("fewer lines than ways accepted")
	}
}

func TestCacheDirectMappedConflict(t *testing.T) {
	// Direct-mapped, 4 lines of 64 B: addresses 0 and 256 map to set 0.
	c := MustCache("dm", 256, 64, 1)
	c.Access(0)
	c.Access(256)
	c.Access(0)
	c.Access(256)
	if c.Misses != 4 {
		t.Errorf("conflict thrash: misses = %d, want 4", c.Misses)
	}
	// 2-way cache of the same size holds both lines.
	c2 := MustCache("2w", 256, 64, 2)
	c2.Access(0)
	c2.Access(256)
	c2.Access(0)
	c2.Access(256)
	if c2.Misses != 2 {
		t.Errorf("2-way: misses = %d, want 2 (compulsory only)", c2.Misses)
	}
}

func TestCacheLRUOrder(t *testing.T) {
	// Fully associative cache of 2 lines: A B A C must evict B, not A.
	c := MustCache("fa", 128, 64, 2)
	c.Access(0)       // A: miss
	c.Access(64)      // B: miss
	c.Access(0)       // A: hit (A becomes MRU)
	c.Access(2 << 10) // C: miss, evicts B
	if c.Misses != 3 {
		t.Fatalf("misses = %d, want 3", c.Misses)
	}
	if !c.Access(0) {
		t.Error("A should still be resident")
	}
	if c.Access(64) {
		t.Error("B should have been evicted")
	}
}

func TestCacheHitSequential(t *testing.T) {
	c := MustCache("seq", 1<<10, 64, 2)
	// 8 accesses within one line: 1 miss, 7 hits.
	for i := 0; i < 8; i++ {
		c.Access(uint64(i * 8))
	}
	if c.Misses != 1 || c.Accesses != 8 {
		t.Errorf("misses=%d accesses=%d, want 1/8", c.Misses, c.Accesses)
	}
	if got := c.MissRate(); got != 0.125 {
		t.Errorf("MissRate = %v, want 0.125", got)
	}
	c.Reset()
	if c.Accesses != 0 || c.Misses != 0 || c.MissRate() != 0 {
		t.Error("Reset did not clear counters")
	}
	if c.Access(0) {
		t.Error("Reset did not clear contents")
	}
}

func TestHierarchySpanningAccess(t *testing.T) {
	h := &Hierarchy{
		L1:  MustCache("L1", 1<<10, 32, 2),
		L2:  MustCache("L2", 8<<10, 128, 2),
		TLB: MustCache("TLB", 4*4<<10, 4<<10, 4),
	}
	// A 64-byte access spanning two 32-byte L1 lines.
	h.Access(0, 64)
	if h.L1.Accesses != 2 {
		t.Errorf("L1 accesses = %d, want 2", h.L1.Accesses)
	}
	if h.TLB.Accesses != 1 {
		t.Errorf("TLB accesses = %d, want 1", h.TLB.Accesses)
	}
	// An access crossing a page boundary touches two TLB entries.
	h.Reset()
	h.Access(4095, 2)
	if h.TLB.Accesses != 2 {
		t.Errorf("page-crossing TLB accesses = %d, want 2", h.TLB.Accesses)
	}
	h.Access(0, 0) // degenerate: no-op
	c := h.Counters()
	if c.Accesses != h.L1.Accesses {
		t.Error("Counters snapshot mismatched")
	}
}

func TestL2OnlyAccessedOnL1Miss(t *testing.T) {
	h := &Hierarchy{
		L1:  MustCache("L1", 1<<10, 32, 2),
		L2:  MustCache("L2", 8<<10, 128, 2),
		TLB: MustCache("TLB", 4*4<<10, 4<<10, 4),
	}
	h.Access(0, 8)
	h.Access(0, 8)
	if h.L2.Accesses != 1 {
		t.Errorf("L2 accesses = %d, want 1 (only the L1 miss)", h.L2.Accesses)
	}
}

// smallHierarchy returns a hierarchy small enough that a modest test mesh
// exhibits capacity behavior.
func smallHierarchy() *Hierarchy {
	return &Hierarchy{
		L1:  MustCache("L1", 2<<10, 32, 2),
		L2:  MustCache("L2", 32<<10, 128, 2),
		TLB: MustCache("TLB", 16*4<<10, 4<<10, 16),
	}
}

func buildTestMesh(t testing.TB) *mesh.Mesh {
	t.Helper()
	m, err := mesh.GenerateWing(mesh.DefaultWingSpec(14, 11, 9))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestInterlacingReducesSpMVMisses(t *testing.T) {
	m := buildTestMesh(t)
	g := sparse.Graph{NV: m.NumVertices(), XAdj: m.XAdj, Adj: m.Adj}
	b := 4
	inter := sparse.ScalarPattern(g, b, sparse.Interlaced)
	non := sparse.ScalarPattern(g, b, sparse.NonInterlaced)

	run := func(a *sparse.CSR) Counters {
		h := smallHierarchy()
		as := NewAddressSpace()
		loc := PlaceCSR(as, a)
		TraceCSRSpMV(h, a, loc)
		return h.Counters()
	}
	ci, cn := run(inter), run(non)
	if ci.Accesses != cn.Accesses {
		t.Fatalf("access counts differ: %d vs %d (same nnz expected)", ci.Accesses, cn.Accesses)
	}
	if ci.L2Misses >= cn.L2Misses {
		t.Errorf("interlaced L2 misses %d not < noninterlaced %d", ci.L2Misses, cn.L2Misses)
	}
	if ci.TLBMisses >= cn.TLBMisses {
		t.Errorf("interlaced TLB misses %d not < noninterlaced %d", ci.TLBMisses, cn.TLBMisses)
	}
}

func TestBlockingReducesIndexTraffic(t *testing.T) {
	m := buildTestMesh(t)
	g := sparse.Graph{NV: m.NumVertices(), XAdj: m.XAdj, Adj: m.Adj}
	b := 4
	scalar := sparse.ScalarPattern(g, b, sparse.Interlaced)
	block := sparse.BlockPattern(g, b)

	hs, hb := smallHierarchy(), smallHierarchy()
	asS, asB := NewAddressSpace(), NewAddressSpace()
	TraceCSRSpMV(hs, scalar, PlaceCSR(asS, scalar))
	TraceBCSRSpMV(hb, block, PlaceBCSR(asB, block, false))
	cs, cb := hs.Counters(), hb.Counters()
	// Blocking issues far fewer accesses (one index per block, contiguous
	// block values) and should not increase L2 misses.
	if cb.Accesses >= cs.Accesses {
		t.Errorf("block accesses %d not < scalar %d", cb.Accesses, cs.Accesses)
	}
	if cb.L2Misses > cs.L2Misses {
		t.Errorf("block L2 misses %d > scalar %d", cb.L2Misses, cs.L2Misses)
	}
}

func TestSinglePrecisionHalvesValueTraffic(t *testing.T) {
	m := buildTestMesh(t)
	g := sparse.Graph{NV: m.NumVertices(), XAdj: m.XAdj, Adj: m.Adj}
	block := sparse.BlockPattern(g, 4)
	run := func(single bool) Counters {
		h := smallHierarchy()
		as := NewAddressSpace()
		TraceBCSRSpMV(h, block, PlaceBCSR(as, block, single))
		return h.Counters()
	}
	cd, cs := run(false), run(true)
	if cs.L2Misses >= cd.L2Misses {
		t.Errorf("single-precision L2 misses %d not < double %d", cs.L2Misses, cd.L2Misses)
	}
}

func TestEdgeReorderingReducesFluxTLBMisses(t *testing.T) {
	m := buildTestMesh(t)
	colored, _ := mesh.ColorEdges(m.Edges, m.NumVertices())
	sorted := mesh.SortEdges(m.Edges)

	run := func(edges []mesh.Edge) Counters {
		h := smallHierarchy()
		as := NewAddressSpace()
		loc := PlaceFlux(as, m.NumVertices(), 4, sparse.Interlaced)
		TraceFlux(h, edges, loc)
		return h.Counters()
	}
	cc, cs := run(colored), run(sorted)
	if cs.TLBMisses*4 >= cc.TLBMisses {
		t.Errorf("sorted-edge TLB misses %d not <= 1/4 of colored %d", cs.TLBMisses, cc.TLBMisses)
	}
	if cs.L2Misses >= cc.L2Misses {
		t.Errorf("sorted-edge L2 misses %d not < colored %d", cs.L2Misses, cc.L2Misses)
	}
}

func TestAddressSpaceAlignmentAndDisjointness(t *testing.T) {
	as := NewAddressSpace()
	a := as.Alloc(100, 64)
	b := as.Alloc(10, 64)
	if a%64 != 0 || b%64 != 0 {
		t.Error("allocations not aligned")
	}
	if b < a+100 {
		t.Error("allocations overlap")
	}
	c := as.Alloc(8, 0) // default alignment
	if c%8 != 0 {
		t.Error("default alignment broken")
	}
}

func TestR10000Profiles(t *testing.T) {
	h := R10000()
	if h.L2.LineSize != 128 || h.TLB.Ways != 64 {
		t.Error("R10000 geometry unexpected")
	}
	s := ScaledR10000(16)
	if s.L2.Sets*s.L2.Ways*s.L2.LineSize >= h.L2.Sets*h.L2.Ways*h.L2.LineSize {
		t.Error("scaled hierarchy not smaller")
	}
	tiny := ScaledR10000(1 << 30)
	if tiny.L1.Sets < 1 || tiny.L2.Sets < 1 {
		t.Error("extreme scaling produced invalid caches")
	}
}

func BenchmarkTraceFluxSorted(b *testing.B) {
	m := buildTestMesh(b)
	sorted := mesh.SortEdges(m.Edges)
	for i := 0; i < b.N; i++ {
		h := smallHierarchy()
		as := NewAddressSpace()
		loc := PlaceFlux(as, m.NumVertices(), 4, sparse.Interlaced)
		TraceFlux(h, sorted, loc)
	}
}

func TestTraceILUSolveSinglePrecisionFewerMisses(t *testing.T) {
	m := buildTestMesh(t)
	g := sparse.Graph{NV: m.NumVertices(), XAdj: m.XAdj, Adj: m.Adj}
	a := sparse.BlockPattern(g, 4)
	a.FillDeterministic(7)
	f, err := ilu.Factor(a, ilu.Options{Level: 0})
	if err != nil {
		t.Fatal(err)
	}
	run := func(valBytes int) Counters {
		h := smallHierarchy()
		as := NewAddressSpace()
		loc := PlaceILU(as, f.NB, f.B, f.NNZBlocks(), valBytes)
		TraceILUSolve(h, f.Layout, f.B, loc)
		return h.Counters()
	}
	c8, c4 := run(8), run(4)
	if c4.L2Misses >= c8.L2Misses {
		t.Errorf("float32 factors L2 misses %d not < float64 %d", c4.L2Misses, c8.L2Misses)
	}
}

func TestPenaltiesSeconds(t *testing.T) {
	p := Penalties{CyclesPerAccess: 1, L1MissCycles: 10, L2MissCycles: 100, TLBMissCycles: 70, ClockHz: 100}
	c := Counters{Accesses: 100, L1Misses: 10, L2Misses: 1, TLBMisses: 2}
	// cycles = 100 + 100 + 100 + 140 = 440; at 100 Hz -> 4.4 s.
	if got := p.Seconds(c); got != 4.4 {
		t.Errorf("Seconds = %g, want 4.4", got)
	}
	r := R10000Penalties()
	if r.ClockHz != 250e6 || r.L2MissCycles <= r.L1MissCycles {
		t.Error("R10000 penalties implausible")
	}
}
