// Package experiments regenerates every table and figure of the paper's
// evaluation on the repo's substrates. Each experiment returns a
// structured result whose Tables print through one printer (Text) and
// one CSV writer (WriteCSV); Studies is the registry cmd/benchtables
// runs, and EXPERIMENTS.md records paper-vs-measured comparisons.
//
// Experiments run at three sizes. Small is the quick scale make bench
// runs every study at (the tests call each study's parameterised entry
// point at a smaller smoke scale); Medium is the recorded scale of
// EXPERIMENTS.md; Large approaches the paper's mesh sizes where single-host time
// permits. Mesh sizes are scaled down from the paper's 22,677 / 357,900
// / 2.8M vertices with the rank counts scaled alongside so that
// vertices-per-rank ratios (which drive the convergence and
// communication behavior) stay comparable.
package experiments

import (
	"fmt"
	"math"

	"petscfun3d/internal/faults"
	"petscfun3d/internal/mesh"
	"petscfun3d/internal/sparse"
)

// Size selects the experiment scale.
type Size int

const (
	// Small is the quick scale (seconds).
	Small Size = iota
	// Medium is the recorded scale of EXPERIMENTS.md (minutes).
	Medium
	// Large approaches the paper's scale (tens of minutes).
	Large
)

var sizeNames = []string{"small", "medium", "large"}

// ParseSize converts a -size flag value.
func ParseSize(s string) (Size, error) {
	for i, name := range sizeNames {
		if s == name {
			return Size(i), nil
		}
	}
	return Small, fmt.Errorf("experiments: unknown size %q (want small|medium|large)", s)
}

// String implements fmt.Stringer.
func (s Size) String() string {
	if s < 0 || int(s) >= len(sizeNames) {
		return fmt.Sprintf("Size(%d)", int(s))
	}
	return sizeNames[s]
}

// pick returns the value for the size.
func pick[T any](s Size, small, medium, large T) T {
	switch s {
	case Medium:
		return medium
	case Large:
		return large
	default:
		return small
	}
}

// Study is one entry of the registry: the name benchtables -experiment
// takes and the run that yields its tables at a size.
type Study struct {
	Name string
	Run  func(Size) ([]Table, error)
}

// Studies is every study, in the order benchtables -experiment all
// prints them, with each size's parameters.
var Studies = []Study{
	{"table1", func(s Size) ([]Table, error) {
		// The paper's profile: the flux phase is ~60% of runtime, the
		// solve kernels the rest. One representative step is therefore
		// several flux sweeps plus a couple of SpMV+triangular-solve pairs.
		var tabs []Table
		for _, system := range []string{"incompressible", "compressible"} {
			t, err := tables(Table1Study(system, pick(s, 2000, 22677, 90000), pick(s, 3, 8, 8),
				pick(s, 1, 2, 2), pick(s, 2, 7, 7), scaledHierarchy(s)))
			if err != nil {
				return nil, err
			}
			tabs = append(tabs, t...)
		}
		return tabs, nil
	}},
	{"figure3", func(s Size) ([]Table, error) {
		return tables(Figure3Study(pick(s, 2500, 22677, 22677), scaledHierarchy(s)))
	}},
	{"missmodel", func(s Size) ([]Table, error) {
		return tables(MissModelStudy(pick(s, 16384, 65536, 131072), pick(s, 16<<10, 64<<10, 128<<10)))
	}},
	// The measured Table 2 on the benchmark's two factor shapes — the
	// 22k b = 4 ILU(0) and the 10k b = 5 ILU(1) wing matrices — and the
	// modeled one beside it.
	{"table2measured", func(s Size) ([]Table, error) {
		measured, err := tables(Table2MeasuredStudy(pick(s,
			[]Table2Matrix{{2000, 4, 0}, {2000, 5, 1}},
			[]Table2Matrix{{22677, 4, 0}, {10000, 5, 1}},
			[]Table2Matrix{{22677, 4, 0}, {10000, 5, 1}}), pick(s, 7, 11, 11), pick(s, 5, 10, 10), pick(s, 16, 128, 128)))
		if err != nil {
			return nil, err
		}
		modeled, err := tables(Table2Study(pick(s, 3000, 30000, 89000),
			pick(s, []int{4, 8}, []int{16, 32, 64, 120}, []int{16, 32, 64, 120}), pick(s, 40, 60, 60)))
		return append(measured, modeled...), err
	}},
	{"table3", func(s Size) ([]Table, error) {
		return tables(Table3Study(pick(s, 4000, 45000, 180000), pick(s, 40, 60, 60),
			pick(s, []int{4, 8, 16}, []int{32, 64, 128, 192, 256}, []int{128, 256, 512, 768, 1024})))
	}},
	{"table3measured", func(s Size) ([]Table, error) {
		return tables(Table3MeasuredStudy(pick(s, 1500, 45000, 180000), []int{2, 4, 8}))
	}},
	// The measured distributed GMRES at 4 ranks under the mixed fault
	// profile across a small seed grid.
	{"chaos", func(s Size) ([]Table, error) {
		return tables(ChaosSweepStudy(pick(s, 1500, 45000, 180000), 4, faults.ProfileMixed, []int64{1, 2, 3, 4}))
	}},
	{"figure2", func(s Size) ([]Table, error) {
		return tables(Figure2Study(pick(s, 4000, 45000, 180000), pick(s, 40, 60, 60),
			pick(s, []int{4, 8, 16}, []int{32, 64, 128, 256}, []int{128, 256, 512, 1024})))
	}},
	{"figure4", func(s Size) ([]Table, error) {
		return tables(Figure4Study(pick(s, 4000, 45000, 180000), pick(s, 40, 60, 60),
			pick(s, []int{4, 8, 16, 32}, []int{32, 64, 128, 256}, []int{128, 256, 512, 1024})))
	}},
	{"figure5", func(s Size) ([]Table, error) {
		return tables(Figure5Study(pick(s, 2000, 22677, 22677), pick(s, 120, 200, 200),
			pick(s, []float64{1, 10, 50}, []float64{1, 5, 10, 25, 50, 100}, []float64{1, 5, 10, 25, 50, 100})))
	}},
	{"table4", func(s Size) ([]Table, error) {
		return tables(Table4Study(pick(s, 3000, 30000, 89000), pick(s, 40, 60, 60),
			pick(s, []int{4, 8}, []int{16, 32, 64}, []int{16, 32, 64})))
	}},
	{"table5", func(s Size) ([]Table, error) {
		return tables(Table5Study(pick(s, 4000, 45000, 180000), pick(s, 20, 100, 100),
			pick(s, []int{8, 32}, []int{64, 256, 512}, []int{256, 2560, 3072})))
	}},
	{"threads", func(s Size) ([]Table, error) {
		return tables(ThreadsStudy(pick(s, 2000, 22677, 90000), pick(s, 10, 40, 40), pick(s, 3, 7, 7), []int{1, 2, 4, 8}))
	}},
	{"ablation", func(s Size) ([]Table, error) {
		return tables(AblationStudy(pick(s, 2500, 22677, 22677)))
	}},
}

// tables is a study's result as its tables.
func tables[R interface{ Tables() []Table }](r R, err error) ([]Table, error) {
	if err != nil {
		return nil, err
	}
	return r.Tables(), nil
}

// wing is the deterministic system of the matrix-level studies.
type wing struct {
	m   *mesh.Mesh
	g   sparse.Graph
	a   *sparse.BCSR
	rhs []float64
}

// wingSystem builds the RCM-ordered wing mesh of about nv vertices, its
// b×b block pattern filled from seed, and the right-hand side
// sin(0.19 i).
func wingSystem(nv, b int, seed uint64) (*wing, error) {
	m, err := mesh.GenerateWingN(nv)
	if err != nil {
		return nil, err
	}
	m = m.Renumber(mesh.RCM(m))
	w := &wing{m: m, g: sparse.Graph{NV: m.NumVertices(), XAdj: m.XAdj, Adj: m.Adj}}
	w.a = sparse.BlockPattern(w.g, b)
	w.a.FillDeterministic(seed)
	w.rhs = make([]float64, w.a.N())
	for i := range w.rhs {
		w.rhs[i] = math.Sin(float64(i) * 0.19)
	}
	return w, nil
}
