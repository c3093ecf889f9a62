package experiments

import (
	"petscfun3d/internal/mesh"
	"petscfun3d/internal/perfmodel"
	"petscfun3d/internal/sparse"
)

// SpMVBoundRow compares the reference-[10] achievable bounds for one
// format/precision on one machine.
type SpMVBoundRow struct {
	Machine      string  `col:"machine"`
	Format       string  `col:"format"`
	BWBoundMF    float64 `col:"BW bound,%.0f,Mflop/s"`    // Mflop/s permitted by memory bandwidth
	InstrBoundMF float64 `col:"instr bound,%.0f,Mflop/s"` // Mflop/s permitted by instruction issue
	MemoryBound  bool    `col:"memory bound"`
}

// SpMVBoundResult reproduces the companion paper's analysis the text
// leans on: sparse matrix-vector product is memory-bandwidth limited on
// every platform, and structural blocking / reduced precision raise the
// bound. (These are the analytical underpinnings of Tables 1 and 2.)
type SpMVBoundResult struct {
	Vertices int `col:"vertices"`
	Rows     []SpMVBoundRow
}

// Tables prints the bounds table.
func (r *SpMVBoundResult) Tables() []Table {
	return []Table{{Name: "spmvbound", Title: "SpMV achievable bounds (ref. [10] analysis), b=4 Jacobian",
		Params: r, Rows: r.Rows}}
}

// SpMVBoundsStudy evaluates the bounds for the Jacobian of the
// incompressible system on the wing of about nv vertices across the era
// machine profiles.
func SpMVBoundsStudy(nv int) (*SpMVBoundResult, error) {
	m, err := mesh.GenerateWingN(nv)
	if err != nil {
		return nil, err
	}
	g := sparse.Graph{NV: m.NumVertices(), XAdj: m.XAdj, Adj: m.Adj}
	blk := sparse.BlockPattern(g, 4)
	nnzb := blk.NNZBlocks()
	shapes := []struct {
		name  string
		shape perfmodel.SpMVShape
	}{
		{"CSR f64", perfmodel.CSRShape(blk.N(), blk.NNZ())},
		{"BCSR4 f64", perfmodel.BCSRShape(blk.NB, nnzb, 4)},
		{"BCSR4 f32", perfmodel.SpMVShape{N: blk.N(), NNZ: blk.NNZ(), NNZBlocks: nnzb, ValBytes: 4}},
	}
	res := &SpMVBoundResult{Vertices: m.NumVertices()}
	for _, prof := range perfmodel.Profiles() {
		for _, s := range shapes {
			_, memBound := prof.SpMVBound(s.shape)
			res.Rows = append(res.Rows, SpMVBoundRow{
				Machine:      prof.Name,
				Format:       s.name,
				BWBoundMF:    prof.SpMVBandwidthBound(s.shape) / 1e6,
				InstrBoundMF: prof.SpMVInstructionBound(s.shape) / 1e6,
				MemoryBound:  memBound,
			})
		}
	}
	return res, nil
}
