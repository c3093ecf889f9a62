package cachesim

import (
	"petscfun3d/internal/ilu"
	"petscfun3d/internal/mesh"
	"petscfun3d/internal/sparse"
)

// This file replays the memory access patterns of the application's two
// dominant kernels — the edge-based flux loop and the sparse
// matrix-vector product — against a simulated hierarchy. The replays
// mirror the load/store sequences of the real kernels in
// internal/sparse and internal/euler, so the simulated counters respond
// to layout and ordering choices exactly as the R10000's hardware
// counters do in the paper's Figure 3.

const (
	sizeF64 = 8
	sizeF32 = 4
	sizeI32 = 4
)

// CSRLayout bundles the simulated base addresses of a CSR SpMV's arrays.
type CSRLayout struct {
	RowPtr, ColIdx, Val, X, Y uint64
}

// PlaceCSR allocates address ranges for the arrays of y = A x.
func PlaceCSR(as *AddressSpace, a *sparse.CSR) CSRLayout {
	return CSRLayout{
		RowPtr: as.Alloc((a.N+1)*sizeI32, 64),
		ColIdx: as.Alloc(a.NNZ()*sizeI32, 64),
		Val:    as.Alloc(a.NNZ()*sizeF64, 64),
		X:      as.Alloc(a.N*sizeF64, 64),
		Y:      as.Alloc(a.N*sizeF64, 64),
	}
}

// TraceCSRSpMV replays y = A x for a scalar CSR matrix.
func TraceCSRSpMV(h *Hierarchy, a *sparse.CSR, loc CSRLayout) {
	for i := 0; i < a.N; i++ {
		h.Access(loc.RowPtr+uint64(i)*sizeI32, 2*sizeI32)
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			h.Access(loc.ColIdx+uint64(k)*sizeI32, sizeI32)
			h.Access(loc.Val+uint64(k)*sizeF64, sizeF64)
			h.Access(loc.X+uint64(a.ColIdx[k])*sizeF64, sizeF64)
		}
		h.Access(loc.Y+uint64(i)*sizeF64, sizeF64)
	}
}

// BCSRLayout bundles the simulated base addresses of a BCSR SpMV.
type BCSRLayout struct {
	RowPtr, ColIdx, Val, X, Y uint64
	valSize                   int
}

// PlaceBCSR allocates address ranges for a block SpMV. When single is
// true the value array is float32 (the paper's reduced-precision
// preconditioner storage).
func PlaceBCSR(as *AddressSpace, a *sparse.BCSR, single bool) BCSRLayout {
	vs := sizeF64
	if single {
		vs = sizeF32
	}
	return BCSRLayout{
		RowPtr:  as.Alloc((a.NB+1)*sizeI32, 64),
		ColIdx:  as.Alloc(a.NNZBlocks()*sizeI32, 64),
		Val:     as.Alloc(a.NNZ()*vs, 64),
		X:       as.Alloc(a.N()*sizeF64, 64),
		Y:       as.Alloc(a.N()*sizeF64, 64),
		valSize: vs,
	}
}

// TraceBCSRSpMV replays y = A x for a block CSR matrix: one index load
// per block, a contiguous B×B value read, and a contiguous B-wide x read
// (held in registers across the block's rows).
func TraceBCSRSpMV(h *Hierarchy, a *sparse.BCSR, loc BCSRLayout) {
	b := a.B
	bb := b * b
	for i := 0; i < a.NB; i++ {
		h.Access(loc.RowPtr+uint64(i)*sizeI32, 2*sizeI32)
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			h.Access(loc.ColIdx+uint64(k)*sizeI32, sizeI32)
			h.Access(loc.Val+uint64(int(k)*bb*loc.valSize), bb*loc.valSize)
			h.Access(loc.X+uint64(int(a.ColIdx[k])*b)*sizeF64, b*sizeF64)
		}
		h.Access(loc.Y+uint64(i*b)*sizeF64, b*sizeF64)
	}
}

// ILULayout bundles the simulated base addresses of a block triangular
// solve over an ILU factorization's solve-order storage.
type ILULayout struct {
	LPtr, UPtr, Col, Val, B, X uint64
	valSize                    int
}

// PlaceILU allocates address ranges for a triangular solve over a factor
// with nb block rows of size b and nnzBlocks stored blocks; valBytes is
// 4 for single-precision factor storage, 8 for double.
func PlaceILU(as *AddressSpace, nb, b, nnzBlocks, valBytes int) ILULayout {
	return ILULayout{
		LPtr:    as.Alloc((nb+1)*sizeI32, 64),
		UPtr:    as.Alloc((nb+1)*sizeI32, 64),
		Col:     as.Alloc(nnzBlocks*sizeI32, 64),
		Val:     as.Alloc(nnzBlocks*b*b*valBytes, 64),
		B:       as.Alloc(nb*b*sizeF64, 64),
		X:       as.Alloc(nb*b*sizeF64, 64),
		valSize: valBytes,
	}
}

// TraceILUSolve replays the block triangular solve in the order the
// kernels of internal/ilu run it: the forward sweep over the L stream
// (rows ascending), then the backward sweep over the U stream (rows
// descending, each row's inverted diagonal block after its U blocks).
// Every stored block is read exactly once — the memory-bandwidth-bound
// kernel of the paper's Table 2.
func TraceILUSolve(h *Hierarchy, lay ilu.Layout, b int, loc ILULayout) {
	bb := b * b
	nb := len(lay.LPtr) - 1
	block := func(k int32) {
		h.Access(loc.Col+uint64(k)*sizeI32, sizeI32)
		h.Access(loc.Val+uint64(int(k)*bb*loc.valSize), bb*loc.valSize)
		h.Access(loc.X+uint64(int(lay.Col[k])*b)*sizeF64, b*sizeF64)
	}
	for i := 0; i < nb; i++ {
		h.Access(loc.LPtr+uint64(i)*sizeI32, 2*sizeI32)
		h.Access(loc.B+uint64(i*b)*sizeF64, b*sizeF64)
		for k := lay.LPtr[i]; k < lay.LPtr[i+1]; k++ {
			block(k)
		}
		h.Access(loc.X+uint64(i*b)*sizeF64, b*sizeF64)
	}
	for i := nb - 1; i >= 0; i-- {
		h.Access(loc.UPtr+uint64(i)*sizeI32, 2*sizeI32)
		h.Access(loc.X+uint64(i*b)*sizeF64, b*sizeF64)
		kd := lay.UPtr[i] - 1
		for k := lay.UPtr[i+1]; k < kd; k++ {
			block(k)
		}
		h.Access(loc.Val+uint64(int(kd)*bb*loc.valSize), bb*loc.valSize)
		h.Access(loc.X+uint64(i*b)*sizeF64, b*sizeF64)
	}
}

// FluxLayout bundles the simulated base addresses of the edge-based flux
// kernel's arrays.
type FluxLayout struct {
	Coords, State, Residual uint64
	nv, b                   int
	layout                  sparse.Layout
}

// PlaceFlux allocates address ranges for a flux evaluation over nv
// vertices with b unknowns per vertex under the given state-vector
// layout.
func PlaceFlux(as *AddressSpace, nv, b int, l sparse.Layout) FluxLayout {
	return FluxLayout{
		Coords:   as.Alloc(nv*3*sizeF64, 64),
		State:    as.Alloc(nv*b*sizeF64, 64),
		Residual: as.Alloc(nv*b*sizeF64, 64),
		nv:       nv, b: b, layout: l,
	}
}

// vertexData touches the b state (or residual) values of vertex v: one
// contiguous read when interlaced, b strided reads when noninterlaced.
func (loc FluxLayout) vertexData(h *Hierarchy, base uint64, v int) {
	if loc.layout == sparse.Interlaced {
		h.Access(base+uint64(v*loc.b)*sizeF64, loc.b*sizeF64)
		return
	}
	for c := 0; c < loc.b; c++ {
		h.Access(base+uint64(c*loc.nv+v)*sizeF64, sizeF64)
	}
}

// TraceFlux replays one pass of the edge-based flux loop over edges (in
// the order given): per edge, read both endpoints' coordinates and state
// and read-modify-write both endpoints' residuals.
func TraceFlux(h *Hierarchy, edges []mesh.Edge, loc FluxLayout) {
	for _, e := range edges {
		for _, v := range [2]int32{e.A, e.B} {
			h.Access(loc.Coords+uint64(v)*3*sizeF64, 3*sizeF64)
			loc.vertexData(h, loc.State, int(v))
		}
		for _, v := range [2]int32{e.A, e.B} {
			// Read-modify-write: two touches of the same locations.
			loc.vertexData(h, loc.Residual, int(v))
			loc.vertexData(h, loc.Residual, int(v))
		}
	}
}
