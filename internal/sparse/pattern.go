package sparse

import "fmt"

// Pattern is a retained copy of a block matrix's sparsity structure.
// The preconditioner layers (ilu, schwarz, dist) analyse a Jacobian's
// pattern once per solve and refresh only values afterwards; each keeps
// the Pattern it was built for and checks every refresh against it, so
// a matrix of another shape is an error, never a silently wrong factor.
type Pattern struct {
	nb, b  int
	rowPtr []int32
	colIdx []int32
}

// PatternOf copies a's structure.
func PatternOf(a *BCSR) Pattern {
	return Pattern{
		nb: a.NB, b: a.B,
		rowPtr: append([]int32(nil), a.RowPtr...),
		colIdx: append([]int32(nil), a.ColIdx...),
	}
}

// Check reports how a's structure differs from p, or nil when NB, B,
// RowPtr and ColIdx are all equal — an integer compare over the stored
// blocks, no value is read.
func (p *Pattern) Check(a *BCSR) error {
	if a.NB != p.nb || a.B != p.b {
		return fmt.Errorf("sparse: pattern mismatch: matrix is %d block rows of size %d, pattern was built for %d of size %d", a.NB, a.B, p.nb, p.b)
	}
	if len(a.RowPtr) != len(p.rowPtr) || len(a.ColIdx) != len(p.colIdx) {
		return fmt.Errorf("sparse: pattern mismatch: matrix stores %d blocks, pattern was built for %d", len(a.ColIdx), len(p.colIdx))
	}
	for i, v := range p.rowPtr {
		if a.RowPtr[i] != v {
			return fmt.Errorf("sparse: pattern mismatch: row pointer %d is %d, pattern was built for %d", i, a.RowPtr[i], v)
		}
	}
	for k, j := range p.colIdx {
		if a.ColIdx[k] != j {
			return fmt.Errorf("sparse: pattern mismatch: block %d sits in column %d, pattern was built for column %d", k, a.ColIdx[k], j)
		}
	}
	return nil
}

// GatherBlocks copies block src[t] of from into block t of dst, for
// every t — the numeric half of a sub-matrix extraction whose index
// list was computed once from the pattern. bb is the scalars per block.
func GatherBlocks(dst, from []float64, src []int32, bb int) {
	for t, k := range src {
		copy(dst[t*bb:t*bb+bb], from[int(k)*bb:int(k)*bb+bb]) //lint:bce-ok gather through the precomputed block index list; the source offset is data-dependent
	}
}

// GatherBlocksBytes is the memory traffic of gathering nblocks blocks
// of size b: each source block read and destination block written once,
// plus the 4-byte source index.
func GatherBlocksBytes(nblocks, b int) int64 {
	return int64(nblocks) * (16*int64(b)*int64(b) + 4)
}
