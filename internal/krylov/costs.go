package krylov

import "petscfun3d/internal/par"

// Cost formulas for the GMRES phase spans (enforced by the costconst
// analyzer). The orthogonalization span is charged with the sum of
// these over the kernels a step actually called, so no mechanism has a
// closed form of its own to drift from its code.

// dotsFlops and dotsBytes: one dots batch over n local scalars — a
// k-vector par.MDot pass plus extra (0 or 1) separate par.Dot.
func dotsFlops(k, extra, n int) int64 {
	return par.MDotFlops(k, n) + int64(extra)*par.MDotFlops(1, n)
}
func dotsBytes(k, extra, n int) int64 {
	return par.MDotBytes(k, n) + int64(extra)*par.MDotBytes(1, n)
}

// sumBytes: the k scalars an address space contributes to one Sum round.
func sumBytes(k int) int64 { return 8 * int64(k) }

// scaleFlops and scaleBytes: the basis normalization, one multiply per
// element, one vector read and one written.
func scaleFlops(n int) int64 { return int64(n) }
func scaleBytes(n int) int64 { return 16 * int64(n) }
