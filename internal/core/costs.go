package core

// Kernel cost estimates feeding the virtual-machine model. The formulas
// of the kernels live next to them (euler.EdgeFluxFlops,
// ilu.FactorFlopsFor, …) and are called from there, so the modeled
// accounting and the measured profiler (internal/prof) charge the same
// work with the same constants; only the model's own vector-sweep
// estimates live here.

// vecSweepBytes is the traffic of one pass over a local vector of n
// scalars (read + write); vecSweepFlops the multiply-add work of the
// same pass.
func vecSweepBytes(n int) int64 { return int64(16 * n) }
func vecSweepFlops(n int) int64 { return int64(2 * n) }

// krylovVecSweeps is the average number of local-vector passes per GMRES
// iteration (orthogonalization axpys/dots, basis scaling, solution
// update amortized over the restart cycle).
const krylovVecSweeps = 8
