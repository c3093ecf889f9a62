package par

// Cost formulas for the fused multi-vector kernels (each group-of-4
// kernel's one loop does these marginals per element). The fusion is
// the point of the formulas: k separate Dots stream 16kn bytes where
// MDot streams 8(k+1)n — the shared vector x once — and k separate
// Axpys stream 24kn where MAxpy streams (8k+16)n — one read-modify-
// write of y.

// MDotFlops and MDotBytes: k inner products against one shared vector
// of n scalars in a single pass — 2k flops per element; one load of the
// shared vector plus one load per basis vector.
func MDotFlops(k, n int) int64 { return 2 * int64(k) * int64(n) }
func MDotBytes(k, n int) int64 { return 8 * int64(k+1) * int64(n) }

// MAxpyFlops and MAxpyBytes: k fused axpys into one vector of n
// scalars — 2k flops per element; one load per applied vector plus one
// read-modify-write (16 bytes) of the target.
func MAxpyFlops(k, n int) int64 { return 2 * int64(k) * int64(n) }
func MAxpyBytes(k, n int) int64 { return (8*int64(k) + 16) * int64(n) }
