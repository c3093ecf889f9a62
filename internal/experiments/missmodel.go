package experiments

import (
	"petscfun3d/internal/cachesim"
	"petscfun3d/internal/perfmodel"
)

// MissModelRow compares the paper's conflict-miss bound (equations (1)
// and (2)) against trace-driven simulation for one matrix bandwidth.
type MissModelRow struct {
	N         int     `col:"N"`
	Span      int     `col:"span β"` // matrix bandwidth β (or N for the noninterlaced read)
	Bound     float64 `col:"bound,%.0f"`
	Simulated uint64  `col:"simulated"`
}

// MissModelResult validates the analytical model: for banded matrices of
// growing bandwidth crossing the cache capacity, the bound of equation
// (2) must (a) be zero below capacity, (b) grow once β exceeds capacity,
// and (c) upper-bound (within its resolution) the simulated non-
// compulsory misses on the vector x.
type MissModelResult struct {
	CacheDoubleWords int `col:"cache doublewords"`
	LineDoubleWords  int `col:"line doublewords"`
	Rows             []MissModelRow
}

// Tables prints the model-vs-simulation comparison.
func (m *MissModelResult) Tables() []Table {
	return []Table{{Name: "missmodel",
		Title:  "Equations (1)/(2) — conflict-miss bound vs simulated x-vector misses, direct-mapped cache",
		Params: m, Rows: m.Rows}}
}

// MissModelStudy sweeps bandwidth β for an n-row banded scalar matrix
// against a direct-mapped cache of cacheBytes with 128-byte lines (the
// model's worst-case conflict assumption).
func MissModelStudy(n, cacheBytes int) (*MissModelResult, error) {
	lineBytes := 128
	res := &MissModelResult{
		CacheDoubleWords: cacheBytes / 8,
		LineDoubleWords:  lineBytes / 8,
	}
	// Bandwidths from a quarter of the cache to three times it.
	for _, quarters := range []int{1, 2, 4, 6, 8, 12} {
		span := res.CacheDoubleWords * quarters / 4
		if span >= n {
			continue
		}
		bound := perfmodel.ConflictMissBound(n, span, res.CacheDoubleWords, res.LineDoubleWords)
		sim := simulateBandedSpMVXMisses(n, span, cacheBytes, lineBytes)
		res.Rows = append(res.Rows, MissModelRow{N: n, Span: span, Bound: bound, Simulated: sim})
	}
	return res, nil
}

// simulateBandedSpMVXMisses traces only the x-vector accesses of an SpMV
// on a banded matrix (half-bandwidth span/2, a few diagonals sampled
// across the band) through a direct-mapped cache, returning misses
// beyond the compulsory ones.
func simulateBandedSpMVXMisses(n, span, cacheBytes, lineBytes int) uint64 {
	c := cachesim.MustCache("dm", cacheBytes, lineBytes, 1)
	as := cachesim.NewAddressSpace()
	xBase := as.Alloc(n*8, 64)
	half := span / 2
	// Sample 9 diagonals spread across the band (degree ~ unstructured
	// CFD row density); the exact count scales both bound inputs and
	// trace equally.
	offsets := []int{-half, -3 * half / 4, -half / 2, -half / 4, 0, half / 4, half / 2, 3 * half / 4, half}
	for i := 0; i < n; i++ {
		for _, off := range offsets {
			j := i + off
			if j < 0 || j >= n {
				continue
			}
			c.Access(xBase + uint64(j)*8)
		}
	}
	// Compulsory misses: one per distinct line of x.
	compulsory := uint64((n*8 + lineBytes - 1) / lineBytes)
	if c.Misses <= compulsory {
		return 0
	}
	return c.Misses - compulsory
}
