// Package perfmodel implements the paper's analytical performance
// models: the conflict-miss bounds for sparse matrix-vector product under
// interlaced and noninterlaced layouts (equations (1) and (2)), machine
// profiles for the platforms of the paper with a roofline compute time,
// and the parallel-efficiency decomposition η_overall = η_alg · η_impl
// used in Table 3.
package perfmodel

import "fmt"

// ConflictMissBound evaluates the paper's equation (1)/(2): for a sparse
// matrix-vector product whose working set per row spans `span` doublewords
// (span = N for the noninterlaced layout, span = β (the matrix bandwidth)
// for the interlaced layout), with a cache of capacity c doublewords and
// lines of w doublewords, the number of conflict misses over N rows is
// bounded by
//
//	N * ceil((span - c) / w)   when span >= c, else 0.
func ConflictMissBound(n, span, c, w int) float64 {
	if w <= 0 {
		// Documented precondition: the cache line size must be positive
		panic("perfmodel: nonpositive cache line size")
	}
	if span < c {
		return 0
	}
	return float64(n) * ceilDiv(span-c, w)
}

func ceilDiv(a, b int) float64 {
	if a <= 0 {
		return 0
	}
	return float64((a + b - 1) / b)
}

// Profile describes a machine node for the virtual-machine timing model.
// Numbers are order-of-magnitude faithful to the published platforms; the
// reproduction targets the *shape* of the scaling curves, not absolute
// times.
type Profile struct {
	Name          string
	PeakFlops     float64 // per processor, flop/s
	StreamBW      float64 // sustainable memory bandwidth per processor, bytes/s
	NodeStreamBW  float64 // aggregate bandwidth of one node (shared by its processors)
	ProcsPerNode  int
	NetLatency    float64 // point-to-point message latency, seconds
	NetBW         float64 // point-to-point bandwidth per node, bytes/s
	ReduceLatency float64 // per-tree-level latency of a reduction, seconds
	// FluxFlopRate is the sustained flop/s of the instruction-scheduling-
	// limited flux kernel (not memory bound; a fraction of peak).
	FluxFlopRate float64
}

// The paper's platforms.
var (
	// ASCIRed: Intel ASCI Red, 333 MHz Pentium Pro, two processors per
	// node sharing one memory bus.
	ASCIRed = Profile{
		Name: "ASCI Red", PeakFlops: 333e6,
		StreamBW: 140e6, NodeStreamBW: 200e6, ProcsPerNode: 2,
		NetLatency: 18e-6, NetBW: 310e6, ReduceLatency: 12e-6,
		FluxFlopRate: 90e6,
	}
	// CrayT3E: 600 MHz Alpha 21164 (EV5), one processor per node, fast
	// E-register network.
	CrayT3E = Profile{
		Name: "Cray T3E", PeakFlops: 1200e6,
		StreamBW: 380e6, NodeStreamBW: 380e6, ProcsPerNode: 1,
		NetLatency: 10e-6, NetBW: 340e6, ReduceLatency: 8e-6,
		FluxFlopRate: 160e6,
	}
	// BluePacific: IBM ASCI Blue Pacific, 332 MHz PowerPC 604e, four
	// processors per node.
	BluePacific = Profile{
		Name: "Blue Pacific", PeakFlops: 664e6,
		StreamBW: 150e6, NodeStreamBW: 420e6, ProcsPerNode: 4,
		NetLatency: 30e-6, NetBW: 150e6, ReduceLatency: 20e-6,
		FluxFlopRate: 110e6,
	}
	// Origin2000: SGI Origin 2000, 250 MHz MIPS R10000 — the platform of
	// Tables 1 and 2 and Figure 3.
	Origin2000 = Profile{
		Name: "Origin 2000", PeakFlops: 500e6,
		StreamBW: 300e6, NodeStreamBW: 300e6, ProcsPerNode: 1,
		NetLatency: 5e-6, NetBW: 600e6, ReduceLatency: 5e-6,
		FluxFlopRate: 140e6,
	}
)

// Profiles returns the built-in platform profiles.
func Profiles() []Profile { return []Profile{ASCIRed, CrayT3E, BluePacific, Origin2000} }

// ProfileByName looks a built-in profile up by name.
func ProfileByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("perfmodel: unknown profile %q", name)
}

// ComputeTime models the execution time of a kernel performing `flops`
// floating-point operations while moving `bytes` to and from memory on
// one processor: the maximum of the compute-bound and bandwidth-bound
// times (a two-parameter roofline).
func (p Profile) ComputeTime(flops, bytes int64, rate float64) float64 {
	if rate <= 0 {
		rate = p.PeakFlops
	}
	tc := float64(flops) / rate
	tm := float64(bytes) / p.StreamBW
	if tc > tm {
		return tc
	}
	return tm
}

// ReduceTime models a global reduction of one scalar across n ranks
// (binary-tree: ceil(log2 n) levels each costing ReduceLatency plus a
// small wire time).
func (p Profile) ReduceTime(ranks int) float64 {
	if ranks <= 1 {
		return 0
	}
	levels := 0
	for n := ranks - 1; n > 0; n >>= 1 {
		levels++
	}
	return float64(levels) * (p.ReduceLatency + 64/p.NetBW)
}

// Efficiency is one row of the paper's Table 3 efficiency decomposition.
type Efficiency struct {
	Procs   int
	Speedup float64 // t_base * 1 / t_p, relative to the base row
	Overall float64 // speedup / (p / p_base)
	Alg     float64 // its_base / its_p : degradation from iteration growth
	Impl    float64 // overall / alg   : all other nonscalable factors
}

// Decompose computes the efficiency decomposition relative to the first
// entry: procs[0] is the base processor count. its[i] is the total linear
// iteration count at procs[i]; times[i] the execution time.
func Decompose(procs []int, its []int, times []float64) ([]Efficiency, error) {
	if len(procs) == 0 || len(procs) != len(its) || len(procs) != len(times) {
		return nil, fmt.Errorf("perfmodel: mismatched decomposition inputs")
	}
	base := 0
	out := make([]Efficiency, len(procs))
	for i := range procs {
		if times[i] <= 0 || its[i] <= 0 || procs[i] <= 0 {
			return nil, fmt.Errorf("perfmodel: nonpositive input at %d", i)
		}
		sp := times[base] / times[i]
		overall := sp / (float64(procs[i]) / float64(procs[base]))
		alg := float64(its[base]) / float64(its[i])
		out[i] = Efficiency{
			Procs:   procs[i],
			Speedup: sp,
			Overall: overall,
			Alg:     alg,
			Impl:    overall / alg,
		}
	}
	return out, nil
}
