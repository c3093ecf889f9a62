// Package cachesim provides a trace-driven memory-hierarchy simulator —
// set-associative LRU caches and a TLB — standing in for the R10000
// hardware counters the paper uses in Figure 3. Kernels are replayed as
// address traces against a Hierarchy, which counts hits and misses at
// each level.
package cachesim

import "fmt"

// Cache is a set-associative cache with LRU replacement. A TLB is modeled
// as a Cache whose "line size" is the page size (typically fully
// associative: Ways = entries, one set).
type Cache struct {
	Name     string
	LineSize int // bytes per line (or page)
	Sets     int
	Ways     int

	// tags[s] holds the resident line tags of set s in MRU-first order.
	tags [][]uint64

	Accesses uint64
	Misses   uint64
}

// NewCache builds a cache of the given total size in bytes. sizeBytes
// must be divisible by lineSize*ways.
func NewCache(name string, sizeBytes, lineSize, ways int) (*Cache, error) {
	if lineSize <= 0 || ways <= 0 || sizeBytes <= 0 {
		return nil, fmt.Errorf("cachesim: nonpositive cache geometry")
	}
	lines := sizeBytes / lineSize
	if lines*lineSize != sizeBytes {
		return nil, fmt.Errorf("cachesim: size %d not a multiple of line size %d", sizeBytes, lineSize)
	}
	sets := lines / ways
	if sets == 0 || sets*ways != lines {
		return nil, fmt.Errorf("cachesim: %d lines not divisible into %d ways", lines, ways)
	}
	c := &Cache{Name: name, LineSize: lineSize, Sets: sets, Ways: ways}
	c.tags = make([][]uint64, sets)
	for i := range c.tags {
		c.tags[i] = make([]uint64, 0, ways)
	}
	return c, nil
}

// MustCache is NewCache that panics on error, for static configurations.
func MustCache(name string, sizeBytes, lineSize, ways int) *Cache {
	c, err := NewCache(name, sizeBytes, lineSize, ways)
	if err != nil {
		// Must-style constructor: panicking on an invalid static configuration is its documented contract
		panic(err)
	}
	return c
}

// Access touches the line containing addr, returning true on a hit.
func (c *Cache) Access(addr uint64) bool {
	c.Accesses++
	line := addr / uint64(c.LineSize)
	set := line % uint64(c.Sets)
	tags := c.tags[set]
	for i, t := range tags {
		if t == line {
			// Move to MRU position.
			copy(tags[1:i+1], tags[:i])
			tags[0] = line
			return true
		}
	}
	c.Misses++
	if len(tags) < c.Ways {
		tags = append(tags, 0)
	}
	copy(tags[1:], tags)
	tags[0] = line
	c.tags[set] = tags
	return false
}

// Reset clears contents and counters.
func (c *Cache) Reset() {
	for i := range c.tags {
		c.tags[i] = c.tags[i][:0]
	}
	c.Accesses, c.Misses = 0, 0
}

// MissRate returns Misses/Accesses (zero when no accesses were made).
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// Hierarchy models the processor's data-memory path: an L1 cache, a
// unified L2 cache behind it, and a TLB consulted on every access.
type Hierarchy struct {
	L1  *Cache
	L2  *Cache
	TLB *Cache
}

// Counters is a snapshot of miss counts by level.
type Counters struct {
	Accesses  uint64
	L1Misses  uint64
	L2Misses  uint64
	TLBMisses uint64
}

// R10000 returns a hierarchy resembling the paper's 250 MHz MIPS R10000
// Origin 2000 node: 32 KB 2-way L1 with 32-byte lines, 4 MB 2-way L2 with
// 128-byte lines, 64-entry fully associative TLB over 16 KB pages.
func R10000() *Hierarchy {
	return &Hierarchy{
		L1:  MustCache("L1", 32<<10, 32, 2),
		L2:  MustCache("L2", 4<<20, 128, 2),
		TLB: MustCache("TLB", 64*16<<10, 16<<10, 64),
	}
}

// ScaledR10000 returns the R10000 hierarchy with capacities scaled by
// 1/scale (line and page sizes preserved). Experiments on meshes scaled
// down from the paper's sizes use a correspondingly scaled hierarchy so
// working-set-to-cache ratios match the original.
func ScaledR10000(scale int) *Hierarchy {
	if scale < 1 {
		scale = 1
	}
	l2 := 4 << 20 / scale
	if l2 < 4096 {
		l2 = 4096
	}
	l1 := 32 << 10 / scale
	if l1 < 1024 {
		l1 = 1024
	}
	tlbEntries := 64 / scale
	if tlbEntries < 4 {
		tlbEntries = 4
	}
	return &Hierarchy{
		L1:  MustCache("L1", l1, 32, 2),
		L2:  MustCache("L2", l2, 128, 2),
		TLB: MustCache("TLB", tlbEntries*16<<10, 16<<10, tlbEntries),
	}
}

// Access touches size bytes starting at addr: every cache line spanned is
// accessed in L1 (missing into L2), and every page spanned is accessed in
// the TLB.
func (h *Hierarchy) Access(addr uint64, size int) {
	if size <= 0 {
		return
	}
	first := addr / uint64(h.L1.LineSize)
	last := (addr + uint64(size) - 1) / uint64(h.L1.LineSize)
	for line := first; line <= last; line++ {
		a := line * uint64(h.L1.LineSize)
		if !h.L1.Access(a) {
			h.L2.Access(a)
		}
	}
	firstPg := addr / uint64(h.TLB.LineSize)
	lastPg := (addr + uint64(size) - 1) / uint64(h.TLB.LineSize)
	for pg := firstPg; pg <= lastPg; pg++ {
		h.TLB.Access(pg * uint64(h.TLB.LineSize))
	}
}

// Counters returns the current counter snapshot.
func (h *Hierarchy) Counters() Counters {
	return Counters{
		Accesses:  h.L1.Accesses,
		L1Misses:  h.L1.Misses,
		L2Misses:  h.L2.Misses,
		TLBMisses: h.TLB.Misses,
	}
}

// Reset clears all levels.
func (h *Hierarchy) Reset() {
	h.L1.Reset()
	h.L2.Reset()
	h.TLB.Reset()
}

// Penalties converts miss counters into modeled execution time: a base
// cost per access (issue + hit latency, amortized over superscalar
// issue) plus per-event miss penalties, at a given clock.
type Penalties struct {
	CyclesPerAccess float64
	L1MissCycles    float64
	L2MissCycles    float64
	TLBMissCycles   float64
	ClockHz         float64
}

// R10000Penalties returns penalties resembling the paper's 250 MHz MIPS
// R10000: ~10-cycle L2 hit after an L1 miss, ~100-cycle memory access
// after an L2 miss, ~70-cycle software TLB refill.
func R10000Penalties() Penalties {
	return Penalties{
		CyclesPerAccess: 1,
		L1MissCycles:    10,
		L2MissCycles:    100,
		TLBMissCycles:   70,
		ClockHz:         250e6,
	}
}

// Seconds models the execution time of a trace with counters c.
func (p Penalties) Seconds(c Counters) float64 {
	cycles := p.CyclesPerAccess*float64(c.Accesses) +
		p.L1MissCycles*float64(c.L1Misses) +
		p.L2MissCycles*float64(c.L2Misses) +
		p.TLBMissCycles*float64(c.TLBMisses)
	return cycles / p.ClockHz
}

// AddressSpace hands out non-overlapping base addresses for the arrays of
// a simulated kernel.
type AddressSpace struct {
	next uint64
}

// NewAddressSpace returns an allocator starting at a page-aligned,
// nonzero base.
func NewAddressSpace() *AddressSpace { return &AddressSpace{next: 1 << 20} }

// Alloc reserves n bytes aligned to align (a power of two) and returns
// the base address.
func (s *AddressSpace) Alloc(n int, align int) uint64 {
	if align <= 0 {
		align = 8
	}
	a := uint64(align)
	s.next = (s.next + a - 1) &^ (a - 1)
	base := s.next
	s.next += uint64(n)
	return base
}
