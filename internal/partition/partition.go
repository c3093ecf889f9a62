// Package partition implements k-way graph partitioning for
// domain-decomposed solvers, with the two contrasting strategies of the
// paper's Figure 4: KWay (greedy BFS region growing with cut-reducing
// refinement — connected subdomains with mild imbalance, in the spirit of
// k-MeTiS) and PWay (the same followed by an exact-balance pass that may
// fragment subdomains — near-perfect balance in the spirit of p-MeTiS).
// The paper observes that the better-balanced p-MeTiS partitions lose at
// scale because disconnected subdomains degrade block-iterative
// convergence; here that effect emerges from the real solver.
package partition

import (
	"fmt"
	"slices"

	"petscfun3d/internal/sparse"
)

// Partition assigns each vertex of a graph to one of NParts parts.
type Partition struct {
	NParts int
	Part   []int32 // vertex -> part index
}

// Sizes returns the number of vertices in each part. Unassigned vertices
// (negative part, only possible mid-construction) are not counted.
func (p *Partition) Sizes() []int {
	s := make([]int, p.NParts)
	for _, q := range p.Part {
		if q >= 0 {
			s[q]++
		}
	}
	return s
}

// Imbalance returns max part size over mean part size (1.0 = perfect).
func (p *Partition) Imbalance() float64 {
	sizes := p.Sizes()
	max := 0
	for _, s := range sizes {
		if s > max {
			max = s
		}
	}
	mean := float64(len(p.Part)) / float64(p.NParts)
	if mean == 0 {
		return 1
	}
	return float64(max) / mean
}

// EdgeCut returns the number of graph edges whose endpoints lie in
// different parts.
func (p *Partition) EdgeCut(g sparse.Graph) int {
	cut := 0
	for v := 0; v < g.NV; v++ {
		for _, w := range g.Adj[g.XAdj[v]:g.XAdj[v+1]] {
			if int32(v) < w && p.Part[v] != p.Part[w] {
				cut++
			}
		}
	}
	return cut
}

// Components returns, for each part, the number of connected components
// of the subgraph induced by that part. The paper attributes p-MeTiS's
// poorer convergence to parts with more than one component.
func (p *Partition) Components(g sparse.Graph) []int {
	comp := make([]int, p.NParts)
	seen := make([]bool, g.NV)
	stack := make([]int32, 0, 256)
	for v := 0; v < g.NV; v++ {
		if seen[v] {
			continue
		}
		part := p.Part[v]
		comp[part]++
		seen[v] = true
		stack = append(stack[:0], int32(v))
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range g.Adj[g.XAdj[u]:g.XAdj[u+1]] {
				if !seen[w] && p.Part[w] == part {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
	}
	return comp
}

// Validate checks the structural sanity of the partition over g.
func (p *Partition) Validate(g sparse.Graph) error {
	if len(p.Part) != g.NV {
		return fmt.Errorf("partition: %d assignments for %d vertices", len(p.Part), g.NV)
	}
	for v, q := range p.Part {
		if q < 0 || int(q) >= p.NParts {
			return fmt.Errorf("partition: vertex %d assigned to invalid part %d", v, q)
		}
	}
	for q, s := range p.Sizes() {
		if s == 0 && g.NV >= p.NParts {
			return fmt.Errorf("partition: part %d empty", q)
		}
	}
	return nil
}

// KWay partitions g into nparts using greedy BFS region growing followed
// by a cut-reducing boundary refinement that keeps imbalance under ~3%.
// Parts are connected by construction (each grows as a single BFS
// region) except when leftover enclaves must be absorbed.
func KWay(g sparse.Graph, nparts int) (*Partition, error) {
	if nparts < 1 || nparts > g.NV {
		return nil, fmt.Errorf("partition: nparts %d outside [1, %d]", nparts, g.NV)
	}
	p := &Partition{NParts: nparts, Part: make([]int32, g.NV)}
	for i := range p.Part {
		p.Part[i] = -1
	}
	assignedCount := 0
	queue := make([]int32, 0, g.NV)
	for part := 0; part < nparts; part++ {
		remainingParts := nparts - part
		target := (g.NV - assignedCount + remainingParts - 1) / remainingParts
		seed := pickSeed(g, p.Part)
		if seed < 0 {
			break
		}
		queue = append(queue[:0], seed)
		p.Part[seed] = int32(part)
		grown := 1
		for head := 0; head < len(queue) && grown < target; head++ {
			v := queue[head]
			for _, w := range g.Adj[g.XAdj[v]:g.XAdj[v+1]] {
				if p.Part[w] < 0 {
					p.Part[w] = int32(part)
					queue = append(queue, w)
					grown++
					if grown >= target {
						break
					}
				}
			}
		}
		assignedCount += grown
	}
	// Absorb any unassigned enclaves into an adjacent part (the smallest).
	absorbUnassigned(g, p)
	rebalance(g, p, 1.06)
	refineCut(g, p, 1.06, 2*g.NV)
	return p, p.Validate(g)
}

// rebalance drives every part's size into [mean/tol, mean*tol] with
// local moves of boundary vertices between adjacent parts. BFS growth
// can strand tiny seeds or leave the last-grown parts overweight;
// cascaded boundary moves repair both without fragmenting parts.
func rebalance(g sparse.Graph, p *Partition, tol float64) {
	sizes := p.Sizes()
	mean := float64(g.NV) / float64(p.NParts)
	hi := int(mean * tol)
	lo := int(mean / tol)
	if hi < 1 {
		hi = 1
	}
	// Link counts and touched parts of the vertex under consideration
	// (touchedParts). Score ties fall to the lowest part id, so the
	// partition is a pure function of the graph.
	links := make([]int, p.NParts)
	var near []int32
	for iter := 0; iter < 8*g.NV; iter++ {
		// The most overweight and most starved parts this round.
		over, under := int32(-1), int32(-1)
		for q, s := range sizes {
			if s > hi && (over < 0 || s > sizes[over]) {
				over = int32(q)
			}
			if s < lo && (under < 0 || s < sizes[under]) {
				under = int32(q)
			}
		}
		if over < 0 && under < 0 {
			return
		}
		moved := false
		if over >= 0 {
			// Shed one boundary vertex of `over` to its smallest
			// adjacent part (most-linked vertex there, to keep parts
			// compact).
			var bestV, bestQ int32 = -1, -1
			bestScore := -1 << 30
			for v := 0; v < g.NV; v++ {
				if p.Part[v] != over {
					continue
				}
				near, _ = touchedParts(g, p.Part, v, links, near)
				for _, q := range near {
					l := links[q]
					links[q] = 0
					if sizes[q] >= sizes[over]-1 {
						continue
					}
					score := l*1000 - sizes[q]
					if score > bestScore || (score == bestScore && bestV == int32(v) && q < bestQ) {
						bestScore = score
						bestV, bestQ = int32(v), q
					}
				}
			}
			if bestV >= 0 {
				sizes[over]--
				sizes[bestQ]++
				p.Part[bestV] = bestQ
				moved = true
			}
		}
		if under >= 0 {
			// Grow the starved part by one vertex from its largest
			// adjacent part.
			var bestV int32 = -1
			bestScore := -1 << 30
			for v := 0; v < g.NV; v++ {
				q := p.Part[v]
				if q == under || sizes[q] <= sizes[under]+1 {
					continue
				}
				linksIn := 0
				for _, w := range g.Adj[g.XAdj[v]:g.XAdj[v+1]] {
					if p.Part[w] == under {
						linksIn++
					}
				}
				if linksIn == 0 {
					continue
				}
				score := linksIn*1000 + sizes[q]
				if score > bestScore {
					bestScore = score
					bestV = int32(v)
				}
			}
			if bestV >= 0 {
				sizes[p.Part[bestV]]--
				sizes[under]++
				p.Part[bestV] = under
				moved = true
			} else if !moved && sizes[under] <= 1 {
				// A starved part with no graph contact anywhere useful:
				// teleport its seed next to the largest part and keep
				// balancing there (rare; keeps no part permanently
				// starved).
				largest := int32(0)
				for q := range sizes {
					if sizes[q] > sizes[largest] {
						largest = int32(q)
					}
				}
				for v := 0; v < g.NV; v++ {
					if p.Part[v] == largest {
						sizes[largest]--
						sizes[under]++
						p.Part[v] = under
						moved = true
						break
					}
				}
			}
		}
		if !moved {
			return
		}
	}
}

// PWay partitions g into nparts with near-perfect vertex balance (sizes
// differ by at most one), at the cost of potentially disconnected parts:
// a KWay partition is driven to exact balance by moving vertices out of
// overfull parts, boundary-first but interior vertices when necessary.
func PWay(g sparse.Graph, nparts int) (*Partition, error) {
	p, err := KWay(g, nparts)
	if err != nil {
		return nil, err
	}
	exactBalance(g, p)
	// Light refinement that preserves exact balance: only swap-neutral
	// moves are allowed, so skip cut refinement entirely (the paper's
	// p-MeTiS likewise privileges balance over cut/connectivity).
	return p, p.Validate(g)
}

// pickSeed selects an unassigned vertex with the fewest unassigned
// neighbors (a boundary/corner vertex), which keeps grown regions
// compact.
func pickSeed(g sparse.Graph, part []int32) int32 {
	best := int32(-1)
	bestFree := 1 << 30
	for v := 0; v < g.NV; v++ {
		if part[v] >= 0 {
			continue
		}
		free := 0
		for _, w := range g.Adj[g.XAdj[v]:g.XAdj[v+1]] {
			if part[w] < 0 {
				free++
			}
		}
		if free < bestFree {
			bestFree = free
			best = int32(v)
			if free == 0 {
				break
			}
		}
	}
	return best
}

func absorbUnassigned(g sparse.Graph, p *Partition) {
	sizes := p.Sizes()
	for changed := true; changed; {
		changed = false
		for v := 0; v < g.NV; v++ {
			if p.Part[v] >= 0 {
				continue
			}
			bestPart := int32(-1)
			for _, w := range g.Adj[g.XAdj[v]:g.XAdj[v+1]] {
				if q := p.Part[w]; q >= 0 && (bestPart < 0 || sizes[q] < sizes[bestPart]) {
					bestPart = q
				}
			}
			if bestPart >= 0 {
				p.Part[v] = bestPart
				sizes[bestPart]++
				changed = true
			}
		}
	}
	// A totally isolated vertex (no assigned neighbor ever): put in part 0.
	for v := range p.Part {
		if p.Part[v] < 0 {
			p.Part[v] = 0
		}
	}
}

// touchedParts counts v's links into every part other than its own in
// the dense per-part array links — all zero on entry; the caller zeroes
// the entries it reads — and returns those parts in first-seen order
// (reusing near's storage) with the number of links into v's own part.
func touchedParts(g sparse.Graph, part []int32, v int, links []int, near []int32) ([]int32, int) {
	near = near[:0]
	home, homeLinks := part[v], 0
	for _, w := range g.Adj[g.XAdj[v]:g.XAdj[v+1]] {
		q := part[w]
		if q == home {
			homeLinks++
			continue
		}
		if links[q] == 0 {
			near = append(near, q)
		}
		links[q]++
	}
	return near, homeLinks
}

// refineCut greedily moves boundary vertices to the neighboring part
// where they have the most neighbors, when the move reduces the edge cut
// and keeps imbalance under maxImbalance. maxMoves bounds the work.
func refineCut(g sparse.Graph, p *Partition, maxImbalance float64, maxMoves int) {
	sizes := p.Sizes()
	mean := float64(g.NV) / float64(p.NParts)
	cap := int(mean * maxImbalance)
	if cap < 1 {
		cap = 1
	}
	// As in rebalance: gain ties fall to the lowest part id.
	links := make([]int, p.NParts)
	var near []int32
	moves := 0
	for pass := 0; pass < 4 && moves < maxMoves; pass++ {
		improved := false
		for v := 0; v < g.NV && moves < maxMoves; v++ {
			home := p.Part[v]
			var homeLinks int
			near, homeLinks = touchedParts(g, p.Part, v, links, near)
			var bestPart int32 = -1
			bestGain := 0
			for _, q := range near {
				gain := links[q] - homeLinks
				links[q] = 0
				if sizes[q] >= cap || sizes[home] <= 1 {
					continue
				}
				if gain > bestGain || (gain == bestGain && bestPart >= 0 && q < bestPart) {
					bestGain = gain
					bestPart = q
				}
			}
			if bestPart >= 0 {
				sizes[home]--
				sizes[bestPart]++
				p.Part[v] = bestPart
				moves++
				improved = true
			}
		}
		if !improved {
			break
		}
	}
}

// exactBalance moves vertices from overfull to underfull parts until all
// sizes are within one of each other. Boundary vertices adjacent to the
// destination are preferred; when none exist, arbitrary vertices of the
// overfull part are moved, which is what fragments parts.
func exactBalance(g sparse.Graph, p *Partition) {
	sizes := p.Sizes()
	type partSize struct {
		part int32
		size int
	}
	for iter := 0; iter < g.NV; iter++ {
		over := partSize{-1, -1}
		under := partSize{-1, g.NV + 1}
		for q, s := range sizes {
			if s > over.size {
				over = partSize{int32(q), s}
			}
			if s < under.size {
				under = partSize{int32(q), s}
			}
		}
		if over.size-under.size <= 1 {
			break
		}
		// Prefer a vertex of `over` adjacent to `under`.
		moved := int32(-1)
		for v := 0; v < g.NV; v++ {
			if p.Part[v] != over.part {
				continue
			}
			for _, w := range g.Adj[g.XAdj[v]:g.XAdj[v+1]] {
				if p.Part[w] == under.part {
					moved = int32(v)
					break
				}
			}
			if moved >= 0 {
				break
			}
		}
		if moved < 0 {
			// No boundary contact: move the vertex of `over` with the
			// fewest same-part neighbors (least connectivity damage —
			// but still potentially an interior island).
			bestLinks := 1 << 30
			for v := 0; v < g.NV; v++ {
				if p.Part[v] != over.part {
					continue
				}
				links := 0
				for _, w := range g.Adj[g.XAdj[v]:g.XAdj[v+1]] {
					if p.Part[w] == over.part {
						links++
					}
				}
				if links < bestLinks {
					bestLinks = links
					moved = int32(v)
				}
			}
		}
		if moved < 0 {
			break
		}
		sizes[over.part]--
		sizes[under.part]++
		p.Part[moved] = under.part
	}
}

// Halo describes the communication pattern of one part: the ghost
// vertices it reads from neighbors and the owned vertices it sends.
type Halo struct {
	// Ghosts[q] lists this part's ghost vertices owned by part q
	// (global vertex ids, sorted).
	Ghosts map[int32][]int32
	// Sends[q] lists this part's owned vertices needed by part q
	// (global vertex ids, sorted).
	Sends map[int32][]int32
}

// NumGhosts returns the total number of ghost vertices.
func (h *Halo) NumGhosts() int {
	n := 0
	for _, g := range h.Ghosts {
		n += len(g)
	}
	return n
}

// BuildHalos computes every part's halo for partition p over graph g.
func BuildHalos(g sparse.Graph, p *Partition) []Halo {
	halos := make([]Halo, p.NParts)
	for i := range halos {
		halos[i].Ghosts = make(map[int32][]int32)
		halos[i].Sends = make(map[int32][]int32)
	}
	type pair struct{ from, to int32 }
	seen := make(map[pair]map[int32]bool)
	for v := 0; v < g.NV; v++ {
		pv := p.Part[v]
		for _, w := range g.Adj[g.XAdj[v]:g.XAdj[v+1]] {
			pw := p.Part[w]
			if pv == pw {
				continue
			}
			// Part pv needs ghost w owned by pw.
			k := pair{pw, pv}
			if seen[k] == nil {
				seen[k] = make(map[int32]bool)
			}
			if !seen[k][w] {
				seen[k][w] = true
				halos[pv].Ghosts[pw] = append(halos[pv].Ghosts[pw], w)
				halos[pw].Sends[pv] = append(halos[pw].Sends[pv], w)
			}
		}
	}
	for i := range halos {
		for q := range halos[i].Ghosts {
			slices.Sort(halos[i].Ghosts[q])
		}
		for q := range halos[i].Sends {
			slices.Sort(halos[i].Sends[q])
		}
	}
	return halos
}
