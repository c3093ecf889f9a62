package mesh

import (
	"cmp"
	"slices"
)

// Ordering is a vertex permutation. Order[new] = old gives the old index
// of the vertex placed at position new; Perm[old] = new is its inverse.
type Ordering struct {
	Order []int32 // new position -> old index
	Perm  []int32 // old index -> new position
}

// NewOrdering builds an Ordering (and its inverse) from order, where
// order[new] = old.
func NewOrdering(order []int32) Ordering {
	perm := make([]int32, len(order))
	for n, o := range order {
		perm[o] = int32(n)
	}
	return Ordering{Order: order, Perm: perm}
}

// Identity returns the identity ordering on n vertices.
func Identity(n int) Ordering {
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	return NewOrdering(order)
}

// RCM computes the Reverse Cuthill-McKee ordering of the mesh's vertex
// graph. RCM reduces the graph bandwidth, which the paper uses (together
// with edge sorting) to create spatial locality and cut cache and TLB
// misses. Disconnected components are each ordered from a
// pseudo-peripheral start vertex.
func RCM(m *Mesh) Ordering {
	n := m.NumVertices()
	order := make([]int32, 0, n)
	visited := make([]bool, n)
	queue := make([]int32, 0, n)
	for comp := 0; comp < n; comp++ {
		if visited[comp] {
			continue
		}
		start := pseudoPeripheral(m, int32(comp), visited)
		queue = queue[:0]
		queue = append(queue, start)
		visited[start] = true
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			order = append(order, v)
			// Append unvisited neighbors in increasing-degree order
			// (classic Cuthill-McKee tie-breaking).
			before := len(queue)
			for _, w := range m.Neighbors(int(v)) {
				if !visited[w] {
					visited[w] = true
					queue = append(queue, w)
				}
			}
			sortByDegree(m, queue[before:])
		}
	}
	// Reverse for RCM.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return NewOrdering(order)
}

func sortByDegree(m *Mesh, vs []int32) {
	slices.SortFunc(vs, func(v, w int32) int {
		if dv, dw := m.Degree(int(v)), m.Degree(int(w)); dv != dw {
			return cmp.Compare(dv, dw)
		}
		return cmp.Compare(v, w)
	})
}

// pseudoPeripheral finds a vertex of (locally) maximal eccentricity in the
// component containing start, restricted to unvisited vertices, using the
// standard alternating-BFS heuristic.
func pseudoPeripheral(m *Mesh, start int32, visited []bool) int32 {
	cur := start
	curDepth := -1
	level := make(map[int32]int)
	for iter := 0; iter < 8; iter++ {
		for k := range level {
			delete(level, k)
		}
		frontier := []int32{cur}
		level[cur] = 0
		depth := 0
		var last int32 = cur
		lastDeg := m.Degree(int(cur))
		for len(frontier) > 0 {
			next := frontier[:0:0]
			for _, v := range frontier {
				for _, w := range m.Neighbors(int(v)) {
					if visited[w] {
						continue
					}
					if _, ok := level[w]; !ok {
						level[w] = level[v] + 1
						next = append(next, w)
						if level[w] > depth || (level[w] == depth && m.Degree(int(w)) < lastDeg) {
							depth = level[w]
							last = w
							lastDeg = m.Degree(int(w))
						}
					}
				}
			}
			frontier = next
		}
		if depth <= curDepth {
			break
		}
		curDepth = depth
		cur = last
	}
	return cur
}

// Renumber returns a new mesh with vertices permuted by ord: vertex
// ord.Order[new] of m becomes vertex new of the result. Tetrahedra and the
// derived edge list/adjacency are rebuilt in the new numbering, so the
// result's Edges are again in sorted (A < B, lexicographic) order.
func (m *Mesh) Renumber(ord Ordering) *Mesh {
	n := m.NumVertices()
	out := &Mesh{
		Coords:   make([]Vec3, n),
		Boundary: make([]bool, n),
		BKind:    make([]BoundaryKind, n),
		BNormal:  make([]Vec3, n),
		Tets:     make([][4]int32, len(m.Tets)),
	}
	for newIdx, oldIdx := range ord.Order {
		out.Coords[newIdx] = m.Coords[oldIdx]
		out.Boundary[newIdx] = m.Boundary[oldIdx]
		if m.BKind != nil {
			out.BKind[newIdx] = m.BKind[oldIdx]
			out.BNormal[newIdx] = m.BNormal[oldIdx]
		}
	}
	for ti, t := range m.Tets {
		for c := 0; c < 4; c++ {
			out.Tets[ti][c] = ord.Perm[t[c]]
		}
	}
	out.buildConnectivity()
	return out
}
