// Package mesh generates and manipulates three-dimensional unstructured
// tetrahedral meshes of the kind used by the FUN3D Euler solver: wing-like
// volumes discretized into tetrahedra, with the vertex adjacency graph,
// edge list, and the vertex/edge orderings studied in the paper
// (Reverse Cuthill-McKee vertex ordering, sorted edge ordering, and the
// vector-machine edge coloring that the original FUN3D code used).
package mesh

import (
	"fmt"
	"slices"
)

// Vec3 is a point in three-dimensional space.
type Vec3 struct {
	X, Y, Z float64
}

// Edge is an undirected mesh edge connecting vertices A and B.
// Construction guarantees A < B.
type Edge struct {
	A, B int32
}

// Mesh is an unstructured tetrahedral mesh together with its derived
// connectivity: the unique edge list and the vertex adjacency graph in
// compressed (CSR-like) form.
type Mesh struct {
	// Coords holds the position of each vertex.
	Coords []Vec3
	// Tets holds the four vertex indices of each tetrahedron.
	Tets [][4]int32
	// Edges is the unique undirected edge list, each with A < B.
	Edges []Edge
	// XAdj and Adj store the vertex adjacency graph: the neighbors of
	// vertex v are Adj[XAdj[v]:XAdj[v+1]], sorted ascending.
	XAdj []int32
	Adj  []int32
	// Boundary marks vertices on the domain boundary.
	Boundary []bool
	// BKind classifies boundary vertices for the flow solver; interior
	// vertices are BNone.
	BKind []BoundaryKind
	// BNormal is the outward unit normal at boundary vertices (zero for
	// interior vertices).
	BNormal []Vec3
}

// BoundaryKind classifies a vertex for boundary-condition purposes.
type BoundaryKind uint8

const (
	// BNone marks interior vertices.
	BNone BoundaryKind = iota
	// BInflow marks vertices where the velocity (or full state) is
	// prescribed.
	BInflow
	// BOutflow marks vertices where the pressure is prescribed.
	BOutflow
	// BWall marks impermeable slip-wall vertices.
	BWall
)

// NumVertices returns the number of vertices in the mesh.
func (m *Mesh) NumVertices() int { return len(m.Coords) }

// NumEdges returns the number of unique undirected edges.
func (m *Mesh) NumEdges() int { return len(m.Edges) }

// NumTets returns the number of tetrahedra.
func (m *Mesh) NumTets() int { return len(m.Tets) }

// Degree returns the number of neighbors of vertex v.
func (m *Mesh) Degree(v int) int { return int(m.XAdj[v+1] - m.XAdj[v]) }

// Neighbors returns the (sorted) adjacency list of vertex v.
// The returned slice aliases the mesh's storage and must not be modified.
func (m *Mesh) Neighbors(v int) []int32 { return m.Adj[m.XAdj[v]:m.XAdj[v+1]] }

// MaxDegree returns the largest vertex degree in the mesh.
func (m *Mesh) MaxDegree() int {
	max := 0
	for v := 0; v < m.NumVertices(); v++ {
		if d := m.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// AvgDegree returns the mean vertex degree.
func (m *Mesh) AvgDegree() float64 {
	if m.NumVertices() == 0 {
		return 0
	}
	return float64(2*m.NumEdges()) / float64(m.NumVertices())
}

// Bandwidth returns the graph bandwidth max |u - v| over edges (u, v)
// in the current vertex numbering. The paper's cache-miss model (eq. 2)
// is parameterized by this quantity.
func (m *Mesh) Bandwidth() int {
	bw := 0
	for _, e := range m.Edges {
		if d := int(e.B - e.A); d > bw {
			bw = d
		}
	}
	return bw
}

// buildConnectivity derives Edges, XAdj, and Adj from Tets.
func (m *Mesh) buildConnectivity() {
	nv := len(m.Coords)
	// The six edges of every tetrahedron, bucketed by their smaller
	// endpoint (count, then fill); each bucket sorted and reduced to one
	// of each larger endpoint, counted before Edges is allocated so it
	// gets its final size. Buckets in vertex order ARE the (A, B) order.
	start := make([]int32, nv+1)
	eachPair := func(visit func(a, b int32)) {
		for _, t := range m.Tets {
			for i := 0; i < 4; i++ {
				for j := i + 1; j < 4; j++ {
					visit(min(t[i], t[j]), max(t[i], t[j]))
				}
			}
		}
	}
	eachPair(func(a, _ int32) { start[a+1]++ })
	for v := 0; v < nv; v++ {
		start[v+1] += start[v]
	}
	upper := make([]int32, start[nv])
	pos := make([]int32, nv)
	copy(pos, start)
	eachPair(func(a, b int32) {
		upper[pos[a]] = b
		pos[a]++
	})
	unique := 0
	for v := range pos {
		bucket := upper[start[v]:start[v+1]]
		slices.Sort(bucket)
		pos[v] = int32(len(slices.Compact(bucket))) // now: the bucket's unique count
		unique += int(pos[v])
	}
	m.Edges = make([]Edge, 0, unique)
	for v, n := range pos {
		for _, b := range upper[start[v] : start[v]+n] {
			m.Edges = append(m.Edges, Edge{int32(v), b})
		}
	}
	// Adjacency from edges.
	deg := make([]int32, nv)
	for _, e := range m.Edges {
		deg[e.A]++
		deg[e.B]++
	}
	m.XAdj = make([]int32, nv+1)
	for v := 0; v < nv; v++ {
		m.XAdj[v+1] = m.XAdj[v] + deg[v]
	}
	m.Adj = make([]int32, m.XAdj[nv])
	copy(pos, m.XAdj)
	// Edges are sorted by (A, B), so vertex v's segment receives its
	// smaller neighbours ascending (the edges (a, v), a ascending) and
	// then its larger ones ascending (the edges (v, b)): already sorted.
	// Validate checks it.
	for _, e := range m.Edges {
		m.Adj[pos[e.A]] = e.B
		pos[e.A]++
		m.Adj[pos[e.B]] = e.A
		pos[e.B]++
	}
}

// Validate checks structural invariants of the mesh and returns a
// descriptive error when one is violated. It is intended for tests and
// for guarding externally supplied meshes.
func (m *Mesh) Validate() error {
	nv := int32(len(m.Coords))
	for ti, t := range m.Tets {
		seen := map[int32]bool{}
		for _, v := range t {
			if v < 0 || v >= nv {
				return fmt.Errorf("mesh: tet %d references vertex %d outside [0,%d)", ti, v, nv)
			}
			if seen[v] {
				return fmt.Errorf("mesh: tet %d has repeated vertex %d", ti, v)
			}
			seen[v] = true
		}
	}
	for ei, e := range m.Edges {
		if e.A >= e.B {
			return fmt.Errorf("mesh: edge %d has A >= B (%d >= %d)", ei, e.A, e.B)
		}
		if e.B >= nv {
			return fmt.Errorf("mesh: edge %d references vertex %d outside mesh", ei, e.B)
		}
	}
	if len(m.XAdj) != int(nv)+1 {
		return fmt.Errorf("mesh: XAdj has length %d, want %d", len(m.XAdj), nv+1)
	}
	if int(m.XAdj[nv]) != len(m.Adj) {
		return fmt.Errorf("mesh: XAdj[last]=%d does not match len(Adj)=%d", m.XAdj[nv], len(m.Adj))
	}
	if len(m.Adj) != 2*len(m.Edges) {
		return fmt.Errorf("mesh: adjacency size %d is not twice edge count %d", len(m.Adj), len(m.Edges))
	}
	for v := int32(0); v < nv; v++ {
		for k := m.XAdj[v] + 1; k < m.XAdj[v+1]; k++ {
			if m.Adj[k-1] >= m.Adj[k] {
				return fmt.Errorf("mesh: neighbours of vertex %d are not strictly ascending", v)
			}
		}
	}
	return nil
}
