package mesh

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Mesh file I/O in a simple self-describing text format, so externally
// generated tetrahedral meshes (including real wing grids) can be fed to
// the solver and generated meshes can be archived:
//
//	fun3dmesh 1
//	vertices <nv>
//	<x> <y> <z> <bkind>     (nv lines; bkind: 0 none, 1 inflow, 2 outflow, 3 wall)
//	tets <nt>
//	<v0> <v1> <v2> <v3>     (nt lines)
//
// Connectivity (edges, adjacency) and boundary normals are rebuilt on
// read; boundary kinds are as stored.

// Write serializes the mesh.
func (m *Mesh) Write(w io.Writer) error {
	// bufio.Writer latches the first write error and every later write
	// is a no-op; Flush reports it, so intermediate results are
	// deliberately discarded.
	bw := bufio.NewWriter(w)
	_, _ = fmt.Fprintln(bw, "fun3dmesh 1")
	_, _ = fmt.Fprintf(bw, "vertices %d\n", m.NumVertices())
	for v := 0; v < m.NumVertices(); v++ {
		c := m.Coords[v]
		kind := BNone
		if m.BKind != nil {
			kind = m.BKind[v]
		}
		_, _ = fmt.Fprintf(bw, "%.17g %.17g %.17g %d\n", c.X, c.Y, c.Z, kind)
	}
	_, _ = fmt.Fprintf(bw, "tets %d\n", m.NumTets())
	for _, t := range m.Tets {
		_, _ = fmt.Fprintf(bw, "%d %d %d %d\n", t[0], t[1], t[2], t[3])
	}
	return bw.Flush()
}

// Read parses a mesh written by Write, rebuilding connectivity and
// estimating boundary normals from the boundary closure (see
// RebuildBoundaryNormals). The header counts are not trusted for
// allocation: storage grows with the lines actually read, so a count
// the input does not back fails on a missing line instead of
// allocating for it. Coordinates must be finite.
func Read(r io.Reader) (*Mesh, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	next := func() (string, error) {
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line != "" {
				return line, nil
			}
		}
		if err := sc.Err(); err != nil {
			return "", err
		}
		return "", io.ErrUnexpectedEOF
	}
	header, err := next()
	if err != nil {
		return nil, err
	}
	if header != "fun3dmesh 1" {
		return nil, fmt.Errorf("mesh: bad header %q", header)
	}
	line, err := next()
	if err != nil {
		return nil, err
	}
	var nv int
	if _, err := fmt.Sscanf(line, "vertices %d", &nv); err != nil || nv < 1 {
		return nil, fmt.Errorf("mesh: bad vertices line %q", line)
	}
	m := &Mesh{}
	for v := 0; v < nv; v++ {
		line, err := next()
		if err != nil {
			return nil, fmt.Errorf("mesh: vertex %d: %w", v, err)
		}
		f := strings.Fields(line)
		if len(f) != 4 {
			return nil, fmt.Errorf("mesh: vertex %d: want 4 fields, got %q", v, line)
		}
		var c Vec3
		if c.X, err = strconv.ParseFloat(f[0], 64); err != nil {
			return nil, fmt.Errorf("mesh: vertex %d: %w", v, err)
		}
		if c.Y, err = strconv.ParseFloat(f[1], 64); err != nil {
			return nil, fmt.Errorf("mesh: vertex %d: %w", v, err)
		}
		if c.Z, err = strconv.ParseFloat(f[2], 64); err != nil {
			return nil, fmt.Errorf("mesh: vertex %d: %w", v, err)
		}
		if !finite(c.X) || !finite(c.Y) || !finite(c.Z) {
			return nil, fmt.Errorf("mesh: vertex %d: non-finite coordinate in %q", v, line)
		}
		kind, err := strconv.Atoi(f[3])
		if err != nil || kind < 0 || kind > int(BWall) {
			return nil, fmt.Errorf("mesh: vertex %d: bad boundary kind %q", v, f[3])
		}
		m.Coords = append(m.Coords, c)
		m.BKind = append(m.BKind, BoundaryKind(kind))
		m.Boundary = append(m.Boundary, kind != 0)
	}
	line, err = next()
	if err != nil {
		return nil, err
	}
	var nt int
	if _, err := fmt.Sscanf(line, "tets %d", &nt); err != nil || nt < 1 {
		return nil, fmt.Errorf("mesh: bad tets line %q", line)
	}
	for ti := 0; ti < nt; ti++ {
		line, err := next()
		if err != nil {
			return nil, fmt.Errorf("mesh: tet %d: %w", ti, err)
		}
		f := strings.Fields(line)
		if len(f) != 4 {
			return nil, fmt.Errorf("mesh: tet %d: want 4 fields, got %q", ti, line)
		}
		var t [4]int32
		for c := 0; c < 4; c++ {
			x, err := strconv.Atoi(f[c])
			if err != nil || x < 0 || x >= nv {
				return nil, fmt.Errorf("mesh: tet %d: bad vertex %q", ti, f[c])
			}
			t[c] = int32(x)
		}
		m.Tets = append(m.Tets, t)
	}
	m.buildConnectivity()
	m.RebuildBoundaryNormals()
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// finite reports whether x is neither NaN nor infinite.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// RebuildBoundaryNormals estimates the outward unit normal of every
// boundary vertex from the mesh's boundary faces: a face belongs to the
// boundary when its three vertices are all boundary-flagged and it is
// shared by exactly one tetrahedron. Each such face's outward area is
// accumulated to its vertices and normalized.
func (m *Mesh) RebuildBoundaryNormals() {
	if m.BNormal == nil {
		m.BNormal = make([]Vec3, m.NumVertices())
	}
	type face [3]int32
	canon := func(a, b, c int32) face {
		if a > b {
			a, b = b, a
		}
		if b > c {
			b, c = c, b
		}
		if a > b {
			a, b = b, a
		}
		return face{a, b, c}
	}
	count := map[face]int{}
	for _, t := range m.Tets {
		idx := [4][3]int{{1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2}}
		for _, f := range idx {
			count[canon(t[f[0]], t[f[1]], t[f[2]])]++
		}
	}
	acc := make([]Vec3, m.NumVertices())
	for _, t := range m.Tets {
		idx := [4][3]int{{1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2}}
		for fi, f := range idx {
			a, b, c := t[f[0]], t[f[1]], t[f[2]]
			if count[canon(a, b, c)] != 1 {
				continue
			}
			pa, pb, pc := m.Coords[a], m.Coords[b], m.Coords[c]
			nx := (pb.Y-pa.Y)*(pc.Z-pa.Z) - (pb.Z-pa.Z)*(pc.Y-pa.Y)
			ny := (pb.Z-pa.Z)*(pc.X-pa.X) - (pb.X-pa.X)*(pc.Z-pa.Z)
			nz := (pb.X-pa.X)*(pc.Y-pa.Y) - (pb.Y-pa.Y)*(pc.X-pa.X)
			// Orient outward: away from the tet's fourth (opposite)
			// vertex.
			opp := m.Coords[t[fi]]
			dx, dy, dz := pa.X-opp.X, pa.Y-opp.Y, pa.Z-opp.Z
			if nx*dx+ny*dy+nz*dz < 0 {
				nx, ny, nz = -nx, -ny, -nz
			}
			for _, v := range [3]int32{a, b, c} {
				acc[v].X += nx
				acc[v].Y += ny
				acc[v].Z += nz
			}
		}
	}
	for v := range acc {
		l := acc[v].X*acc[v].X + acc[v].Y*acc[v].Y + acc[v].Z*acc[v].Z
		if l > 0 && m.Boundary != nil && m.Boundary[v] {
			inv := 1 / math.Sqrt(l)
			m.BNormal[v] = Vec3{X: acc[v].X * inv, Y: acc[v].Y * inv, Z: acc[v].Z * inv}
		}
	}
}
