package mesh

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
)

// failingWriter refuses every write.
type failingWriter struct{}

var errDiskFull = errors.New("disk full")

func (failingWriter) Write([]byte) (int, error) { return 0, errDiskFull }

// TestWriteReportsWriterError pins that Write returns the writer's
// error. The mesh fits the bufio buffer, so the only write that reaches
// the writer is the final Flush: a Write that drops Flush's error
// reports success on a file that was never written.
func TestWriteReportsWriterError(t *testing.T) {
	if err := testWing(t, 6, 5, 4).Write(failingWriter{}); !errors.Is(err, errDiskFull) {
		t.Fatalf("Write to a failing writer returned %v, want %v", err, errDiskFull)
	}
}

func TestMeshRoundTrip(t *testing.T) {
	orig := testWing(t, 6, 5, 4)
	var buf bytes.Buffer
	if err := orig.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices() != orig.NumVertices() || got.NumTets() != orig.NumTets() {
		t.Fatalf("sizes changed: %d/%d vs %d/%d",
			got.NumVertices(), got.NumTets(), orig.NumVertices(), orig.NumTets())
	}
	if got.NumEdges() != orig.NumEdges() {
		t.Errorf("edges changed: %d vs %d", got.NumEdges(), orig.NumEdges())
	}
	for v := 0; v < orig.NumVertices(); v++ {
		if got.Coords[v] != orig.Coords[v] {
			t.Fatalf("coords changed at %d", v)
		}
		if got.BKind[v] != orig.BKind[v] {
			t.Fatalf("boundary kind changed at %d", v)
		}
		if got.Boundary[v] != orig.Boundary[v] {
			t.Fatalf("boundary flag changed at %d", v)
		}
	}
	// Rebuilt boundary normals roughly agree with the generator's (both
	// outward unit vectors; face-weighted vs lattice-assigned, so allow
	// generous angular tolerance).
	for v := 0; v < orig.NumVertices(); v++ {
		if !orig.Boundary[v] {
			continue
		}
		n1, n2 := orig.BNormal[v], got.BNormal[v]
		dot := n1.X*n2.X + n1.Y*n2.Y + n1.Z*n2.Z
		if dot <= 0 {
			t.Fatalf("vertex %d: rebuilt normal points away from original (dot %g)", v, dot)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"wrongheader 1\n",
		"fun3dmesh 1\nvertices -3\n",
		"fun3dmesh 1\nvertices 1\n0 0 0 9\ntets 1\n0 0 0 0\n",
		"fun3dmesh 1\nvertices 2\n0 0 0 0\n1 0 0 0\ntets 1\n0 1 2 3\n",
		"fun3dmesh 1\nvertices 1\n0 0 zebra 0\ntets 1\n0 0 0 0\n",
		hugeCountMesh,
		nanVertexMesh,
		strings.Replace(nanVertexMesh, "NaN", "-Inf", 1),
		repeatedVertexMesh,
	}
	for i, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestRebuildBoundaryNormalsUnitLength(t *testing.T) {
	m := testWing(t, 5, 5, 4)
	m.RebuildBoundaryNormals()
	for v := 0; v < m.NumVertices(); v++ {
		n := m.BNormal[v]
		l := math.Sqrt(n.X*n.X + n.Y*n.Y + n.Z*n.Z)
		if m.Boundary[v] {
			if math.Abs(l-1) > 1e-12 {
				t.Fatalf("boundary vertex %d normal length %g", v, l)
			}
		}
	}
}

// Inputs at the mesh-file boundary: a header count no line backs (it
// once sized four arrays before any vertex was read, and panicked when
// out of int range), a non-finite coordinate, and a degenerate tet.
const (
	hugeCountMesh      = "fun3dmesh 1\nvertices 9000000000000000000\n"
	nanVertexMesh      = "fun3dmesh 1\nvertices 4\n0 0 0 0\n1 0 0 0\n0 1 0 0\n0 0 NaN 0\ntets 1\n0 1 2 3\n"
	repeatedVertexMesh = "fun3dmesh 1\nvertices 4\n0 0 0 0\n1 0 0 0\n0 1 0 0\n0 0 1 0\ntets 1\n0 1 1 3\n"
)

// FuzzRead: Read never panics, and a mesh it accepts passes Validate and
// survives Write → Read with the same coordinates, boundary kinds and
// tets.
func FuzzRead(f *testing.F) {
	m, err := GenerateWingN(40)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{buf.String(), hugeCountMesh, nanVertexMesh, repeatedVertexMesh} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		m, err := Read(strings.NewReader(in))
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("Read accepted a mesh Validate rejects: %v", err)
		}
		var out bytes.Buffer
		if err := m.Write(&out); err != nil {
			t.Fatal(err)
		}
		back, err := Read(&out)
		if err != nil {
			t.Fatalf("an accepted mesh does not read back: %v", err)
		}
		if !slices.Equal(back.Coords, m.Coords) || !slices.Equal(back.BKind, m.BKind) || !slices.Equal(back.Tets, m.Tets) {
			t.Fatal("Write → Read changed the coordinates, boundary kinds or tets")
		}
	})
}
