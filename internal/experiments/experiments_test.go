package experiments

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"petscfun3d/internal/cachesim"
)

// smokeVertices is the wing the shape tests solve: small enough that
// the package's tests run in seconds, also under -race.
const smokeVertices = 500

// smokeHierarchy is the simulated cache and TLB of Table 1 and Figure 3
// scaled to the smoke wing, as scaledHierarchy scales them to the
// study's sizes.
func smokeHierarchy() *cachesim.Hierarchy {
	return &cachesim.Hierarchy{
		L1:  cachesim.MustCache("L1", 4<<10, 32, 2),
		L2:  cachesim.MustCache("L2", 32<<10, 128, 2),
		TLB: cachesim.MustCache("TLB", 8*4<<10, 4<<10, 8),
	}
}

// sweeps splits a scaling result into its sweeps, one per machine and
// partitioner, in run order.
func sweeps(res *Table3Result) [][]Table3Row {
	var out [][]Table3Row
	for i, r := range res.Rows {
		if i == 0 || r.Machine != res.Rows[i-1].Machine || r.Partitioner != res.Rows[i-1].Partitioner {
			out = append(out, nil)
		}
		out[len(out)-1] = append(out[len(out)-1], r)
	}
	return out
}

// The shape tests and TestCSVWriters share one smoke run of each study
// they both read.
var (
	smokeTable1 = sync.OnceValues(func() (*Table1Result, error) {
		return Table1Study("incompressible", smokeVertices, 3, 1, 3, smokeHierarchy())
	})
	smokeFigure3 = sync.OnceValues(func() (*Figure3Result, error) { return Figure3Study(smokeVertices, smokeHierarchy()) })
	smokeFigure5 = sync.OnceValues(func() (*Figure5Result, error) {
		return Figure5Study(smokeVertices, 120, []float64{1, 10, 50})
	})
)

func TestParseSize(t *testing.T) {
	for _, s := range []string{"small", "medium", "large"} {
		sz, err := ParseSize(s)
		if err != nil || sz.String() != s {
			t.Errorf("ParseSize(%q) = %v, %v", s, sz, err)
		}
	}
	if _, err := ParseSize("huge"); err == nil {
		t.Error("unknown size accepted")
	}
}

func TestTable1ShapeIncompressible(t *testing.T) {
	res, err := smokeTable1()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("got %d rows, want 6", len(res.Rows))
	}
	if res.Rows[0].Ratio != 1 {
		t.Errorf("baseline ratio = %g", res.Rows[0].Ratio)
	}
	// The fully enhanced variant must beat the baseline.
	last := res.Rows[5]
	if !last.Interlacing || !last.Blocking || !last.Reordering {
		t.Fatal("row order wrong")
	}
	if last.Ratio <= 1 {
		t.Errorf("full enhancements ratio %.2f not > 1", last.Ratio)
	}
	if !strings.Contains(Text(res.Tables()...), "Table 1") {
		t.Error("render missing header")
	}
}

func TestTable1RejectsUnknownSystem(t *testing.T) {
	if _, err := Table1Study("plasma", smokeVertices, 3, 1, 3, smokeHierarchy()); err == nil {
		t.Error("unknown system accepted")
	}
}

func TestFigure3Shape(t *testing.T) {
	res, err := smokeFigure3()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	byLabel := map[string]Figure3Row{}
	for _, r := range res.Rows {
		byLabel[r.Label] = r
		if r.TLBMisses == 0 || r.L2Misses == 0 {
			t.Errorf("%s: zero miss counts", r.Label)
		}
	}
	// Edge reordering must slash TLB misses (the paper: two orders of
	// magnitude; we require a decisive factor).
	noer := byLabel["NOER/interlaced"]
	reord := byLabel["reordered/interlaced"]
	if reord.TLBMisses*3 >= noer.TLBMisses {
		t.Errorf("reordering TLB %d not well below NOER %d", reord.TLBMisses, noer.TLBMisses)
	}
	// Interlacing must cut L2 misses against noninterlaced.
	nonint := byLabel["reordered/noninterlaced"]
	if reord.L2Misses >= nonint.L2Misses {
		t.Errorf("interlaced L2 %d not below noninterlaced %d", reord.L2Misses, nonint.L2Misses)
	}
	// The fully enhanced variant has the fewest misses overall.
	best := byLabel["reordered/interlaced+blocked"]
	for _, r := range res.Rows {
		if r.Label == best.Label {
			continue
		}
		if best.L2Misses > r.L2Misses && best.TLBMisses > r.TLBMisses {
			t.Errorf("fully enhanced beaten by %s on both counters", r.Label)
		}
	}
	if !strings.Contains(Text(res.Tables()...), "Figure 3") {
		t.Error("render missing header")
	}
}

func TestCSVWriters(t *testing.T) {
	var buf bytes.Buffer
	t1, err := smokeTable1()
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&buf, t1.Tables()[0]); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 7 {
		t.Errorf("table1 csv has %d lines, want 7", lines)
	}
	f3, err := smokeFigure3()
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteCSV(&buf, f3.Tables()[0]); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "variant,tlb_misses,l2_misses") {
		t.Error("figure3 csv header wrong")
	}
	f5, err := smokeFigure5()
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteCSV(&buf, f5.Tables()[1]); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "cfl_") {
		t.Error("figure5 csv missing series columns")
	}
}
