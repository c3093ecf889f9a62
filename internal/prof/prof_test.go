package prof

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
	"time"
)

func TestDisabledProfilerIsInert(t *testing.T) {
	p := New()
	if p.Enabled() {
		t.Fatal("fresh profiler enabled")
	}
	sp := p.Begin(PhaseFlux)
	sp.End(100, 200)
	if rep := p.Report(0); len(rep.Phases) != 0 || rep.TotalSeconds != 0 {
		t.Fatalf("disabled profiler recorded %+v", rep)
	}
	// A nil profiler must also be safe (dist matrices without one).
	var np *Profiler
	np.Begin(PhaseScatter).End(1, 2)
}

func TestNestingSelfAndCumulative(t *testing.T) {
	p := New()
	p.Enable()
	outer := p.Begin(PhaseKrylov)
	inner := p.Begin(PhaseTriSolve)
	time.Sleep(2 * time.Millisecond)
	inner.End(10, 20)
	inner2 := p.Begin(PhaseTriSolve)
	time.Sleep(time.Millisecond)
	inner2.End(30, 40)
	outer.End(0, 0)
	p.Disable()

	rep := p.Report(0)
	stats := map[string]PhaseStat{}
	for _, st := range rep.Phases {
		if st.Seconds < 0 || st.CumulativeSeconds < 0 {
			t.Fatalf("negative time in %+v", st)
		}
		if st.Seconds > st.CumulativeSeconds {
			t.Fatalf("self %g exceeds cumulative %g for %s", st.Seconds, st.CumulativeSeconds, st.Phase)
		}
		stats[st.Phase] = st
	}
	tri, ok := stats["tri_solve"]
	if !ok || tri.Calls != 2 || tri.Flops != 40 || tri.Bytes != 60 {
		t.Fatalf("tri_solve stats wrong: %+v", tri)
	}
	kry := stats["krylov"]
	// The child's cumulative time is bounded by the parent's cumulative
	// time, and the parent's self time excludes it.
	if tri.CumulativeSeconds > kry.CumulativeSeconds {
		t.Fatalf("child cumulative %g exceeds parent cumulative %g", tri.CumulativeSeconds, kry.CumulativeSeconds)
	}
	if got := kry.Seconds + tri.Seconds; !almostEq(got, kry.CumulativeSeconds) {
		t.Fatalf("self times %g don't sum to root cumulative %g", got, kry.CumulativeSeconds)
	}
	// The invariant the reports rely on: self seconds across all phases
	// sum exactly to the tracked total.
	var sum float64
	for _, st := range rep.Phases {
		sum += st.Seconds
	}
	if !almostEq(sum, rep.TotalSeconds) {
		t.Fatalf("phase self sum %g != total %g", sum, rep.TotalSeconds)
	}
}

// almostEq compares durations accumulated through the same integer-nanosecond
// arithmetic: they must agree to float rounding.
func almostEq(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-12
}

func TestResetAndReuse(t *testing.T) {
	p := New()
	p.Enable()
	p.Begin(PhaseFlux).End(5, 5)
	p.Reset()
	if rep := p.Report(0); len(rep.Phases) != 0 {
		t.Fatalf("reset kept phases: %+v", rep.Phases)
	}
	p.Begin(PhaseFlux).End(7, 7)
	rep := p.Report(0)
	if len(rep.Phases) != 1 || rep.Phases[0].Flops != 7 {
		t.Fatalf("post-reset recording wrong: %+v", rep.Phases)
	}
}

func TestMergeCombinesRanks(t *testing.T) {
	a, b := New(), New()
	a.Enable()
	b.Enable()
	a.Begin(PhaseScatter).End(0, 100)
	b.Begin(PhaseScatter).End(0, 50)
	b.Begin(PhaseReduce).End(10, 0)
	a.Merge(b)
	rep := a.Report(0)
	got := map[string]PhaseStat{}
	for _, st := range rep.Phases {
		got[st.Phase] = st
	}
	if st := got["scatter"]; st.Calls != 2 || st.Bytes != 150 {
		t.Fatalf("merged scatter wrong: %+v", st)
	}
	if st := got["reduce"]; st.Calls != 1 || st.Flops != 10 {
		t.Fatalf("merged reduce wrong: %+v", st)
	}
	// Self-merge is a no-op, not a doubling.
	before := a.Report(0)
	a.Merge(a)
	after := a.Report(0)
	if before.TotalSeconds != after.TotalSeconds {
		t.Fatal("self-merge changed totals")
	}
}

// failingWriter refuses every write.
type failingWriter struct{}

var errDiskFull = errors.New("disk full")

func (failingWriter) Write([]byte) (int, error) { return 0, errDiskFull }

// TestWriteJSONReportsWriterError pins that WriteJSON returns the
// writer's error instead of reporting a profile that was never written.
func TestWriteJSONReportsWriterError(t *testing.T) {
	if err := New().WriteJSON(failingWriter{}, 1e9); !errors.Is(err, errDiskFull) {
		t.Fatalf("WriteJSON to a failing writer returned %v, want %v", err, errDiskFull)
	}
}

func TestReportJSONSchema(t *testing.T) {
	p := New()
	p.Enable()
	sp := p.Begin(PhaseTriSolve)
	time.Sleep(time.Millisecond)
	sp.End(1000, 8000)
	p.Disable()
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf, 1e9); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "petscfun3d-profile/1" {
		t.Fatalf("schema %q", rep.Schema)
	}
	if rep.StreamMBps != 1000 {
		t.Fatalf("stream MB/s %g", rep.StreamMBps)
	}
	if len(rep.Phases) != 1 || rep.Phases[0].Phase != "tri_solve" || rep.Phases[0].Category != "compute" {
		t.Fatalf("phases %+v", rep.Phases)
	}
	if rep.Phases[0].StreamFraction <= 0 {
		t.Fatal("stream fraction not computed")
	}
}

func TestCategorySeconds(t *testing.T) {
	p := New()
	p.Enable()
	p.Begin(PhaseFlux).End(0, 0)
	p.Begin(PhaseScatter).End(0, 0)
	p.Begin(PhaseReduce).End(0, 0)
	p.Disable()
	cat := p.CategorySeconds()
	for _, k := range []string{"compute", "scatter", "reduce"} {
		if _, ok := cat[k]; !ok {
			t.Fatalf("category %q missing from %v", k, cat)
		}
	}
}

func TestDisableDropsOpenSpans(t *testing.T) {
	p := New()
	p.Enable()
	sp := p.Begin(PhaseFlux)
	p.Disable()
	sp.End(1, 1) // stack was cleared; must not record or panic
	if rep := p.Report(0); len(rep.Phases) != 0 {
		t.Fatalf("dropped span recorded: %+v", rep.Phases)
	}
}

// BenchmarkDisabledSpan measures the permanent cost of instrumentation
// left in a hot path: one atomic load and a branch per Begin/End pair.
func BenchmarkDisabledSpan(b *testing.B) {
	p := New()
	for i := 0; i < b.N; i++ {
		p.Begin(PhaseFlux).End(0, 0)
	}
}

func BenchmarkEnabledSpan(b *testing.B) {
	p := New()
	p.Enable()
	for i := 0; i < b.N; i++ {
		p.Begin(PhaseFlux).End(0, 0)
	}
}

func TestEndUnwindsLeakedSpans(t *testing.T) {
	p := New()
	p.Enable()
	outer := p.Begin(PhaseKrylov)
	p.Begin(PhaseOrtho) // leaked: never closed (an early-return bug)
	time.Sleep(time.Millisecond)
	outer.End(7, 9)
	p.Disable()

	rep := p.Report(0)
	stats := map[string]PhaseStat{}
	for _, st := range rep.Phases {
		stats[st.Phase] = st
	}
	// The leaked ortho span must not swallow the outer End: krylov is
	// still charged, with the leaked frame's time in its self time.
	k, ok := stats["krylov"]
	if !ok {
		t.Fatal("leaked nested span discarded the outer phase entirely")
	}
	if k.Calls != 1 || k.Flops != 7 || k.Bytes != 9 {
		t.Fatalf("outer span miscounted after unwind: %+v", k)
	}
	if k.Seconds <= 0 {
		t.Fatalf("outer span lost its wall time: %+v", k)
	}
	// The leaked span itself is dropped uncharged.
	if o, ok := stats["ortho"]; ok && o.Calls != 0 {
		t.Fatalf("leaked span was charged: %+v", o)
	}
	if rep.TotalSeconds <= 0 {
		t.Fatal("root time lost after unwind")
	}
}

func TestPhaseNamesTaxonomy(t *testing.T) {
	names := PhaseNames()
	if len(names) != int(numPhases) {
		t.Fatalf("PhaseNames returned %d names, want %d", len(names), int(numPhases))
	}
	for _, n := range names {
		if !IsPhaseName(n) {
			t.Fatalf("IsPhaseName(%q) = false for a canonical name", n)
		}
	}
	if IsPhaseName("warp_drive") {
		t.Fatal("IsPhaseName accepted a name outside the taxonomy")
	}
}
