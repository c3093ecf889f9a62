package perfmodel

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConflictMissBoundBelowCapacity(t *testing.T) {
	if got := ConflictMissBound(1000, 100, 200, 16); got != 0 {
		t.Errorf("span < capacity should give 0, got %g", got)
	}
	if got := ConflictMissBound(1000, 200, 200, 16); got != 0 {
		t.Errorf("span == capacity gives (span-c)=0, got %g", got)
	}
}

func TestConflictMissBoundFormula(t *testing.T) {
	// N=10, span=132, c=100, w=16: ceil(32/16)=2 -> 20.
	if got := ConflictMissBound(10, 132, 100, 16); got != 20 {
		t.Errorf("got %g, want 20", got)
	}
	// Non-divisible remainder rounds up: span-c=33 -> ceil=3 -> 30.
	if got := ConflictMissBound(10, 133, 100, 16); got != 30 {
		t.Errorf("got %g, want 30", got)
	}
}

func TestInterlacedBoundBeatsNoninterlaced(t *testing.T) {
	// The central comparison of section 2.1.1: for the same N, the
	// interlaced bound (span = beta << N) is far below the noninterlaced
	// bound (span = N).
	n, beta, c, w := 100000, 2000, 65536, 16
	ni := ConflictMissBound(n, n, c, w)
	il := ConflictMissBound(n, beta, c, w)
	if il != 0 {
		t.Errorf("interlaced bound should be 0 when beta < C_sc, got %g", il)
	}
	if ni <= 0 {
		t.Errorf("noninterlaced bound should be positive, got %g", ni)
	}
	// And when beta slightly exceeds capacity, still much smaller than
	// the N-span bound.
	il2 := ConflictMissBound(n, c+1600, c, w)
	if il2 <= 0 || il2 >= ni {
		t.Errorf("interlaced bound %g not in (0, %g)", il2, ni)
	}
}

func TestConflictMissBoundMonotone(t *testing.T) {
	f := func(spanDelta uint16) bool {
		base := ConflictMissBound(5000, 70000, 65536, 16)
		grown := ConflictMissBound(5000, 70000+int(spanDelta), 65536, 16)
		return grown >= base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestConflictMissBoundPanicsOnBadLine(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	ConflictMissBound(10, 10, 10, 0)
}

func TestProfileLookup(t *testing.T) {
	for _, want := range []string{"ASCI Red", "Cray T3E", "Blue Pacific", "Origin 2000"} {
		p, err := ProfileByName(want)
		if err != nil || p.Name != want {
			t.Errorf("ProfileByName(%q) = %v, %v", want, p.Name, err)
		}
		if p.StreamBW <= 0 || p.PeakFlops <= 0 || p.ProcsPerNode < 1 {
			t.Errorf("%s: nonsensical profile numbers", want)
		}
		if p.FluxFlopRate >= p.PeakFlops {
			t.Errorf("%s: flux rate above peak", want)
		}
	}
	if _, err := ProfileByName("Connection Machine"); err == nil {
		t.Error("unknown profile accepted")
	}
}

func TestComputeTimeRoofline(t *testing.T) {
	p := Profile{PeakFlops: 1e9, StreamBW: 1e8}
	// Memory bound: 1e8 bytes at 1e8 B/s = 1s >> 1e6 flops at 1e9.
	if got := p.ComputeTime(1e6, 1e8, 0); got != 1 {
		t.Errorf("memory-bound time = %g, want 1", got)
	}
	// Compute bound: 1e9 flops at 1e9 = 1s >> tiny traffic.
	if got := p.ComputeTime(1e9, 8, 0); got != 1 {
		t.Errorf("compute-bound time = %g, want 1", got)
	}
	// Custom sustained rate.
	if got := p.ComputeTime(1e9, 8, 5e8); got != 2 {
		t.Errorf("custom-rate time = %g, want 2", got)
	}
}

func TestMessageAndReduceTimes(t *testing.T) {
	p := Profile{NetBW: 1e8, ReduceLatency: 1e-6}
	if p.ReduceTime(1) != 0 {
		t.Error("ReduceTime(1) should be 0")
	}
	// 1024 ranks: 10 tree levels.
	r1024 := p.ReduceTime(1024)
	r2 := p.ReduceTime(2)
	if r1024 <= r2 || math.Abs(r1024/r2-10) > 1e-9 {
		t.Errorf("ReduceTime scaling wrong: %g vs %g", r1024, r2)
	}
}

func TestDecompose(t *testing.T) {
	// Mirror Table 3's structure: base 128 procs.
	procs := []int{128, 256, 512, 1024}
	its := []int{22, 24, 26, 29}
	times := []float64{2039, 1144, 638, 362}
	eff, err := Decompose(procs, its, times)
	if err != nil {
		t.Fatal(err)
	}
	if eff[0].Speedup != 1 || eff[0].Overall != 1 || eff[0].Alg != 1 || eff[0].Impl != 1 {
		t.Errorf("base row not unity: %+v", eff[0])
	}
	// Table 3's published values: speedup 5.63, overall 0.70, alg 0.76.
	if math.Abs(eff[3].Speedup-5.63) > 0.01 {
		t.Errorf("speedup = %g, want 5.63", eff[3].Speedup)
	}
	if math.Abs(eff[3].Overall-0.70) > 0.01 {
		t.Errorf("overall = %g, want 0.70", eff[3].Overall)
	}
	if math.Abs(eff[3].Alg-22.0/29.0) > 1e-9 {
		t.Errorf("alg = %g", eff[3].Alg)
	}
	if math.Abs(eff[3].Impl-eff[3].Overall/eff[3].Alg) > 1e-12 {
		t.Errorf("impl != overall/alg")
	}
}

func TestDecomposeErrors(t *testing.T) {
	if _, err := Decompose([]int{1, 2}, []int{1}, []float64{1, 2}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := Decompose(nil, nil, nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := Decompose([]int{1}, []int{0}, []float64{1}); err == nil {
		t.Error("zero iterations accepted")
	}
}

func TestDecomposeProperty(t *testing.T) {
	// Property: overall = alg * impl exactly, for arbitrary valid inputs.
	f := func(a, b, c uint8) bool {
		procs := []int{16, 32}
		its := []int{int(a%50) + 1, int(b%50) + 1}
		times := []float64{float64(c%100) + 1, float64(a%70) + 1}
		eff, err := Decompose(procs, its, times)
		if err != nil {
			return false
		}
		return math.Abs(eff[1].Overall-eff[1].Alg*eff[1].Impl) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
