package experiments

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"petscfun3d/internal/ilu"
	"petscfun3d/internal/mesh"
	"petscfun3d/internal/sparse"
	"petscfun3d/internal/stream"
)

// Table2Matrix names one wing matrix of the measured Table 2: an RCM-
// ordered wing mesh of about Vertices vertices, b×b blocks, ILU(Level).
type Table2Matrix struct {
	Vertices, B, Level int
}

// Timing is the median and inter-quartile range of a kernel's seconds per
// call over the repetitions of a study.
type Timing struct {
	Median, IQR float64
}

// Table2MeasuredRow is one matrix in one factor storage precision.
type Table2MeasuredRow struct {
	Vertices, B, Level int
	Single             bool
	// FactorBytes is what the factorization keeps for values: the stored
	// factors and, under float32 storage, the elimination window.
	FactorBytes int64
	Refactor    Timing
	Solve       Timing
	// RefactorFrac and SolveFrac are bytes/s over the run's STREAM Triad:
	// SolveBytes (every stored block read once) and the FactorBytes
	// estimate (each stored block read and written about three times),
	// each over the median time.
	RefactorFrac, SolveFrac float64
}

// Table2MeasuredResult is the measured sibling of the modeled Table 2:
// the two factor phases timed in both storage precisions on this host.
// The modeled table rides along, labelled as such.
type Table2MeasuredResult struct {
	Reps, Calls int
	// StreamBps is this run's STREAM Triad over three arrays of StreamMB
	// megabytes each — sized past the caches the factors might sit in,
	// as the benchmark's own STREAM is.
	StreamBps float64
	StreamMB  int
	Kernels   string // the block-kernel family that ran (ilu.KernelFamily)
	Host      string
	Rows      []Table2MeasuredRow
	Modeled   *Table2Result
}

// Table2Measured times Refactor and Solve on the benchmark's two factor
// shapes — the 22k b = 4 ILU(0) and the 10k b = 5 ILU(1) wing matrices —
// in float64 and float32 storage, and runs the modeled Table 2 beside it.
func Table2Measured(size Size) (*Table2MeasuredResult, error) {
	mats := pick(size,
		[]Table2Matrix{{2000, 4, 0}, {2000, 5, 1}},
		[]Table2Matrix{{22677, 4, 0}, {10000, 5, 1}},
		[]Table2Matrix{{22677, 4, 0}, {10000, 5, 1}})
	res, err := Table2MeasuredStudy(mats, pick(size, 7, 11, 11), pick(size, 5, 10, 10), pick(size, 16, 128, 128))
	if err != nil {
		return nil, err
	}
	if res.Modeled, err = Table2(size); err != nil {
		return nil, err
	}
	return res, nil
}

// Table2MeasuredStudy factors each matrix in both precisions and times,
// reps times, calls Refactor calls and calls Solve calls of each — the two
// precisions alternating within a repetition, the one that goes first
// alternating between repetitions, so drift on the host lands on both.
// STREAM Triad is measured first, over three arrays of streamMB MB.
func Table2MeasuredStudy(mats []Table2Matrix, reps, calls, streamMB int) (*Table2MeasuredResult, error) {
	if reps < 1 || calls < 1 || streamMB < 1 {
		return nil, fmt.Errorf("experiments: table2measured needs positive reps, calls and STREAM size, got %d, %d, %d", reps, calls, streamMB)
	}
	kernels, err := stream.Run(streamMB<<20/8, 5)
	if err != nil {
		return nil, err
	}
	res := &Table2MeasuredResult{Reps: reps, Calls: calls, StreamBps: kernels[len(kernels)-1].Bandwidth, StreamMB: streamMB,
		Kernels: ilu.KernelFamily(), Host: hostFingerprint()}
	for _, mt := range mats {
		m, err := mesh.GenerateWingN(mt.Vertices)
		if err != nil {
			return nil, err
		}
		m = m.Renumber(mesh.RCM(m))
		a := sparse.BlockPattern(sparse.Graph{NV: m.NumVertices(), XAdj: m.XAdj, Adj: m.Adj}, mt.B)
		a.FillDeterministic(17)
		rhs, x := make([]float64, a.N()), make([]float64, a.N())
		for i := range rhs {
			rhs[i] = math.Sin(float64(i) * 0.19)
		}
		var fs [2]*ilu.Factorization
		var refactor, solve [2][]float64
		for p := range fs {
			if fs[p], err = ilu.Factor(a, ilu.Options{Level: mt.Level, SinglePrecision: p == 1}); err != nil {
				return nil, err
			}
		}
		for rep := 0; rep < reps; rep++ {
			for k := 0; k < 2; k++ {
				p := (rep + k) % 2
				f := fs[p]
				var ferr error
				refactor[p] = append(refactor[p], perCall(calls, func() {
					if err := f.Refactor(a); err != nil {
						ferr = err
					}
				}))
				if ferr != nil {
					return nil, ferr
				}
				solve[p] = append(solve[p], perCall(calls, func() { f.Solve(rhs, x) }))
			}
		}
		for p, f := range fs {
			row := Table2MeasuredRow{Vertices: m.NumVertices(), B: mt.B, Level: mt.Level, Single: p == 1,
				FactorBytes: f.StorageBytes(), Refactor: timing(refactor[p]), Solve: timing(solve[p])}
			if res.StreamBps > 0 {
				row.RefactorFrac = float64(f.FactorBytes()) / row.Refactor.Median / res.StreamBps
				row.SolveFrac = float64(f.SolveBytes()) / row.Solve.Median / res.StreamBps
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// perCall returns the wall seconds per call of calls calls of fn.
func perCall(calls int, fn func()) float64 {
	start := time.Now()
	for i := 0; i < calls; i++ {
		fn()
	}
	return time.Since(start).Seconds() / float64(calls)
}

// timing is the median and inter-quartile range of xs (linear
// interpolation between order statistics).
func timing(xs []float64) Timing {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		i := int(pos)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return Timing{Median: q(0.5), IQR: q(0.75) - q(0.25)}
}

// hostFingerprint names the machine a measurement was taken on: CPU model
// (from /proc/cpuinfo where there is one), cores, GOMAXPROCS, toolchain
// and platform.
func hostFingerprint() string {
	model := "unknown CPU"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("%s, %d cores, GOMAXPROCS %d, %s %s/%s", model, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// Render formats the measured Table 2 and, after it, the modeled one.
func (t *Table2MeasuredResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 2 (measured) — factor storage precision in time: median (IQR) of %d alternated repetitions of %d calls\n", t.Reps, t.Calls)
	fmt.Fprintf(&sb, "block kernels %s; STREAM Triad %.0f MB/s (this run, 3 × %d MB arrays); host: %s\n", t.Kernels, t.StreamBps/1e6, t.StreamMB, t.Host)
	fmt.Fprintf(&sb, "%-22s %4s | %10s | %20s %8s | %20s %8s | %7s\n",
		"matrix", "prec", "factors", "Refactor", "/STREAM", "Solve", "/STREAM", "f32/f64")
	for i, r := range t.Rows {
		name, prec, ratio := "", "f64", ""
		if !r.Single {
			name = fmt.Sprintf("%d v, b=%d, ILU(%d)", r.Vertices, r.B, r.Level)
		} else {
			prec = "f32"
			if i > 0 && !t.Rows[i-1].Single {
				ratio = fmt.Sprintf("%7.2f", r.Solve.Median/t.Rows[i-1].Solve.Median)
			}
		}
		fmt.Fprintf(&sb, "%-22s %4s | %7.2f MB | %8.3f ms (%6.3f) %8.2f | %8.3f ms (%6.3f) %8.2f | %7s\n",
			name, prec, float64(r.FactorBytes)/1e6,
			1e3*r.Refactor.Median, 1e3*r.Refactor.IQR, r.RefactorFrac,
			1e3*r.Solve.Median, 1e3*r.Solve.IQR, r.SolveFrac, ratio)
	}
	sb.WriteString("factors: values kept (float32: 4 B a scalar plus the float64 elimination window). /STREAM: Solve\n" +
		"reads every stored block once (SolveBytes); Refactor's bytes are the FactorBytes estimate.\n" +
		"f32/f64: the float32 Solve's median over the float64 one — the paper's Table 2 claim in time.\n")
	if t.Modeled != nil {
		sb.WriteString("\n")
		sb.WriteString(t.Modeled.Render())
	}
	return sb.String()
}
