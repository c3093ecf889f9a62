package experiments

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"petscfun3d/internal/ilu"
	"petscfun3d/internal/stream"
)

// Table2Matrix names one wing matrix of the measured Table 2: an RCM-
// ordered wing mesh of about Vertices vertices, b×b blocks, ILU(Level).
type Table2Matrix struct {
	Vertices, B, Level int
}

// Table2MeasuredRow is one matrix in one factor storage precision. The
// kernel times are the median and inter-quartile range of the seconds
// per call over the study's repetitions.
type Table2MeasuredRow struct {
	Vertices int  `col:"vertices"`
	B        int  `col:"b"`
	Level    int  `col:"ILU level"`
	Single   bool `col:"f32"`
	// FactorBytes is what the factorization keeps for values: the stored
	// factors and, under float32 storage, the elimination window.
	FactorBytes int64   `col:"factors,%.2f,MB,1e6"`
	RefactorSec float64 `col:"refactor,%.3f,ms,1e-3"`
	RefactorIQR float64 `col:"refactor IQR,%.3f,ms,1e-3"`
	// RefactorFrac and SolveFrac are bytes/s over the run's STREAM Triad:
	// SolveBytes (every stored block read once) and FactorBytes (A's
	// values read, the factors written, the index arrays read once), each
	// over the median time.
	RefactorFrac float64 `col:"refactor/STREAM,%.2f"`
	// RefactorGflops is FactorFlops — the elimination's counted
	// operations — over the median time.
	RefactorGflops float64 `col:"refactor flops,%.2f,Gflop/s,1e9"`
	SolveSec       float64 `col:"solve,%.3f,ms,1e-3"`
	SolveIQR       float64 `col:"solve IQR,%.3f,ms,1e-3"`
	SolveFrac      float64 `col:"solve/STREAM,%.2f"`
	// SolveRatio is this row's Solve median over the float64 one of the
	// same matrix — the paper's Table 2 claim in time.
	SolveRatio float64 `col:"vs f64,%.2f"`
}

// Table2MeasuredResult is the measured sibling of the modeled Table 2:
// the two factor phases timed in both storage precisions on this host.
type Table2MeasuredResult struct {
	Reps  int `col:"repetitions"`
	Calls int `col:"calls"`
	// StreamBps is this run's STREAM Triad over three arrays of StreamMB
	// megabytes each — sized past the caches the factors might sit in,
	// as the benchmark's own STREAM is.
	StreamBps float64 `col:"STREAM Triad,%.0f,MB/s,1e6"`
	StreamMB  int     `col:"STREAM arrays,3 × %d,MB"`
	Kernels   string  `col:"block kernels"` // the block-kernel family that ran (ilu.KernelFamily)
	Host      string  `col:"host"`
	Rows      []Table2MeasuredRow
}

// Tables prints the measured Table 2.
func (t *Table2MeasuredResult) Tables() []Table {
	return []Table{{Name: "table2measured", Title: "Table 2 — factor storage precision in time",
		Measured: true, Params: t, Rows: t.Rows,
		Notes: "median (IQR) of the alternated repetitions. factors: values kept (float32: 4 B a scalar plus the\n" +
			"float64 elimination window). /STREAM: Solve reads every stored block once (SolveBytes); Refactor's\n" +
			"bytes are FactorBytes, counted. vs f64: the Solve median over the float64 one of the same matrix.\n"}}
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
		w, err := wingSystem(mt.Vertices, mt.B, 17)
		if err != nil {
			return nil, err
		}
		a, rhs, x := w.a, w.rhs, make([]float64, w.a.N())
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
		f64Solve, _ := timing(solve[0])
		for p, f := range fs {
			row := Table2MeasuredRow{Vertices: w.m.NumVertices(), B: mt.B, Level: mt.Level, Single: p == 1,
				FactorBytes: f.StorageBytes()}
			row.RefactorSec, row.RefactorIQR = timing(refactor[p])
			row.SolveSec, row.SolveIQR = timing(solve[p])
			row.SolveRatio = row.SolveSec / f64Solve
			row.RefactorGflops = float64(f.FactorFlops()) / row.RefactorSec
			if res.StreamBps > 0 {
				row.RefactorFrac = float64(f.FactorBytes()) / row.RefactorSec / res.StreamBps
				row.SolveFrac = float64(f.SolveBytes()) / row.SolveSec / res.StreamBps
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
func timing(xs []float64) (median, iqr float64) {
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
	return q(0.5), q(0.75) - q(0.25)
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
