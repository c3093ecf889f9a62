// Command bench is the repository's benchmark: wall time to a converged
// ψNKS solve on four fixed workloads, measured as a user runs the
// solver, plus a separate traced pass that times every layer under
// internal/ from outside, through its exported functions.
//
//	go run ./bench                         all workloads, untraced then traced
//	go run ./bench -out A.json             the same, document written to A.json
//	go run ./bench -compare A.json B.json  judge B against A
//	bash bench/run.sh --workload seq-3k --seed 1 --seconds 10 --trace 0
//
// The last form is what BENCHMARK.json names: one workload in one
// process, with one JSON object as the last line of standard output.
// See README.md in this directory.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

const schema = "petscfun3d-bench/1"

// defaultSeconds is how long one run times solves for; BENCHMARK.json's
// run_seconds is the same number.
const defaultSeconds = 10

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one-line answer of a single-workload run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything one workload produced.
type report struct {
	Name           string             `json:"name"`
	Delta          string             `json:"config_delta"`
	Why            string             `json:"why"`
	Oversubscribed bool               `json:"oversubscribed"`
	Reps           int                `json:"timed_reps"`
	Attempted      int                `json:"attempted"`
	Failed         int                `json:"failed"`
	Failures       []string           `json:"failures,omitempty"`
	EndToEnd       map[string]summary `json:"end_to_end,omitempty"`
	PerLayer       map[string]metric  `json:"per_layer,omitempty"`
}

// document is what a run writes: the host it ran on and one report per
// workload. -compare reads two of them.
type document struct {
	Schema    string   `json:"schema"`
	Host      host     `json:"host"`
	Seed      uint64   `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Commit    string   `json:"commit"`
	Workloads []report `json:"workloads"`
}

// options are one run's settings.
type options struct {
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string
	// stream measures the machine's bandwidth for the traced pass.
	stream func() (streamResult, error)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this one workload in this process and print its result as the last line")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", defaultSeconds, "how long each untraced run times solves for")
	trace := fs.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics, 1 the per-layer metrics")
	out := fs.String("out", "", "write the document to this file instead of standard output")
	traceOut := fs.String("trace-out", "", "append the traced pass's spans to this file as JSON lines")
	compare := fs.Bool("compare", false, "compare two documents: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, traceOut: *traceOut, stream: streamInChild}
	var err error
	switch {
	case *compare:
		if fs.NArg() != 2 {
			logf(stderr, "bench: -compare takes two documents\n")
			return 2
		}
		var regressed bool
		if regressed, err = compareFiles(fs.Arg(0), fs.Arg(1), stdout); err == nil && regressed {
			return 1
		}
	case *name == streamChild:
		err = runStreamChild()
	case *name != "":
		err = runOne(*name, o, stdout, stderr)
	default:
		var failed bool
		if failed, err = runAll(o, *out, stdout, stderr); err == nil && failed {
			return 1
		}
	}
	if err != nil {
		logf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// measure runs one pass of one workload in this process.
func (w *workload) measure(h host, o options) (report, error) {
	cfg := w.config()
	rep := report{Name: w.name, Delta: w.delta, Why: w.why, Oversubscribed: h.oversubscribed()}
	if !o.trace {
		e := w.runEndToEnd(cfg, o.seconds)
		rep.Reps, rep.Attempted, rep.Failures = len(e.solveS), e.attempted, e.failures
		rep.EndToEnd = map[string]summary{
			"solve_s":     summarize("s", e.solveS),
			"setup_s":     summarize("s", e.setupS),
			"alloc_mb":    summarize("MB", e.allocMB),
			"peak_rss_mb": summarize("MB", []float64{peakRSSMB()}),
		}
	} else {
		st, err := o.stream()
		if err != nil {
			return rep, err
		}
		tr := newTracer(w.name)
		vals, attempted, failures := w.runTraced(cfg, o.seed, h, st, tr)
		// The replays count as one more operation that can fail.
		rep.Attempted, rep.Failures = attempted+1, failures
		rep.PerLayer = map[string]metric{}
		for _, d := range perLayerDefs {
			v := vals[d.Name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				rep.Failures = append(rep.Failures, fmt.Sprintf("%s is %v", d.Name, v))
				v = 0
			}
			rep.PerLayer[d.Name] = metric{Value: v, Unit: d.Unit}
			delete(vals, d.Name)
		}
		for name := range vals {
			return rep, fmt.Errorf("metric %s is measured but not defined", name)
		}
		if o.traceOut != "" {
			if err := tr.write(o.traceOut); err != nil {
				return rep, err
			}
		}
	}
	rep.Failed = len(rep.Failures)
	if rep.Failed > rep.Attempted {
		rep.Failed = rep.Attempted
	}
	return rep, nil
}

// toResult reduces a report to the single-run answer: medians of the
// end-to-end metrics, or the per-layer values.
func (r report) toResult() result {
	res := result{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metric{}}
	for name, s := range r.EndToEnd {
		res.Metrics[name] = metric{Value: s.Median, Unit: s.Unit}
	}
	for name, m := range r.PerLayer {
		res.Metrics[name] = m
	}
	return res
}

// runOne is the single-workload mode: the document on one line, then
// the result on the last.
func runOne(name string, o options, stdout, stderr io.Writer) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	h := readHost()
	rep, err := w.measure(h, o)
	if err != nil {
		return err
	}
	logf(stderr, "%s", formatReport(rep))
	doc := document{Schema: schema, Host: h, Seed: o.seed, Seconds: o.seconds, Workloads: []report{rep}}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(doc); err != nil {
		return err
	}
	return enc.Encode(rep.toResult())
}

// runAll runs every workload in a child process of its own — untraced
// first, for the end-to-end metrics, then traced — so heap state and
// peak memory belong to one workload. It reports whether anything
// failed.
func runAll(o options, out string, stdout, stderr io.Writer) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	doc := document{Schema: schema, Host: readHost(), Seed: o.seed, Seconds: o.seconds, Commit: gitCommit()}
	if o.traceOut != "" {
		if err := os.WriteFile(o.traceOut, nil, 0o644); err != nil {
			return false, err
		}
	}
	failed := false
	for _, w := range workloads {
		var merged report
		for _, trace := range []string{"0", "1"} {
			args := []string{"-workload", w.name, "-seed", strconv.FormatUint(o.seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", trace}
			if trace == "1" && o.traceOut != "" {
				args = append(args, "-trace-out", o.traceOut)
			}
			logf(stderr, "== %s (trace %s)\n", w.name, trace)
			cmd := exec.Command(self, args...)
			cmd.Stderr = stderr
			output, err := cmd.Output()
			if err != nil {
				return false, fmt.Errorf("workload %s: %w", w.name, err)
			}
			child, err := parseDocument(output)
			if err != nil {
				return false, fmt.Errorf("workload %s: %w", w.name, err)
			}
			rep := child.Workloads[0]
			if trace == "0" {
				merged = rep
				continue
			}
			merged.PerLayer = rep.PerLayer
			merged.Attempted += rep.Attempted
			merged.Failed += rep.Failed
			merged.Failures = append(merged.Failures, rep.Failures...)
		}
		failed = failed || merged.Failed > 0
		doc.Workloads = append(doc.Workloads, merged)
	}
	body, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return false, err
	}
	body = append(body, '\n')
	if out != "" {
		return failed, os.WriteFile(out, body, 0o644)
	}
	_, err = stdout.Write(body)
	return failed, err
}

// parseDocument finds the document line in a single-workload run's
// standard output.
func parseDocument(output []byte) (document, error) {
	sc := bufio.NewScanner(bytes.NewReader(output))
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		var doc document
		if json.Unmarshal(sc.Bytes(), &doc) == nil && doc.Schema == schema && len(doc.Workloads) == 1 {
			return doc, nil
		}
	}
	return document{}, fmt.Errorf("no %s document in the run's output", schema)
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// logf prints a diagnostic. A failed write to standard error has
// nowhere to be reported.
func logf(w io.Writer, format string, args ...any) { _, _ = fmt.Fprintf(w, format, args...) }

// formatReport is the human table.
func formatReport(r report) string {
	w := &strings.Builder{}
	fmt.Fprintf(w, "%s: %d attempted, %d failed, %d timed reps", r.Name, r.Attempted, r.Failed, r.Reps)
	if r.Oversubscribed {
		fmt.Fprint(w, " (oversubscribed: fewer than 2 cores, two-way wall-clock metrics read 0)")
	}
	fmt.Fprintln(w)
	for _, f := range r.Failures {
		fmt.Fprintln(w, "  FAILED:", f)
	}
	for _, d := range endToEndDefs {
		if s, ok := r.EndToEnd[d.Name]; ok {
			fmt.Fprintf(w, "  %-28s %14.6g %-8s n=%d min %.6g q1 %.6g q3 %.6g max %.6g spread %.1f%%\n",
				d.Name, s.Median, s.Unit, s.N, s.Min, s.Q1, s.Q3, s.Max, 100*s.spread())
		}
	}
	for _, d := range perLayerDefs {
		if m, ok := r.PerLayer[d.Name]; ok {
			fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.Name, m.Value, m.Unit)
		}
	}
	return w.String()
}
