package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

func readDocument(path string) (document, error) {
	var doc document
	b, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != schema {
		return doc, fmt.Errorf("%s: schema %q, want %q", path, doc.Schema, schema)
	}
	return doc, nil
}

func compareFiles(pathA, pathB string, w io.Writer) (regressed bool, err error) {
	a, err := readDocument(pathA)
	if err != nil {
		return false, err
	}
	b, err := readDocument(pathB)
	if err != nil {
		return false, err
	}
	table, regressed := compareDocuments(a, b)
	_, err = io.WriteString(w, table)
	return regressed, err
}

// worsening is how much worse v is than base, as a share of base, in
// the metric's own direction: positive is worse.
func worsening(base, v float64, better string) float64 {
	if base == 0 {
		return 0
	}
	d := (v - base) / base
	if better == "higher" {
		return -d
	}
	return d
}

// compareDocuments judges b against the baseline a, one row per
// workload and end-to-end metric: regressed when b's median is worse
// than a's by more than the metric's bound, unresolved when either
// side's inter-quartile range is wider than the bound (the spread hides
// a change of that size, so the row is neither ok nor regressed), ok
// otherwise. Per-layer changes are listed without a verdict. It returns
// the table, and whether any row regressed or any workload failed more
// often.
func compareDocuments(a, b document) (string, bool) {
	w := &strings.Builder{}
	regressed := false
	byName := map[string]report{}
	for _, r := range b.Workloads {
		byName[r.Name] = r
	}
	fmt.Fprintf(w, "%-12s %-12s %14s %14s %8s %7s  %s\n", "workload", "metric", "baseline", "candidate", "worse", "bound", "verdict")
	for _, ra := range a.Workloads {
		rb, ok := byName[ra.Name]
		if !ok {
			fmt.Fprintf(w, "%-12s missing from the candidate: regressed\n", ra.Name)
			regressed = true
			continue
		}
		for _, d := range endToEndDefs {
			sa, sb := ra.EndToEnd[d.Name], rb.EndToEnd[d.Name]
			worse := worsening(sa.Median, sb.Median, d.Better)
			verdict := "ok"
			switch {
			case sa.N == 0 || sb.N == 0:
				verdict = "regressed" // no sample survived the checks
			case sa.spread() > d.Bound || sb.spread() > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "regressed"
			}
			regressed = regressed || verdict == "regressed"
			fmt.Fprintf(w, "%-12s %-12s %14.6g %14.6g %+7.1f%% %6.0f%%  %s\n",
				ra.Name, d.Name, sa.Median, sb.Median, 100*worse, 100*d.Bound, verdict)
		}
		fa, fb := failShare(ra), failShare(rb)
		verdict := "ok"
		if fb > fa {
			verdict, regressed = "regressed", true
		}
		fmt.Fprintf(w, "%-12s %-12s %14.6g %14.6g %8s %6.0f%%  %s\n", ra.Name, "fail_share", fa, fb, "", 0.0, verdict)
	}
	fmt.Fprintln(w, "\nper-layer (no verdict; positive is worse):")
	for _, ra := range a.Workloads {
		rb := byName[ra.Name]
		for _, d := range perLayerDefs {
			ma, okA := ra.PerLayer[d.Name]
			mb, okB := rb.PerLayer[d.Name]
			if !okA || !okB || ma.Value == mb.Value {
				continue
			}
			fmt.Fprintf(w, "%-12s %-28s %14.6g %14.6g %+7.1f%% %s\n",
				ra.Name, d.Name, ma.Value, mb.Value, 100*worsening(ma.Value, mb.Value, d.Better), d.Unit)
		}
	}
	return w.String(), regressed
}

// failShare is failed operations over attempted ones, warm-ups included.
func failShare(r report) float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}
