// Command benchtables regenerates every table and figure of the paper's
// evaluation section. Each experiment prints the same rows/series the
// paper reports; EXPERIMENTS.md records the comparison against the
// published values.
//
// Usage:
//
//	benchtables [-size small|medium|large] [-experiment all|table1|table2|table2measured|table3|table3measured|chaos|table4|table5|threads|ortho|figure1|figure2|figure3|figure4|figure5|missmodel|ablation|spmvbound]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"time"

	"petscfun3d/internal/experiments"
	"petscfun3d/internal/prof"
	"petscfun3d/internal/stream"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchtables: ")
	sizeFlag := flag.String("size", "small", "experiment scale: small|medium|large")
	expFlag := flag.String("experiment", "all", "which experiment to run")
	csvDir := flag.String("csv", "", "also write plot-ready CSV data files into this directory")
	profileJSON := flag.String("profile-json", "", "profile the experiments' solver phases and write the report (JSON) to this file")
	flag.Parse()
	if *profileJSON != "" {
		prof.Default.Enable()
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	writeCSV := func(name string, wr func(w io.Writer) error) {
		if *csvDir == "" {
			return
		}
		f, err := os.Create(filepath.Join(*csvDir, name+".csv"))
		if err != nil {
			log.Fatal(err)
		}
		if err := wr(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}

	size, err := experiments.ParseSize(*sizeFlag)
	if err != nil {
		log.Fatal(err)
	}
	runners := map[string]func() (string, error){
		"table1": func() (string, error) {
			inc, err := experiments.Table1(size, "incompressible")
			if err != nil {
				return "", err
			}
			cmp, err := experiments.Table1(size, "compressible")
			if err != nil {
				return "", err
			}
			writeCSV("table1_incompressible", inc.WriteCSV)
			writeCSV("table1_compressible", cmp.WriteCSV)
			return inc.Render() + "\n" + cmp.Render(), nil
		},
		"table2": func() (string, error) {
			r, err := experiments.Table2(size)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		},
		"table2measured": func() (string, error) {
			r, err := experiments.Table2Measured(size)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		},
		"table3": func() (string, error) {
			r, err := experiments.Table3(size)
			if err != nil {
				return "", err
			}
			writeCSV("table3", r.WriteCSV)
			// Figure 1 is the per-step view of the same run; emit both
			// rather than solving twice.
			return r.Render() + "\n" + r.Figure1Render(), nil
		},
		"table3measured": func() (string, error) {
			r, err := experiments.Table3Measured(size)
			if err != nil {
				return "", err
			}
			writeCSV("table3measured", r.WriteCSV)
			return r.Render(), nil
		},
		"chaos": func() (string, error) {
			r, err := experiments.ChaosSweep(size)
			if err != nil {
				return "", err
			}
			writeCSV("chaos", r.WriteCSV)
			return r.Render(), nil
		},
		"table4": func() (string, error) {
			r, err := experiments.Table4(size)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		},
		"table5": func() (string, error) {
			r, err := experiments.Table5(size)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		},
		"threads": func() (string, error) {
			r, err := experiments.Threads(size)
			if err != nil {
				return "", err
			}
			writeCSV("threads", r.WriteCSV)
			return r.Render(), nil
		},
		"ortho": func() (string, error) {
			r, err := experiments.Ortho(size)
			if err != nil {
				return "", err
			}
			writeCSV("ortho", r.WriteCSV)
			return r.Render(), nil
		},
		"figure1": func() (string, error) {
			r, err := experiments.Table3(size)
			if err != nil {
				return "", err
			}
			return r.Figure1Render(), nil
		},
		"figure2": func() (string, error) {
			r, err := experiments.Figure2(size)
			if err != nil {
				return "", err
			}
			writeCSV("figure2", r.WriteCSV)
			return r.Render(), nil
		},
		"figure3": func() (string, error) {
			r, err := experiments.Figure3(size)
			if err != nil {
				return "", err
			}
			writeCSV("figure3", r.WriteCSV)
			return r.Render(), nil
		},
		"figure4": func() (string, error) {
			r, err := experiments.Figure4(size)
			if err != nil {
				return "", err
			}
			writeCSV("figure4", r.WriteCSV)
			return r.Render(), nil
		},
		"figure5": func() (string, error) {
			r, err := experiments.Figure5(size)
			if err != nil {
				return "", err
			}
			writeCSV("figure5", r.WriteCSV)
			return r.Render(), nil
		},
		"missmodel": func() (string, error) {
			r, err := experiments.MissModel(size)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		},
		"ablation": func() (string, error) {
			r, err := experiments.Ablation(size)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		},
		"spmvbound": func() (string, error) {
			r, err := experiments.SpMVBounds(size)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		},
	}
	order := []string{
		"table1", "figure3", "missmodel", "spmvbound", "table2measured", "table3",
		"table3measured", "chaos", "figure2", "figure4", "figure5", "table4",
		"table5", "threads", "ortho", "ablation",
	}
	names := order
	if *expFlag != "all" {
		if _, ok := runners[*expFlag]; !ok {
			log.Fatalf("unknown experiment %q", *expFlag)
		}
		names = []string{*expFlag}
	}
	for _, name := range names {
		start := time.Now()
		out, err := runners[name]()
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Println(out)
		_, _ = fmt.Fprintf(os.Stderr, "[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	if *profileJSON != "" {
		prof.Default.Disable()
		bw := stream.TriadBandwidth()
		f, err := os.Create(*profileJSON)
		if err != nil {
			log.Fatal(err)
		}
		if err := prof.Default.WriteJSON(f, bw); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		rep := prof.Default.Report(bw)
		_, _ = fmt.Fprintf(os.Stderr, "[phase profile: %.2fs in %d phases -> %s]\n",
			rep.TotalSeconds, len(rep.Phases), *profileJSON)
	}
}
