// Command benchtables regenerates every table and figure of the paper's
// evaluation. Each experiment prints the same rows/series the paper
// reports; EXPERIMENTS.md records the comparison against the published
// values.
//
// Usage:
//
//	benchtables [-size small|medium|large] [-experiment all|table1|figure3|missmodel|spmvbound|table2measured|table3|table3measured|chaos|figure2|figure4|figure5|table4|table5|threads|ortho|ablation] [-csv dir] [-profile-json file]
//
// -csv writes one CSV file per table: a header of column names and
// units, then one line per row.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strings"
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
	size, err := experiments.ParseSize(*sizeFlag)
	if err != nil {
		log.Fatal(err)
	}
	var names []string
	for _, st := range experiments.Studies {
		names = append(names, st.Name)
	}
	if *expFlag != "all" && !slices.Contains(names, *expFlag) {
		log.Fatalf("unknown experiment %q (want all|%s)", *expFlag, strings.Join(names, "|"))
	}
	for _, st := range experiments.Studies {
		if *expFlag != "all" && *expFlag != st.Name {
			continue
		}
		start := time.Now()
		tabs, err := st.Run(size)
		if err != nil {
			log.Fatalf("%s: %v", st.Name, err)
		}
		fmt.Println(experiments.Text(tabs...))
		for _, t := range tabs {
			if *csvDir != "" {
				writeCSV(filepath.Join(*csvDir, t.Name+".csv"), t)
			}
		}
		_, _ = fmt.Fprintf(os.Stderr, "[%s completed in %v]\n\n", st.Name, time.Since(start).Round(time.Millisecond))
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

// writeCSV writes one table to path.
func writeCSV(path string, t experiments.Table) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := experiments.WriteCSV(f, t); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
}
