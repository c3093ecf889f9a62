// Command fun3d solves a steady Euler flow over the synthetic wing mesh
// with the ψNKS solver — the repo's equivalent of running PETSc-FUN3D.
// It prints the convergence history and, for parallel runs, the virtual
// machine's modeled execution profile.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strconv"
	"strings"

	"petscfun3d/internal/core"
	"petscfun3d/internal/experiments"
	"petscfun3d/internal/faults"
	"petscfun3d/internal/krylov"
	"petscfun3d/internal/machine"
	"petscfun3d/internal/newton"
	"petscfun3d/internal/perfmodel"
	"petscfun3d/internal/prof"
	"petscfun3d/internal/stream"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fun3d: ")
	// Every solver flag is bound to its cfg field with
	// core.DefaultConfig()'s value as the default; only the mesh size
	// differs: the paper's smallest M6 mesh.
	cfg := core.DefaultConfig()
	cfg.TargetVertices = 22677
	flag.IntVar(&cfg.TargetVertices, "vertices", cfg.TargetVertices, "target mesh vertex count")
	flag.StringVar(&cfg.MeshFile, "mesh", cfg.MeshFile, "read the mesh from this file instead of generating one")
	writeMesh := flag.String("write-mesh", "", "write the (possibly renumbered) mesh to this file and continue")
	flag.StringVar(&cfg.System, "system", cfg.System, "incompressible|compressible")
	flag.IntVar(&cfg.Order, "order", cfg.Order, "flux discretization order (1 or 2)")
	flag.BoolVar(&cfg.Limit, "limit", cfg.Limit, "apply the van Albada flux limiter (second-order only)")
	flag.Float64Var(&cfg.Viscosity, "viscosity", cfg.Viscosity, "Galerkin momentum diffusion coefficient (0 = Euler)")
	flag.Float64Var(&cfg.SwitchOrderAt, "switch-order-at", cfg.SwitchOrderAt, "residual reduction at which to switch 1st->2nd order (0=off)")
	nopts := &cfg.Newton
	flag.Float64Var(&nopts.CFL0, "cfl0", nopts.CFL0, "initial CFL number")
	flag.Float64Var(&nopts.SERExponent, "ser-exponent", nopts.SERExponent, "SER power-law exponent")
	flag.Float64Var(&nopts.RelTol, "reltol", nopts.RelTol, "residual reduction target")
	flag.IntVar(&nopts.MaxSteps, "max-steps", nopts.MaxSteps, "maximum pseudo-timesteps")
	flag.IntVar(&nopts.Krylov.Restart, "gmres-restart", nopts.Krylov.Restart, "GMRES restart dimension")
	flag.IntVar(&nopts.Krylov.MaxIters, "gmres-maxits", nopts.Krylov.MaxIters, "GMRES iteration cap per Newton step")
	flag.Float64Var(&nopts.Krylov.RelTol, "gmres-rtol", nopts.Krylov.RelTol, "GMRES relative tolerance")
	flag.StringVar(&nopts.Krylov.Orthogonalization, "orthogonalization", nopts.Krylov.Mechanism(),
		"GMRES Gram-Schmidt variant: "+strings.Join(krylov.Orthogonalizations, "|")+" (all but mgs use the fused one-pass MDot/MAxpy kernels)")
	flag.IntVar(&cfg.FillLevel, "ilu-fill", cfg.FillLevel, "ILU fill level k")
	flag.IntVar(&cfg.Overlap, "overlap", cfg.Overlap, "Schwarz subdomain overlap")
	flag.BoolVar(&cfg.SinglePrecision, "single-precision-pc", cfg.SinglePrecision, "store preconditioner factors in float32 (=false stores float64)")
	flag.IntVar(&cfg.Ranks, "ranks", cfg.Ranks, "virtual ranks (1 = sequential with real wall time)")
	flag.IntVar(&cfg.Threads, "threads", cfg.Threads, "node-level worker threads for the threaded kernels (flux, tri-solve, SpMV, reductions)")
	flag.StringVar(&cfg.Partitioner, "partitioner", cfg.Partitioner, "kway|pway")
	profile := flag.String("profile", cfg.Profile.Name, "machine profile for parallel cost model")
	flag.StringVar(&cfg.EdgeOrdering, "edge-ordering", cfg.EdgeOrdering, "sorted|colored flux loop order")
	flag.BoolVar(&cfg.RCM, "rcm", cfg.RCM, "renumber vertices with Reverse Cuthill-McKee")
	profileJSON := flag.String("profile-json", "", "measure per-phase wall time and write the profile report (JSON) to this file")
	distRanks := flag.String("dist-ranks", "2,4,8", "with -profile-json and -ranks>1: rank counts for the measured overlapped-halo efficiency sweep (comma-separated, ascending; empty disables)")
	chaosSeed := flag.Int64("chaos-seed", 0, "run the chaos sweep (measured η_impl vs injected skew) starting at this fault seed instead of solving (0 = off)")
	chaosProfile := flag.String("chaos-profile", "mixed", fmt.Sprintf("fault profile for -chaos-seed (one of %v)", faults.Profiles()))
	chaosSeeds := flag.Int("chaos-seeds", 4, "number of consecutive fault seeds the chaos sweep covers")
	flag.Parse()

	machProf, err := perfmodel.ProfileByName(*profile)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Profile = machProf

	if *chaosSeed != 0 {
		if err := chaosSweep(cfg, *chaosSeed, *chaosProfile, *chaosSeeds); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *profileJSON != "" {
		prof.Default.Enable()
	}

	if *writeMesh != "" {
		p, err := core.Build(cfg)
		if err != nil {
			log.Fatal(err)
		}
		f, err := os.Create(*writeMesh)
		if err != nil {
			log.Fatal(err)
		}
		if err := p.Mesh.Write(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d-vertex mesh to %s\n", p.Mesh.NumVertices(), *writeMesh)
	}
	if cfg.Ranks > 1 {
		out, err := core.RunParallel(cfg)
		if err != nil {
			log.Fatal(err)
		}
		printHistory(out.Newton.Steps)
		fmt.Printf("\nconverged=%v  residual %.3e -> %.3e  linear its %d\n",
			out.Newton.Converged, out.Newton.InitialRnorm, out.Newton.FinalRnorm, out.Newton.TotalLinearIts)
		rep := out.Report
		fmt.Printf("modeled on %d ranks of %s: %.2fs elapsed, %.2f Gflop/s aggregate\n",
			rep.Ranks, machProf.Name, rep.Elapsed, rep.Gflops)
		fmt.Printf("  phase mix: %.1f%% reductions, %.1f%% implicit sync, %.1f%% scatters\n",
			rep.PctReduce, rep.PctWait, rep.PctScatter)
		fmt.Printf("  halo volume per exchange: %.2f MB total\n", float64(out.HaloBytesPerExchange)/1e6)
		if *profileJSON != "" {
			var eff []perfmodel.EfficiencyRow
			if *distRanks != "" {
				sweep, err := measuredSweep(out.Problem, cfg.Newton.CFL0, *distRanks)
				if err != nil {
					log.Fatal(err)
				}
				fmt.Printf("\n%s", experiments.Text(sweep.Tables()...))
				eff = sweep.Rows
				// Fold the sweep's measured scatter_pack / scatter_wait /
				// interior / boundary phases into the written report.
				prof.Default.Merge(sweep.Prof)
			}
			writeProfile(*profileJSON, eff)
			printModeledVsMeasured(rep)
		}
		return
	}
	out, err := core.RunSequential(cfg)
	if err != nil {
		log.Fatal(err)
	}
	printHistory(out.Newton.Steps)
	fmt.Printf("\nconverged=%v  residual %.3e -> %.3e  linear its %d\n",
		out.Newton.Converged, out.Newton.InitialRnorm, out.Newton.FinalRnorm, out.Newton.TotalLinearIts)
	fmt.Printf("wall time %v (%v per pseudo-timestep), %d vertices\n",
		out.WallTime.Round(1e6), out.PerStep.Round(1e6), out.Problem.Mesh.NumVertices())
	if *profileJSON != "" {
		writeProfile(*profileJSON, nil)
	}
}

// chaosSweep runs the measured η_impl-vs-injected-skew table on the
// problem's actual first-order Jacobian: the distributed GMRES under a
// deterministic fault plan per seed, against the fault-free baseline.
// The runtime guarantees (and the sweep asserts) that the faults move
// only clocks — every run converges in the baseline's iteration count.
func chaosSweep(cfg core.Config, seed int64, profile string, nseeds int) error {
	fp, err := faults.ParseProfile(profile)
	if err != nil {
		return err
	}
	if nseeds < 1 {
		return fmt.Errorf("-chaos-seeds must be at least 1")
	}
	p, err := core.Build(cfg)
	if err != nil {
		return err
	}
	q := p.Disc.FreestreamVector()
	a := p.Disc.JacobianPattern()
	if err := p.Disc.AssembleJacobian(q, a); err != nil {
		return err
	}
	newton.AddTimeDiagonal(a, p.Disc.TimeScales(q), cfg.Newton.CFL0)
	rhs := make([]float64, a.N())
	for i := range rhs {
		rhs[i] = math.Sin(float64(i) * 0.19)
	}
	procs := cfg.Ranks
	if procs < 2 {
		procs = 4
	}
	seeds := make([]int64, nseeds)
	for i := range seeds {
		seeds[i] = seed + int64(i)
	}
	res, err := experiments.ChaosEfficiency(a, p.Graph, rhs, procs, fp, seeds)
	if err != nil {
		return err
	}
	fmt.Print(experiments.Text(res.Tables()...))
	return nil
}

// measuredSweep runs the measured overlapped-halo efficiency
// decomposition (Table 3 from wall clocks) on the problem's actual
// first-order Jacobian, pseudo-time-shifted at the initial CFL so the
// system is as well-conditioned as the first Newton step's. The rank
// goroutines use their own profilers — prof.Default assumes
// single-goroutine span nesting — and the merged result is folded into
// the default profile by the caller.
func measuredSweep(p *core.Problem, cfl0 float64, rankList string) (*experiments.Table3MeasuredResult, error) {
	var ranks []int
	for _, f := range strings.Split(rankList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad -dist-ranks entry %q: %v", f, err)
		}
		ranks = append(ranks, n)
	}
	q := p.Disc.FreestreamVector()
	a := p.Disc.JacobianPattern()
	if err := p.Disc.AssembleJacobian(q, a); err != nil {
		return nil, err
	}
	newton.AddTimeDiagonal(a, p.Disc.TimeScales(q), cfl0)
	rhs := make([]float64, a.N())
	for i := range rhs {
		rhs[i] = math.Sin(float64(i) * 0.19)
	}
	return experiments.MeasuredEfficiency(a, p.Graph, rhs, ranks)
}

// writeProfile measures the host's STREAM Triad bandwidth, writes the
// accumulated phase profile as JSON — with the measured efficiency
// decomposition attached when a distributed sweep ran — and prints the
// per-phase roofline table.
func writeProfile(path string, eff []perfmodel.EfficiencyRow) {
	prof.Default.Disable()
	bw := stream.TriadBandwidth()
	rep := prof.Default.Report(bw)
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(struct {
		prof.Report
		Efficiency []perfmodel.EfficiencyRow `json:"efficiency,omitempty"`
	}{rep, eff}); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmeasured phases (%.3fs total, STREAM %.0f MB/s) -> %s\n",
		rep.TotalSeconds, rep.StreamMBps, path)
	fmt.Printf("%12s %8s %10s %10s %10s %8s\n", "phase", "calls", "seconds", "Mflop/s", "MB/s", "STREAM")
	for _, st := range rep.Phases {
		fmt.Printf("%12s %8d %10.4f %10.0f %10.0f %7.0f%%\n",
			st.Phase, st.Calls, st.Seconds, st.Mflops, st.MBps, 100*st.StreamFraction)
	}
}

// printModeledVsMeasured compares the virtual machine's modeled phase
// mix with the measured one, in the machine.Report taxonomy. The
// measured scatter/wait buckets are filled by the distributed
// efficiency sweep (scatter_pack and scatter_wait phases); without it
// the sequential execution leaves them empty.
func printModeledVsMeasured(rep machine.Report) {
	cat := prof.Default.CategorySeconds()
	var measured float64
	for _, k := range []string{"compute", "scatter", "reduce", "wait"} {
		measured += cat[k]
	}
	fmt.Printf("\n%12s %12s %12s\n", "category", "modeled(s)", "measured(s)")
	fmt.Printf("%12s %12.3f %12.3f\n", "compute", rep.Compute, cat["compute"])
	fmt.Printf("%12s %12.3f %12.3f\n", "scatter", rep.Scatter, cat["scatter"])
	fmt.Printf("%12s %12.3f %12.3f\n", "reduce", rep.Reduce, cat["reduce"])
	fmt.Printf("%12s %12.3f %12.3f\n", "wait", rep.Wait, cat["wait"])
	fmt.Printf("%12s %12.3f %12.3f\n", "total", rep.Elapsed, measured)
}

func printHistory(steps []newton.Step) {
	fmt.Printf("%6s %14s %12s %8s %6s\n", "step", "residual", "CFL", "lin its", "order")
	for _, st := range steps {
		fmt.Printf("%6d %14.6e %12.1f %8d %6d\n", st.Index, st.Rnorm, st.CFL, st.LinearIts, st.Order)
	}
}
