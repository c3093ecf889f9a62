package main

import (
	"fmt"
	"math"

	"petscfun3d/internal/core"
	"petscfun3d/internal/dist"
	"petscfun3d/internal/euler"
	"petscfun3d/internal/ilu"
	"petscfun3d/internal/krylov"
	"petscfun3d/internal/mesh"
	"petscfun3d/internal/mpi"
	"petscfun3d/internal/newton"
	"petscfun3d/internal/par"
	"petscfun3d/internal/partition"
	"petscfun3d/internal/schwarz"
	"petscfun3d/internal/sparse"
)

// Every replayed kernel is called warmCalls times untimed and then
// timedCalls times; its *_s metric is the median of the timed calls.
const (
	warmCalls  = 2
	timedCalls = 9
)

// traced is the per-layer pass of one workload: kernel replays on the
// workload's own mesh, block size, fill, precision and partition, at
// the state of the first pseudo-timestep, plus the traced solves. Every
// layer is measured from outside, by timing calls into its exported
// functions.
type traced struct {
	w      *workload
	cfg    core.Config
	seed   uint64
	host   host
	tr     *tracer
	rng    *splitmix
	stream streamResult
	vals   map[string]float64
	// failures are output checks that did not hold; they fail the run.
	failures []string
}

func (l *traced) set(name string, v float64) { l.vals[name] = v }

func (l *traced) fail(format string, args ...any) {
	l.failures = append(l.failures, fmt.Sprintf(format, args...))
}

// perSecond is a computed count over a measured time, in millions: the
// MB/s and Mflop/s of the layer tables. Counts come only from the
// layers' exported *Flops/*Bytes formulas — computed, not measured.
func perSecond(count int64, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(count) / seconds / 1e6
}

// streamFrac is a computed MB/s as a share of the STREAM Triad rate.
func (l *traced) streamFrac(mbps float64) float64 {
	if l.stream.TriadMBps <= 0 {
		return 0
	}
	return mbps / l.stream.TriadMBps
}

// timeLoop is the replay loop: warmCalls untimed calls of f, then
// timedCalls timed ones, one span each (warm-ups carry a negative rep).
// enter, when non-nil, runs before every call: the barrier that lines
// the ranks of a message-passing replay up.
func (l *traced) timeLoop(id int, layer, name string, enter func(), counts map[string]float64, f func() error) ([]float64, error) {
	secs := make([]float64, 0, timedCalls)
	for i := -warmCalls; i < timedCalls; i++ {
		if enter != nil {
			enter()
		}
		s := l.tr.begin(id, -1, layer, name, i)
		err := f()
		d := l.tr.end(s, counts)
		if err != nil {
			return nil, fmt.Errorf("%s.%s: %w", layer, name, err)
		}
		if i >= 0 {
			secs = append(secs, d)
		}
	}
	return secs, nil
}

// timeCalls replays one kernel and returns the median seconds of the
// timed calls.
func (l *traced) timeCalls(layer, name string, f func() error) (float64, error) {
	secs, err := l.timeLoop(l.tr.newID(), layer, name, nil, nil, f)
	return median(secs), err
}

// timePar2 replays a two-worker kernel; with fewer than two cores the
// wall clock would time the scheduler, so the metric reads 0.
func (l *traced) timePar2(layer, name string, f func() error) (float64, error) {
	if l.host.oversubscribed() {
		return 0, f()
	}
	return l.timeCalls(layer, name, f)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// relDiff is ‖a−b‖/‖b‖.
func relDiff(a, b []float64) float64 {
	var num, den float64
	for i := range a {
		num += (a[i] - b[i]) * (a[i] - b[i])
		den += b[i] * b[i]
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

// emptyTask is one barrier of the worker pool and nothing else.
type emptyTask struct{}

func (emptyTask) RunShard(worker, nworkers int) {}

// replays measures every kernel layer.
func (l *traced) replays() error {
	cfg := l.cfg
	p, err := core.Build(cfg)
	if err != nil {
		return err
	}
	defer p.Close()
	pool2 := par.New(2)
	defer pool2.Close()
	d := p.Disc
	b, n := p.Sys.B(), d.N()

	if err := l.meshLayer(p); err != nil {
		return err
	}
	part2, err := l.partitionLayer(p)
	if err != nil {
		return err
	}

	// euler: the state of the first pseudo-timestep.
	t, err := l.timeCalls("euler", "disc_build", func() error {
		_, err := euler.NewDiscretization(p.Mesh, nil, p.Sys, d.Opts)
		return err
	})
	if err != nil {
		return err
	}
	l.set("euler.disc_build_s", t)
	q := d.FreestreamVector()
	r, r2 := make([]float64, n), make([]float64, n)
	t, _ = l.timeCalls("euler", "residual", func() error { d.Residual(q, r); return nil })
	l.set("euler.residual_s", t)
	l.set("euler.residual_mflops", perSecond(d.SweepFlops(), t))
	l.set("euler.residual_stream_frac", l.streamFrac(perSecond(d.SweepBytes(), t)))
	t, err = l.timePar2("euler", "residual_par2", func() error { return d.ResidualParallel(q, r2, pool2) })
	if err != nil {
		return err
	}
	l.set("euler.residual_par2_s", t)
	// The threaded sweep sums private copies, so it matches to rounding,
	// not bitwise.
	if diff := relDiff(r2, r); !(diff <= 1e-12) {
		l.fail("euler.ResidualParallel differs from Residual by %.3g", diff)
	}
	jac := d.JacobianPattern()
	t, err = l.timeCalls("euler", "jacobian", func() error { return d.AssembleJacobian(q, jac) })
	if err != nil {
		return err
	}
	l.set("euler.jacobian_s", t)
	l.set("euler.jacobian_mbps", perSecond(int64(p.Mesh.NumEdges())*euler.JacobianAssemblyBytes(b), t))
	newton.AddTimeDiagonal(jac, d.TimeScales(q), cfg.Newton.CFL0)

	// sparse.
	x, y, y2 := l.rng.vector(n), make([]float64, n), make([]float64, n)
	t, _ = l.timeCalls("sparse", "mulvec", func() error { jac.MulVec(x, y); return nil })
	l.set("sparse.mulvec_s", t)
	l.set("sparse.mulvec_mbps", perSecond(jac.MulVecBytes(), t))
	l.set("sparse.mulvec_stream_frac", l.streamFrac(perSecond(jac.MulVecBytes(), t)))
	t, _ = l.timePar2("sparse", "mulvec_par2", func() error { jac.MulVecPar(pool2, x, y2); return nil })
	l.set("sparse.mulvec_par2_s", t)
	if !sameBits(y2, y) {
		l.fail("sparse.MulVecPar is not bitwise equal to MulVec")
	}
	csr := jac.ToCSR()
	t, _ = l.timeCalls("sparse", "csr_mulvec", func() error { csr.MulVec(x, y2); return nil })
	l.set("sparse.csr_mulvec_s", t)
	if diff := relDiff(y2, y); !(diff <= 1e-12) {
		l.fail("sparse CSR MulVec differs from BCSR by %.3g", diff)
	}
	l.set("sparse.jacobian_mb", float64(8*len(jac.Val)+4*len(jac.ColIdx)+4*len(jac.RowPtr))/1e6)

	// schwarz: the preconditioner the workload's own configuration builds.
	var pc *schwarz.Preconditioner
	factory := p.PCFactory(&pc)
	build := func() error { _, err := factory(jac); return err }
	t, err = l.timeCalls("schwarz", "new", build)
	if err != nil {
		return err
	}
	l.set("schwarz.new_s", t)
	mem := markMem()
	if err := build(); err != nil {
		return err
	}
	alloc, _, _ := mem.since()
	l.set("schwarz.new_alloc_mb", alloc)
	rhs, z := l.rng.vector(n), make([]float64, n)
	t, _ = l.timeCalls("schwarz", "apply", func() error { pc.Apply(rhs, z); return nil })
	l.set("schwarz.apply_s", t)
	l.set("schwarz.factor_blocks", float64(pc.FactorBlocks()))
	ghosts := 0
	for _, s := range pc.Subs {
		ghosts += s.GhostRows()
	}
	l.set("schwarz.ghost_rows", float64(ghosts))

	if err := l.iluLayer(pc.Subs[0].Local, pool2); err != nil {
		return err
	}
	if err := l.krylovLayer(p, jac, pc); err != nil {
		return err
	}
	l.parLayer(n, pool2)
	halos2 := partition.BuildHalos(p.Graph, &partition.Partition{NParts: 2, Part: part2})
	if err := l.mpiLayer(halos2, b); err != nil {
		return err
	}
	return l.distLayer(jac, part2, halos2)
}

func (l *traced) meshLayer(p *core.Problem) error {
	var raw *mesh.Mesh
	t, err := l.timeCalls("mesh", "generate", func() error {
		var err error
		raw, err = mesh.GenerateWingN(l.cfg.TargetVertices)
		return err
	})
	if err != nil {
		return err
	}
	l.set("mesh.generate_s", t)
	t, _ = l.timeCalls("mesh", "rcm", func() error { raw.Renumber(mesh.RCM(raw)); return nil })
	l.set("mesh.rcm_s", t)
	l.set("mesh.vertices", float64(p.Mesh.NumVertices()))
	l.set("mesh.edges", float64(p.Mesh.NumEdges()))
	l.set("mesh.bandwidth", float64(p.Mesh.Bandwidth()))
	return nil
}

// partitionLayer times the k-way partitioner at the workload's own part
// count (two where it has a single part) and returns the two-way
// partition the message-passing replays run on: never more ranks than
// the two cores the benchmark allows itself.
func (l *traced) partitionLayer(p *core.Problem) ([]int32, error) {
	nparts := l.cfg.Ranks
	if nparts < 2 {
		nparts = 2
	}
	var part *partition.Partition
	t, err := l.timeCalls("partition", "kway", func() error {
		var err error
		part, err = partition.KWay(p.Graph, nparts)
		return err
	})
	if err != nil {
		return nil, err
	}
	l.set("partition.kway_s", t)
	t, _ = l.timeCalls("partition", "halos", func() error { partition.BuildHalos(p.Graph, part); return nil })
	l.set("partition.halos_s", t)
	l.set("partition.edge_cut", float64(part.EdgeCut(p.Graph)))
	l.set("partition.imbalance", part.Imbalance())
	if nparts == 2 {
		return part.Part, nil
	}
	part2, err := partition.KWay(p.Graph, 2)
	if err != nil {
		return nil, err
	}
	return part2.Part, nil
}

// iluLayer replays factorization and triangular solves on the matrix
// the workload's first subdomain factors.
func (l *traced) iluLayer(a *sparse.BCSR, pool2 *par.Pool) error {
	opts := ilu.Options{Level: l.cfg.FillLevel, SinglePrecision: l.cfg.SinglePrecision}
	var f *ilu.Factorization
	factor := func() error {
		var err error
		f, err = ilu.Factor(a, opts)
		return err
	}
	t, err := l.timeCalls("ilu", "factor", factor)
	if err != nil {
		return err
	}
	l.set("ilu.factor_s", t)
	l.set("ilu.factor_mflops", perSecond(f.FactorFlops(), t))
	mem := markMem()
	if err := factor(); err != nil {
		return err
	}
	alloc, _, _ := mem.since()
	l.set("ilu.factor_alloc_mb", alloc)
	l.set("ilu.factor_nnzb", float64(f.NNZBlocks()))
	lv := f.LevelStats()
	l.set("ilu.level_depth", float64(lv.FwdLevels+lv.BwdLevels))

	// The same fill pattern in both storage precisions (Table 2).
	f64, err := ilu.Factor(a, ilu.Options{Level: opts.Level})
	if err != nil {
		return err
	}
	f32, err := ilu.Factor(a, ilu.Options{Level: opts.Level, SinglePrecision: true})
	if err != nil {
		return err
	}
	n := a.N()
	rhs := l.rng.vector(n)
	x64, x32, xs, xp := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	t, _ = l.timeCalls("ilu", "solve", func() error { f64.Solve(rhs, x64); return nil })
	l.set("ilu.solve_s", t)
	l.set("ilu.solve_mbps", perSecond(f64.SolveBytes(), t))
	l.set("ilu.solve_stream_frac", l.streamFrac(perSecond(f64.SolveBytes(), t)))
	t, _ = l.timeCalls("ilu", "solve32", func() error { f32.Solve(rhs, x32); return nil })
	l.set("ilu.solve32_s", t)
	if diff := relDiff(x32, x64); !(diff <= 1e-5) {
		l.fail("ilu float32 solve differs from float64 by %.3g", diff)
	}
	f.Solve(rhs, xs)
	t, _ = l.timePar2("ilu", "solve_par2", func() error { f.SolvePar(pool2, rhs, xp); return nil })
	l.set("ilu.solve_par2_s", t)
	if !sameBits(xp, xs) {
		l.fail("ilu.SolvePar is not bitwise equal to Solve")
	}
	return nil
}

// krylovLayer replays one GMRES solve with a zero tolerance (MaxIters
// iterations) on the assembled, time-augmented Jacobian. The operator and the
// preconditioner are wrapped in spans, so the solve's self time is the
// Krylov layer's own vector work.
func (l *traced) krylovLayer(p *core.Problem, jac *sparse.BCSR, pc *schwarz.Preconditioner) error {
	n := jac.N()
	opts := l.cfg.Newton.Krylov
	opts.RelTol, opts.AbsTol, opts.Pool = 0, 0, p.Pool
	rhs, x := l.rng.vector(n), make([]float64, n)
	id := l.tr.newID()
	var total, self []float64
	var st krylov.Stats
	for i := -warmCalls; i < timedCalls; i++ {
		for k := range x {
			x[k] = 0
		}
		root := l.tr.begin(id, -1, "krylov", "gmres", i)
		op := krylov.OperatorFunc(func(v, w []float64) {
			s := l.tr.begin(id, root, "sparse", "matvec", i)
			jac.MulVecPar(p.Pool, v, w)
			l.tr.end(s, nil)
		})
		pre := krylov.PrecondFunc(func(v, w []float64) {
			s := l.tr.begin(id, root, "schwarz", "pc_apply", i)
			pc.Apply(v, w)
			l.tr.end(s, nil)
		})
		var err error
		st, err = krylov.Solve(op, pre, rhs, x, opts)
		dur := l.tr.end(root, map[string]float64{"iterations": float64(st.Iterations)})
		if err != nil {
			return fmt.Errorf("krylov.gmres: %w", err)
		}
		if i >= 0 {
			kids := l.tr.childSeconds(root)
			total, self = append(total, dur), append(self, dur-kids["matvec"]-kids["pc_apply"])
		}
	}
	// A zero tolerance ends the solve only at MaxIters, or earlier on a
	// mesh so small that the residual reaches zero first.
	if st.Iterations == 0 {
		l.fail("krylov replay ran no iterations")
	}
	l.set("krylov.gmres_s", median(total))
	l.set("krylov.self_s", median(self))
	l.set("krylov.inner_prods", float64(st.InnerProds))
	l.set("krylov.reductions", float64(st.Reductions))
	return nil
}

// parLayer replays the worker pool's barrier and the fused multi-vector
// kernels at the Krylov basis size.
func (l *traced) parLayer(n int, pool2 *par.Pool) {
	const k, barriers = 20, 1000
	t, _ := l.timePar2("par", "run", func() error {
		for i := 0; i < barriers; i++ {
			pool2.Run(emptyTask{})
		}
		return nil
	})
	l.set("par.run_us", t/barriers*1e6)
	vs := make([][]float64, k)
	for i := range vs {
		vs[i] = l.rng.vector(n)
	}
	x := l.rng.vector(n)
	out, out2 := make([]float64, k), make([]float64, k)
	t, _ = l.timeCalls("par", "mdot", func() error { par.MDot(nil, x, vs, out); return nil })
	l.set("par.mdot_s", t)
	l.set("par.mdot_stream_frac", l.streamFrac(perSecond(par.MDotBytes(k, n), t)))
	t, _ = l.timePar2("par", "mdot_par2", func() error { par.MDot(pool2, x, vs, out2); return nil })
	l.set("par.mdot_par2_s", t)
	if !sameBits(out2, out) {
		l.fail("par.MDot on two workers is not bitwise equal to one")
	}
	// Small coefficients keep y bounded over the repeated sweeps.
	alphas := l.rng.vector(k)
	for i := range alphas {
		alphas[i] *= 1e-3
	}
	y, y2 := append([]float64(nil), x...), append([]float64(nil), x...)
	par.MAxpy(nil, alphas, vs, y)
	par.MAxpy(pool2, alphas, vs, y2)
	if !sameBits(y2, y) {
		l.fail("par.MAxpy on two workers is not bitwise equal to one")
	}
	t, _ = l.timeCalls("par", "maxpy", func() error { par.MAxpy(nil, alphas, vs, y); return nil })
	l.set("par.maxpy_s", t)
	t, _ = l.timePar2("par", "maxpy_par2", func() error { par.MAxpy(pool2, alphas, vs, y2); return nil })
	l.set("par.maxpy_par2_s", t)
}

// mpiLayer replays the message-passing runtime's primitives between two
// ranks: an empty world, a one-double ping-pong, the batched reduction
// at the size one GMRES iteration sends, and the exchange of the real
// halo payload of the two-way partition.
func (l *traced) mpiLayer(halos []partition.Halo, b int) error {
	const rounds = 200
	t, err := l.timeCalls("mpi", "run", func() error {
		return mpi.Run(2, func(*mpi.Comm) error { return nil })
	})
	if err != nil {
		return err
	}
	l.set("mpi.run_ms", t*1e3)

	// A rank sends what its peer reads: one block per ghost vertex.
	payload := [2][]float64{l.rng.vector(halos[1].NumGhosts() * b), l.rng.vector(halos[0].NumGhosts() * b)}
	haloBytes := 8 * float64(len(payload[0])+len(payload[1]))

	var ping, reduce, halo []float64 // rank 0's clock
	id := l.tr.newID()
	err = mpi.Run(2, func(c *mpi.Comm) error {
		me, peer := c.Rank(), 1-c.Rank()
		rank := map[string]float64{"rank": float64(me)}
		one := []float64{1}
		vec, sum := make([]float64, 22), make([]float64, 22)
		// timeRounds times rounds repetitions of f per call, both ranks
		// entering together.
		timeRounds := func(name string, f func() error) ([]float64, error) {
			return l.timeLoop(id, "mpi", name, c.Barrier, rank, func() error {
				for k := 0; k < rounds; k++ {
					if err := f(); err != nil {
						return err
					}
				}
				return nil
			})
		}
		pp, err := timeRounds("pingpong", func() error {
			if me == 0 {
				c.Send(peer, mpi.TagHalo, one)
				_, err := c.Recv(peer, mpi.TagHalo)
				return err
			}
			_, err := c.Recv(peer, mpi.TagHalo)
			c.Send(peer, mpi.TagHalo, one)
			return err
		})
		if err != nil {
			return err
		}
		rd, err := timeRounds("allreduce", func() error { c.AllReduceSumVec(vec, sum); return nil })
		if err != nil {
			return err
		}
		hl, err := timeRounds("halo", func() error {
			recv := c.IRecv(peer, mpi.TagHalo)
			send := c.ISend(peer, mpi.TagHalo, payload[me])
			_, serr := send.Wait()
			got, rerr := recv.Wait()
			if serr != nil {
				return serr
			}
			if rerr == nil && len(got) != len(payload[peer]) {
				rerr = fmt.Errorf("halo payload of %d doubles, want %d", len(got), len(payload[peer]))
			}
			return rerr
		})
		if me == 0 {
			ping, reduce, halo = pp, rd, hl
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("mpi replay: %w", err)
	}
	l.set("mpi.pingpong_us", median(ping)/rounds*1e6)
	l.set("mpi.allreduce_us", median(reduce)/rounds*1e6)
	if t := median(halo) / rounds; t > 0 {
		l.set("mpi.halo_mbps", haloBytes/t/1e6)
	}
	return nil
}

// distLayer replays the distributed matrix kernels on two ranks. Each
// call's time is that of the slower rank.
func (l *traced) distLayer(jac *sparse.BCSR, part2 []int32, halos []partition.Halo) error {
	const ranks, its = 2, 30
	type perRank struct {
		newMatrix, blockJacobi, mulvec, gmres []float64
		stats                                 dist.GMRESStats
	}
	var got [ranks]perRank
	id := l.tr.newID()
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		me := c.Rank()
		out := &got[me]
		rank := map[string]float64{"rank": float64(me)}
		// timeRank times f on this rank, every rank entering together.
		timeRank := func(name string, f func() error) ([]float64, error) {
			return l.timeLoop(id, "dist", name, c.Barrier, rank, f)
		}
		var am *dist.Matrix
		var pcSolve func(r, z []float64)
		var err error
		if out.newMatrix, err = timeRank("new_matrix", func() error {
			var err error
			am, err = dist.NewMatrix(c, jac, part2)
			return err
		}); err != nil {
			return err
		}
		if out.blockJacobi, err = timeRank("block_jacobi", func() error {
			var err error
			pcSolve, err = am.BlockJacobi(ilu.Options{Level: l.cfg.FillLevel, SinglePrecision: l.cfg.SinglePrecision})
			return err
		}); err != nil {
			return err
		}
		n := am.LocalN()
		// A stream per rank: l.rng is not shared between goroutines.
		rng := newStream(l.seed, fmt.Sprintf("%s/rank%d", l.w.name, me))
		x, y, rhs := rng.vector(n), make([]float64, n), rng.vector(n)
		if out.mulvec, err = timeRank("mulvec", func() error { return am.MulVec(x, y) }); err != nil {
			return err
		}
		sol := make([]float64, n)
		out.gmres, err = timeRank("gmres", func() error {
			for k := range sol {
				sol[k] = 0
			}
			var err error
			out.stats, err = dist.GMRES(am, pcSolve, rhs, sol, dist.GMRESOptions{Restart: its, MaxIters: its})
			return err
		})
		return err
	})
	if err != nil {
		return fmt.Errorf("dist replay: %w", err)
	}
	slowest := func(pick func(*perRank) []float64) float64 {
		worst := make([]float64, timedCalls)
		for r := range got {
			for i, s := range pick(&got[r]) {
				worst[i] = math.Max(worst[i], s)
			}
		}
		return median(worst)
	}
	l.set("dist.new_matrix_s", slowest(func(r *perRank) []float64 { return r.newMatrix }))
	l.set("dist.block_jacobi_s", slowest(func(r *perRank) []float64 { return r.blockJacobi }))
	l.set("dist.mulvec_s", slowest(func(r *perRank) []float64 { return r.mulvec }))
	l.set("dist.gmres_s", slowest(func(r *perRank) []float64 { return r.gmres }))
	// One message per neighbour and one block per ghost vertex, summed
	// over the ranks.
	msgs, ghosts := 0, 0
	for _, h := range halos {
		msgs += len(h.Ghosts)
		ghosts += h.NumGhosts()
	}
	l.set("dist.halo_bytes", float64(8*jac.B*ghosts))
	l.set("dist.msgs_per_mulvec", float64(msgs))
	st := got[0].stats
	if st.Iterations == 0 {
		l.fail("dist GMRES replay ran no iterations")
	}
	l.set("dist.reductions_per_it", float64(st.Reductions)/math.Max(1, float64(st.Iterations)))
	return nil
}
