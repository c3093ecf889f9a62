package main

// metricDef names one metric. BENCHMARK.json at the repository root
// lists the same names, units and directions; bench_test.go holds the
// two together.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the baseline's median by which an
	// end-to-end metric may worsen before it counts as a regression;
	// per-layer metrics have none.
	Bound float64
}

// endToEndDefs are what a user of the solver sees, measured with
// tracing off, on every workload.
var endToEndDefs = []metricDef{
	{Name: "solve_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.02},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayerDefs are the traced pass's metrics, layer.name; a layer is a
// package under internal/. A metric whose layer a workload's solve
// never enters reads 0 there.
var perLayerDefs = []metricDef{
	{Name: "stream.triad_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "stream.array_mb", Unit: "MB", Better: "higher"},
	{Name: "stream.llc_mb", Unit: "MB", Better: "lower"},
	{Name: "stream.capped", Unit: "count", Better: "lower"},

	{Name: "mesh.generate_s", Unit: "s", Better: "lower"},
	{Name: "mesh.rcm_s", Unit: "s", Better: "lower"},
	{Name: "mesh.vertices", Unit: "count", Better: "lower"},
	{Name: "mesh.edges", Unit: "count", Better: "lower"},
	{Name: "mesh.bandwidth", Unit: "count", Better: "lower"},

	{Name: "partition.kway_s", Unit: "s", Better: "lower"},
	{Name: "partition.halos_s", Unit: "s", Better: "lower"},
	{Name: "partition.edge_cut", Unit: "count", Better: "lower"},
	{Name: "partition.imbalance", Unit: "ratio", Better: "lower"},

	{Name: "euler.disc_build_s", Unit: "s", Better: "lower"},
	{Name: "euler.residual_s", Unit: "s", Better: "lower"},
	{Name: "euler.residual_mflops", Unit: "Mflop/s", Better: "higher"},
	{Name: "euler.residual_stream_frac", Unit: "ratio", Better: "higher"},
	{Name: "euler.residual_par2_s", Unit: "s", Better: "lower"},
	{Name: "euler.jacobian_s", Unit: "s", Better: "lower"},
	{Name: "euler.jacobian_mbps", Unit: "MB/s", Better: "higher"},

	{Name: "sparse.mulvec_s", Unit: "s", Better: "lower"},
	{Name: "sparse.mulvec_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "sparse.mulvec_stream_frac", Unit: "ratio", Better: "higher"},
	{Name: "sparse.mulvec_par2_s", Unit: "s", Better: "lower"},
	{Name: "sparse.csr_mulvec_s", Unit: "s", Better: "lower"},
	{Name: "sparse.jacobian_mb", Unit: "MB", Better: "lower"},

	{Name: "ilu.factor_s", Unit: "s", Better: "lower"},
	{Name: "ilu.factor_mflops", Unit: "Mflop/s", Better: "higher"},
	{Name: "ilu.factor_alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "ilu.factor_nnzb", Unit: "count", Better: "lower"},
	{Name: "ilu.solve_s", Unit: "s", Better: "lower"},
	{Name: "ilu.solve_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "ilu.solve_stream_frac", Unit: "ratio", Better: "higher"},
	{Name: "ilu.solve32_s", Unit: "s", Better: "lower"},
	{Name: "ilu.solve_par2_s", Unit: "s", Better: "lower"},
	{Name: "ilu.level_depth", Unit: "count", Better: "lower"},

	{Name: "schwarz.new_s", Unit: "s", Better: "lower"},
	{Name: "schwarz.new_alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "schwarz.apply_s", Unit: "s", Better: "lower"},
	{Name: "schwarz.factor_blocks", Unit: "count", Better: "lower"},
	{Name: "schwarz.ghost_rows", Unit: "count", Better: "lower"},

	{Name: "krylov.gmres_s", Unit: "s", Better: "lower"},
	{Name: "krylov.self_s", Unit: "s", Better: "lower"},
	{Name: "krylov.inner_prods", Unit: "count", Better: "lower"},
	{Name: "krylov.reductions", Unit: "count", Better: "lower"},

	{Name: "newton.steps", Unit: "count", Better: "lower"},
	{Name: "newton.linear_its", Unit: "count", Better: "lower"},
	{Name: "newton.flux_evals", Unit: "count", Better: "lower"},
	{Name: "newton.final_reduction", Unit: "ratio", Better: "lower"},
	{Name: "newton.matvec_s", Unit: "s", Better: "lower"},
	{Name: "newton.pc_apply_s", Unit: "s", Better: "lower"},
	{Name: "newton.pc_build_s", Unit: "s", Better: "lower"},
	{Name: "newton.other_s", Unit: "s", Better: "lower"},

	{Name: "par.run_us", Unit: "us", Better: "lower"},
	{Name: "par.mdot_s", Unit: "s", Better: "lower"},
	{Name: "par.mdot_par2_s", Unit: "s", Better: "lower"},
	{Name: "par.maxpy_s", Unit: "s", Better: "lower"},
	{Name: "par.maxpy_par2_s", Unit: "s", Better: "lower"},
	{Name: "par.mdot_stream_frac", Unit: "ratio", Better: "higher"},

	{Name: "mpi.run_ms", Unit: "ms", Better: "lower"},
	{Name: "mpi.pingpong_us", Unit: "us", Better: "lower"},
	{Name: "mpi.allreduce_us", Unit: "us", Better: "lower"},
	{Name: "mpi.halo_mbps", Unit: "MB/s", Better: "higher"},

	{Name: "dist.new_matrix_s", Unit: "s", Better: "lower"},
	{Name: "dist.block_jacobi_s", Unit: "s", Better: "lower"},
	{Name: "dist.mulvec_s", Unit: "s", Better: "lower"},
	{Name: "dist.gmres_s", Unit: "s", Better: "lower"},
	{Name: "dist.halo_bytes", Unit: "count", Better: "lower"},
	{Name: "dist.msgs_per_mulvec", Unit: "count", Better: "lower"},
	{Name: "dist.reductions_per_it", Unit: "ratio", Better: "lower"},
	{Name: "dist.linear_its", Unit: "count", Better: "lower"},
	{Name: "dist.efficiency", Unit: "ratio", Better: "higher"},
	{Name: "dist.eta_alg", Unit: "ratio", Better: "higher"},
	{Name: "dist.eta_impl", Unit: "ratio", Better: "higher"},
	{Name: "dist.scatter_wait_s", Unit: "s", Better: "lower"},
	{Name: "dist.reduce_s", Unit: "s", Better: "lower"},
	{Name: "dist.rank_imbalance", Unit: "ratio", Better: "lower"},

	{Name: "prof.flux_s", Unit: "s", Better: "lower"},
	{Name: "prof.gradient_s", Unit: "s", Better: "lower"},
	{Name: "prof.jacobian_s", Unit: "s", Better: "lower"},
	{Name: "prof.pc_setup_s", Unit: "s", Better: "lower"},
	{Name: "prof.ilu_factor_s", Unit: "s", Better: "lower"},
	{Name: "prof.tri_solve_s", Unit: "s", Better: "lower"},
	{Name: "prof.pc_apply_s", Unit: "s", Better: "lower"},
	{Name: "prof.matvec_s", Unit: "s", Better: "lower"},
	{Name: "prof.ortho_s", Unit: "s", Better: "lower"},
	{Name: "prof.krylov_s", Unit: "s", Better: "lower"},
	{Name: "prof.newton_s", Unit: "s", Better: "lower"},
	{Name: "prof.reduce_s", Unit: "s", Better: "lower"},
	{Name: "prof.scatter_pack_s", Unit: "s", Better: "lower"},
	{Name: "prof.scatter_wait_s", Unit: "s", Better: "lower"},
	{Name: "prof.interior_s", Unit: "s", Better: "lower"},
	{Name: "prof.boundary_s", Unit: "s", Better: "lower"},
	{Name: "prof.coverage", Unit: "ratio", Better: "higher"},

	{Name: "runtime.first_solve_s", Unit: "s", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.solve_s", Unit: "s", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
	{Name: "trace.pass_s", Unit: "s", Better: "lower"},
}
