// Package krylov implements the restarted GMRES(m) Krylov solver with
// right preconditioning and a choice of Gram-Schmidt orthogonalizations
// — the linear solver inside every Newton step of the application, on
// one address space (Solve) or on vectors distributed over several
// (SolveOn with a Space whose Sum is set; internal/dist's GMRES is that
// caller), in a Workspace a caller keeps across the solves of one Newton
// iteration. The operator is an interface, so both assembled matrices
// and the paper's matrix-free finite-difference Jacobian plug in.
package krylov

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"petscfun3d/internal/par"
	"petscfun3d/internal/prof"
)

// Operator applies a linear map y = A x.
type Operator interface {
	Apply(x, y []float64)
}

// Preconditioner applies z = M⁻¹ r.
type Preconditioner interface {
	Apply(r, z []float64)
}

// OperatorFunc adapts a function to Operator.
type OperatorFunc func(x, y []float64)

// Apply implements Operator.
func (f OperatorFunc) Apply(x, y []float64) { f(x, y) }

// PrecondFunc adapts a function to Preconditioner.
type PrecondFunc func(r, z []float64)

// Apply implements Preconditioner.
func (f PrecondFunc) Apply(r, z []float64) { f(r, z) }

// Identity is the no-op preconditioner.
type Identity struct{}

// Apply implements Preconditioner.
func (Identity) Apply(r, z []float64) { copy(z, r) }

// Orthogonalizations lists the accepted Options.Orthogonalization
// names; the first is the default, which the empty string selects
// (Options.Mechanism).
var Orthogonalizations = []string{"cgs", "mgs", "cgs2", "cgs1"}

// Options configures a GMRES solve.
type Options struct {
	// Restart is the Krylov subspace dimension m of GMRES(m). The paper
	// uses 10-30 (GMRES(20) for Table 4).
	Restart int
	// MaxIters caps the total iterations across restarts (10 for the
	// smallest problems to 80 for the largest, per the paper).
	MaxIters int
	// RelTol is the relative residual convergence tolerance (the paper's
	// inner tolerance: 0.001-0.01).
	RelTol float64
	// AbsTol is the absolute residual tolerance.
	AbsTol float64
	// Orthogonalization selects the Gram-Schmidt variant, one of
	// Orthogonalizations ("" is the first, see Mechanism): "cgs"
	// (classical, the default and PETSc's — all j+1 products from one
	// fused par.MDot pass over w and all subtractions from one
	// par.MAxpy sweep: 2 rounds and ~2.5× less memory traffic per
	// iteration; slightly less stable), "mgs" (modified — j+1
	// sequential inner products per iteration, j+2 reduction rounds),
	// "cgs2" (classical with one selective DGKS reorthogonalization
	// pass — the pre-projection ‖w‖² rides the same fused pass, and a
	// second MDot/MAxpy round runs only when the projection cancelled
	// more than half of w's mass; CGS speed with MGS-class
	// orthogonality), or "cgs1" (classical with ONE round per
	// iteration: the post-projection norm is derived from the batch
	// instead of reduced again — what internal/dist runs, where a round
	// is a global synchronization).
	// The paper lists the orthogonalization mechanism among the Krylov
	// tunables.
	Orthogonalization string
	// Pool is the node-level worker pool for the solver's vector
	// reductions and updates (dot, norm, axpy). The reductions use a
	// fixed-shape segmented accumulation, so residual histories are
	// bitwise identical at every worker count; nil runs sequentially.
	Pool *par.Pool
}

// DefaultOptions mirror the paper's customary settings.
func DefaultOptions() Options {
	return Options{Restart: 20, MaxIters: 80, RelTol: 1e-2, AbsTol: 1e-30}
}

// Mechanism is the orthogonalization a solve with these options runs:
// Orthogonalization, or the default Orthogonalizations[0] when it is "".
func (o Options) Mechanism() string {
	if o.Orthogonalization == "" {
		return Orthogonalizations[0]
	}
	return o.Orthogonalization
}

// Validate rejects settings no solve can honor, naming the field.
func (o Options) Validate() error {
	if o.Restart < 1 || o.MaxIters < 1 {
		return fmt.Errorf("krylov: need positive Restart and MaxIters (got %d, %d)", o.Restart, o.MaxIters)
	}
	if o.Orthogonalization != "" && !slices.Contains(Orthogonalizations, o.Orthogonalization) {
		return fmt.Errorf("krylov: unknown Orthogonalization %q (want %s)",
			o.Orthogonalization, strings.Join(Orthogonalizations, ", "))
	}
	return nil
}

// Stats reports the work performed by a solve, the inputs of the
// parallel-cost model (each iteration costs one operator apply, one
// preconditioner apply, and ~m/2 inner products for orthogonalization).
// InnerProds counts the n-length dot products of the orthogonalization
// steps; Reductions counts those steps' synchronizing reduction rounds
// (pool barriers on one address space, global reductions on several) —
// "mgs" pays one round per product where the fused paths batch a whole
// column into one, which is exactly the distinction the parallel-cost
// model's reduction term needs. The residual norms (one at the start
// and one per restart) are in neither count; dist.GMRESStats.Reductions
// adds them.
type Stats struct {
	Iterations   int
	MatVecs      int
	PrecondApps  int
	InnerProds   int
	Reductions   int
	Restarts     int
	Converged    bool
	InitialNorm  float64
	ResidualNorm float64
}

// NonFiniteError reports that a residual norm the iteration steers by
// came out NaN or infinite — the operator or the preconditioner
// produced a non-finite vector. Iteration is the 1-based iteration that
// saw it (0: the initial residual). x holds the iterate of the last
// completed restart cycle.
type NonFiniteError struct {
	Iteration int
	Quantity  string
	Value     float64
}

func (e *NonFiniteError) Error() string {
	return fmt.Sprintf("krylov: %s is %g at iteration %d", e.Quantity, e.Value, e.Iteration)
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// nonFinite builds the error off the iteration's hot path.
//
//go:noinline
func nonFinite(iteration int, quantity string, v float64) error {
	return &NonFiniteError{Iteration: iteration, Quantity: quantity, Value: v}
}

// Space says where a solve's vectors live. The solver never sees more
// than that: it works on the slices it is handed and makes every inner
// product global through Sum.
type Space struct {
	// Sum replaces each entry of buf by its sum over every address space
	// holding a part of the vectors, identically on all of them, in one
	// synchronizing round (mpi.Comm.AllReduceSumVec in place). nil: the
	// slices are the whole vectors.
	Sum func(buf []float64)
	// Prof receives the solve's phase spans (nil: none).
	Prof *prof.Profiler
}

// Solve runs right-preconditioned GMRES(m) on A x = b in one address
// space, updating x in place (its incoming value is the initial guess).
// Returns solve statistics; an error for malformed inputs or a
// *NonFiniteError. It is (*Workspace).Solve on a fresh Workspace.
func Solve(a Operator, m Preconditioner, b, x []float64, opts Options) (Stats, error) {
	return new(Workspace).Solve(a, m, b, x, opts)
}

// Workspace is the memory of a GMRES solve — basis slab, Hessenberg,
// rotation arrays, batch list — kept so a sequence of solves (the
// Newton steps of one nonlinear solve) allocates it once. The zero
// value is ready; it re-fits itself when the vector length or
// Options.Restart change, and a solve's result never depends on what
// earlier solves left in it. A Workspace serves one solve at a time.
type Workspace struct {
	gmres                  // the solve in progress, and the buffers it orthogonalizes with
	z, r         []float64 // n-vectors beside the basis and w
	cs, sn, g, y []float64 // rotations, rotated right-hand side, triangular solution
}

// fit sizes the buffers for n-vectors and restart length mr, and the
// pool's reduction scratch for the largest batch such a solve issues.
func (ws *Workspace) fit(n, mr int, pool *par.Pool) {
	pool.ReserveMDot(mr + 2)
	if ws.n == n && len(ws.v) == mr+1 {
		return
	}
	// One contiguous slab per shape keeps the basis rows adjacent in
	// memory: the n-vectors (basis v[0..mr], then z, r, w), the
	// Hessenberg h[i][j] (row i 0..mr, column j 0..mr-1), and the
	// restart-length arrays.
	vecs, short := slab(mr+4, n), slab(7, mr+3)
	ws.n, ws.v, ws.h = n, vecs[:mr+1], slab(mr+1, mr)
	ws.z, ws.r, ws.w = vecs[mr+1], vecs[mr+2], vecs[mr+3]
	ws.cs, ws.sn, ws.g, ws.y = short[0], short[1], short[2], short[3]
	ws.hcol, ws.hneg, ws.vnrm = short[4], short[5], short[6]
	ws.batch = make([][]float64, mr+2)
}

// Reserve sizes the workspace for the solves opts describes on
// n-vectors, so that a caller can place the allocation.
func (ws *Workspace) Reserve(n int, opts Options) { ws.fit(n, opts.Restart, opts.Pool) }

// Solve is SolveOn in one address space: a's products run inside a
// matvec span of the process-wide profiler, m (nil: none) preconditions.
func (ws *Workspace) Solve(a Operator, m Preconditioner, b, x []float64, opts Options) (Stats, error) {
	if m == nil {
		m = Identity{}
	}
	return ws.SolveOn(Space{Prof: prof.Default}, func(x, y []float64) error {
		sp := prof.Begin(prof.PhaseMatVec)
		a.Apply(x, y)
		sp.End(0, 0) // the operator's own phases (e.g. flux) carry the work
		return nil
	}, m.Apply, b, x, opts)
}

// SolveOn is the GMRES(m) iteration itself, on vectors that live in
// sp: b and x are this address space's parts, apply and pc (nil: none)
// act on such parts, and with sp.Sum set every address space calls
// SolveOn collectively and takes identical decisions, because each sees
// the same reduced values. apply opens its own matvec span.
func (ws *Workspace) SolveOn(sp Space, apply func(x, y []float64) error, pc func(r, z []float64), b, x []float64, opts Options) (Stats, error) {
	n := len(b)
	if len(x) != n {
		return Stats{}, fmt.Errorf("krylov: len(x)=%d, len(b)=%d", len(x), n)
	}
	if err := opts.Validate(); err != nil {
		return Stats{}, err
	}
	if pc == nil {
		pc = Identity{}.Apply
	}
	ksp := sp.Prof.Begin(prof.PhaseKrylov)
	defer ksp.End(0, 0)
	mr, mech := opts.Restart, opts.Mechanism()
	ws.fit(n, mr, opts.Pool)

	s := &ws.gmres
	s.sp, s.pool, s.apply, s.st = sp, opts.Pool, apply, Stats{}
	z, r, w := ws.z, ws.r, ws.w
	cs, sn, g, y, vnrm := ws.cs, ws.sn, ws.g, ws.y, s.vnrm
	v, h := s.v, s.h
	// vnrm is the only state a solve reads before writing it.
	for i := range vnrm {
		vnrm[i] = 1
	}

	beta, err := s.residual(b, x, r)
	if err != nil {
		return s.st, err
	}
	s.st.InitialNorm, s.st.ResidualNorm = beta, beta
	target := max(opts.RelTol*beta, opts.AbsTol)
	for {
		// Start (re)cycle from the true residual.
		if !finite(beta) {
			return s.st, nonFinite(s.st.Iterations, "residual norm", beta)
		}
		if beta <= target {
			s.st.ResidualNorm = beta
			s.st.Converged = true
			return s.st, nil
		}
		scaleInto(v[0], r, 1/beta)
		clear(g)
		g[0] = beta

		j := 0
		for ; j < mr && s.st.Iterations < opts.MaxIters; j++ {
			s.st.Iterations++
			// w = A M^{-1} v_j.
			pc(v[j], z)
			s.st.PrecondApps++
			if err := apply(z, w); err != nil {
				return s.st, err
			}
			s.st.MatVecs++
			osp := sp.Prof.Begin(prof.PhaseOrtho)
			sp.Prof.NoteThreads(prof.PhaseOrtho, opts.Pool.Workers())
			s.flops, s.bytes = 0, 0
			hn := s.orthogonalize(mech, j)
			if hn > 1e-300 {
				scaleInto(v[j+1], w, 1/hn)
			} else {
				// Happy breakdown: exact solution in this subspace.
				clear(v[j+1])
			}
			// The span's charge is the sum over the vector kernels the
			// step called (dots and maxpy add theirs) plus the basis scale.
			osp.End(s.flops+scaleFlops(n), s.bytes+scaleBytes(n))
			h[j+1][j] = hn
			// Apply accumulated Givens rotations to the new column.
			for i := 0; i < j; i++ {
				t := cs[i]*h[i][j] + sn[i]*h[i+1][j] //lint:bce-ok O(restart) Givens update down the Hessenberg column; row lengths are not provable and the loop is negligible next to the n-length sweeps
				h[i+1][j] = -sn[i]*h[i][j] + cs[i]*h[i+1][j]
				h[i][j] = t //lint:bce-ok O(restart) Givens update down the Hessenberg column; row lengths are not provable and the loop is negligible next to the n-length sweeps
			}
			// New rotation to zero h[j+1][j].
			denom := math.Hypot(h[j][j], h[j+1][j])
			if denom < 1e-300 {
				cs[j], sn[j] = 1, 0
			} else {
				cs[j] = h[j][j] / denom
				sn[j] = h[j+1][j] / denom
			}
			h[j][j] = cs[j]*h[j][j] + sn[j]*h[j+1][j]
			h[j+1][j] = 0
			g[j+1] = -sn[j] * g[j]
			g[j] = cs[j] * g[j]
			s.st.ResidualNorm = math.Abs(g[j+1])
			// A NaN or Inf anywhere in w reaches hn, and from hn the
			// rotation: this one test sees them all.
			if !finite(s.st.ResidualNorm) {
				return s.st, nonFinite(s.st.Iterations, "rotated residual", s.st.ResidualNorm)
			}
			if s.st.ResidualNorm <= target {
				j++
				break
			}
		}
		// Solve the j×j triangular system into y (every entry of y[:j]
		// is overwritten) and update x += M^{-1} V y.
		yj := y[:j] // bce: j never exceeds mr; one check here serves the back-substitution loops
		for i := j - 1; i >= 0; i-- {
			t := g[i]
			hi := h[i][:j] // bce: ties the row extent to j; prove then erases both checks in the k loop
			for k := i + 1; k < j; k++ {
				t -= hi[k] * yj[k]
			}
			if math.Abs(h[i][i]) < 1e-300 {
				y[i] = 0
			} else {
				y[i] = t / h[i][i]
			}
		}
		clear(z)
		// z = V y in one fused read-modify-write sweep (bitwise identical
		// to the per-vector Axpy sequence, one barrier instead of j).
		par.MAxpy(opts.Pool, yj, v[:j], z)
		pc(z, w)
		s.st.PrecondApps++
		par.Axpy(opts.Pool, 1, w, x)
		if s.st.ResidualNorm <= target {
			s.st.Converged = true
			return s.st, nil
		}
		if s.st.Iterations >= opts.MaxIters {
			return s.st, nil
		}
		s.st.Restarts++
		if beta, err = s.residual(b, x, r); err != nil {
			return s.st, err
		}
	}
}

// slab returns rows slices of cols entries carved from one allocation.
func slab(rows, cols int) [][]float64 {
	buf := make([]float64, rows*cols)
	out := make([][]float64, rows)
	for i := range out {
		out[i] = buf[i*cols : (i+1)*cols]
	}
	return out
}

// gmres is one solve's vector-side state: where the vectors live, the
// basis and the orthogonalization workspace (fitted to n by the
// Workspace that embeds it), and the counts the vector kernels report
// as they run.
type gmres struct {
	sp    Space
	pool  *par.Pool
	n     int
	apply func(x, y []float64) error
	st    Stats

	v, h  [][]float64 // basis rows; Hessenberg h[i][j]
	w     []float64   // the vector being orthogonalized
	hcol  []float64   // one dots batch: a Hessenberg column, then w·w and ‖v_j‖² when asked for
	hneg  []float64   // the negated coefficients maxpy subtracts with
	batch [][]float64 // basis + w, the vectors of one dots batch
	// vnrm[i] is ‖v_i‖² as the projections divide by it: 1 — the basis
	// taken as normalized, a division that changes no bit — unless a
	// mechanism measures it ("cgs1").
	vnrm []float64
	// one and pair are dot's and axpy's one-entry batch.
	one  [1]float64
	pair [1][]float64
	// flops and bytes accumulate the open orthogonalization span's
	// charge: every kernel a step calls adds its par formula.
	flops, bytes int64
}

// residual sets r = b − A x and returns its global norm.
func (s *gmres) residual(b, x, r []float64) (float64, error) {
	if err := s.apply(x, r); err != nil {
		return 0, err
	}
	s.st.MatVecs++
	bs := b[:len(r)] // bce: ties len(bs) to len(r); the range index serves both unchecked
	for i := range r {
		r[i] = bs[i] - r[i]
	}
	return math.Sqrt(s.dot(r, r)), nil
}

// scaleInto sets dst = a·src.
func scaleInto(dst, src []float64, a float64) {
	dst = dst[:len(src)] // bce: ties len(dst) to len(src); the range index serves both unchecked
	for i := range src {
		dst[i] = src[i] * a
	}
}

// dots fills out[i] with the global x·vs[i] and, when u is set,
// out[len(vs)] with the global u·u: one fused par.MDot pass, at most one
// par.Dot, ONE Sum round for the whole batch. Both halves are
// deterministic (fixed-shape segmented local partials, rank-ordered
// elementwise combine), so each entry is bitwise what a scalar reduction
// of the same product gives. The local products are the open
// orthogonalization span's work at every rank count; the reduce span is
// the Sum round alone — the wait for the last rank.
func (s *gmres) dots(x []float64, vs [][]float64, u, out []float64) {
	k, extra := len(vs), 0
	par.MDot(s.pool, x, vs, out)
	if u != nil {
		extra = 1
		out[k] = par.Dot(s.pool, u, u)
	}
	s.flops += dotsFlops(k, extra, s.n)
	s.bytes += dotsBytes(k, extra, s.n)
	if s.sp.Sum != nil {
		rsp := s.sp.Prof.Begin(prof.PhaseReduce)
		s.sp.Sum(out[:k+extra])
		rsp.End(0, sumBytes(k+extra))
	}
}

// dot returns the global x·y: a one-vector dots batch.
func (s *gmres) dot(x, y []float64) float64 {
	s.pair[0] = y
	s.dots(x, s.pair[:], nil, s.one[:])
	return s.one[0]
}

// norm returns the global ‖x‖ as one product and one round of an
// orthogonalization step.
func (s *gmres) norm(x []float64) float64 {
	s.st.InnerProds++
	s.st.Reductions++
	return math.Sqrt(s.dot(x, x))
}

// maxpy computes y += Σ alphas[i]·vs[i] in one fused sweep, charged to
// the open orthogonalization span.
func (s *gmres) maxpy(alphas []float64, vs [][]float64, y []float64) {
	par.MAxpy(s.pool, alphas, vs, y)
	s.flops += par.MAxpyFlops(len(vs), s.n)
	s.bytes += par.MAxpyBytes(len(vs), s.n)
}

// axpy computes y += a·x: a one-vector maxpy.
func (s *gmres) axpy(a float64, x, y []float64) {
	s.one[0], s.pair[0] = a, x
	s.maxpy(s.one[:], s.pair[:], y)
}

// orthogonalize projects w against v[0..j] by the named mechanism (one
// of Orthogonalizations; Options.Mechanism resolves ""), filling rows
// 0..j of Hessenberg column j, and returns the global ‖w‖ left after
// the projection (the column's row j+1).
func (s *gmres) orthogonalize(mech string, j int) float64 {
	switch mech {
	case "cgs":
		s.fusedPass(j, false, nil, false)
		return s.norm(s.w)
	case "cgs2":
		// The pre-projection ‖w‖² rides the fused pass, so the
		// reorthogonalization decision costs no extra round.
		s.fusedPass(j, true, nil, false)
		wwPre := s.hcol[j+1]
		hn := s.norm(s.w)
		if hn*hn < 0.5*wwPre {
			// The projection cancelled more than half of w's mass
			// (‖w_after‖ < ‖w_before‖/√2, the DGKS criterion): one full
			// second pass, corrections folded into the column.
			s.fusedPass(j, false, nil, true)
			hn = s.norm(s.w)
		}
		return hn
	case "cgs1":
		// One round: the norm is derived from the batch, not reduced
		// again. v_{j+1} is then normalized by a derived norm, so its
		// true norm is 1 only to the derivation's accuracy; assumed 1,
		// that error would feed back through the next derived norm at
		// the projection's cancellation ratio and grow geometrically.
		// So each batch also measures ‖v_j‖² and the projection divides
		// by it (DESIGN.md §9). The clamp covers cancellation at
		// breakdown; every address space derives the same value.
		return math.Sqrt(max(s.fusedPass(j, true, s.v[j], false), 0))
	case "mgs":
		// Modified Gram-Schmidt: one round per basis vector, w streamed
		// 2(j+1) times.
		vs := s.v[:j+1]
		for i, vi := range vs {
			hij := s.dot(s.w, vi)
			s.st.InnerProds++
			s.st.Reductions++
			s.h[i][j] = hij //lint:bce-ok one O(1) Hessenberg store per O(n) projection sweep; the row lengths are not provable
			s.axpy(-hij, vi, s.w)
		}
		return s.norm(s.w)
	}
	// Invariant: SolveOn validated the options and Mechanism resolved "", so mech is one of Orthogonalizations
	panic("krylov: unvalidated orthogonalization " + mech)
}

// fusedPass is one classical Gram-Schmidt pass on the fused kernels:
// every w·vᵢ — and, withNorm, w·w as the batch's last entry; and, with
// u set, u·u after it, stored as ‖v_j‖² — from ONE pass over w and one
// round; the coefficients hᵢ = (w·vᵢ)/‖vᵢ‖² stored into Hessenberg
// column j (added to it on a reorthogonalization pass); then one fused
// subtraction sweep. Same dots, same segmented partials as the
// per-vector path — bitwise identical to it — but w streams once per
// pass. Returns ‖w − Vh‖² = ‖w‖² − Σ hᵢ·(w·vᵢ), which holds because the
// coefficients came from this same w; meaningful only withNorm.
func (s *gmres) fusedPass(j int, withNorm bool, u []float64, add bool) float64 {
	vs := s.v[:j+1]
	batch := vs
	if withNorm {
		batch = s.batch[:j+2]
		copy(batch, vs)
		batch[j+1] = s.w
	}
	s.dots(s.w, batch, u, s.hcol)
	s.st.InnerProds += len(batch)
	s.st.Reductions++
	if u != nil {
		s.st.InnerProds++
		s.vnrm[j] = s.hcol[len(batch)]
	}
	t := s.hcol[j+1]
	hc := s.hcol[:j+1]
	hn := s.hneg[:len(hc)] // bce: ties len(hn) to len(hc); the range index serves both unchecked
	for i, di := range hc {
		hij := di / s.vnrm[i] //lint:bce-ok O(1) Hessenberg-column arithmetic per O(n) projection sweep; the extents are not provable
		if add {
			s.h[i][j] += hij //lint:bce-ok one O(1) Hessenberg update per O(n) correction sweep; the row lengths are not provable
		} else {
			s.h[i][j] = hij //lint:bce-ok one O(1) Hessenberg store per O(n) projection sweep; the row lengths are not provable
		}
		hn[i] = -hij
		t -= hij * di
	}
	s.maxpy(hn, vs, s.w)
	return t
}
