// Package prof is a lightweight wall-clock phase profiler for the real
// solver paths — the measured counterpart of the virtual machine's
// modeled accounting (internal/machine). Solver packages open a Span
// around each kernel (flux sweep, triangular solve, matvec, halo
// exchange, ...) and close it with the kernel's flop and byte counts;
// the report then gives, per phase, wall seconds, achieved Mflop/s and
// MB/s, and the fraction of the host's STREAM bandwidth the phase
// sustained — the paper's Table 2/3 roofline bookkeeping ("the
// triangular solves run at the memory-bandwidth limit") as a measurable
// assertion.
//
// Phases carry the same taxonomy as machine.Report (compute, ghost-point
// scatter, global reduction), so one table can compare the modeled and
// the measured phase mix of the same run.
//
// The profiler is disabled by default: a disabled Begin/End pair costs
// one atomic load and a branch, so instrumentation can stay in the hot
// paths permanently. Nesting accounting (self vs cumulative time)
// assumes spans are opened and closed on one goroutine while enabled;
// worker goroutines inside an instrumented region (e.g. the threaded
// flux sweep) must not open spans of their own — the caller's span
// covers them.
package prof

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Phase identifies one instrumented kernel or algorithm stage.
type Phase uint8

// The phase taxonomy. Compute phases mirror the cost-model charges in
// internal/core; Scatter and Reduce mirror machine.Report's
// communication buckets (measured on the real message-passing solver in
// internal/dist, where wait time is part of the blocking receive).
const (
	// PhaseNewton is the whole nonlinear solve (the root span); its self
	// time holds the Newton-loop overheads not claimed by a child phase
	// (pseudo-timestep scales, state updates, line-search bookkeeping).
	PhaseNewton Phase = iota
	// PhaseFlux is one residual evaluation's edge sweep (plus boundary
	// closure) — the paper's "function evaluation" phase.
	PhaseFlux
	// PhaseGradient is the least-squares gradient + limiter pass of the
	// second-order flux (a child of PhaseFlux).
	PhaseGradient
	// PhaseJacobian is the first-order preconditioner Jacobian assembly.
	PhaseJacobian
	// PhasePCSetup is Schwarz preconditioner construction: subdomain
	// extraction (its self time) plus the nested ILU factorizations.
	PhasePCSetup
	// PhaseILUFactor is the block ILU(k) numeric+symbolic factorization.
	PhaseILUFactor
	// PhaseKrylov is one GMRES solve; its self time is the vector work
	// (basis scaling, solution update) not inside matvec/ortho/precond.
	PhaseKrylov
	// PhaseMatVec is one operator application inside GMRES (for the
	// matrix-free operator the nested PhaseFlux holds the real work).
	PhaseMatVec
	// PhaseOrtho is the Gram-Schmidt orthogonalization of one iteration.
	PhaseOrtho
	// PhasePCApply is one preconditioner application (restrict/prolong
	// self time; the triangular solves are the nested PhaseTriSolve).
	PhasePCApply
	// PhaseTriSolve is the ILU forward/backward triangular solve — the
	// phase the paper pins at the STREAM limit.
	PhaseTriSolve
	// PhaseScatter is a *blocking* ghost-point halo exchange in
	// internal/dist: send/recv time including the
	// implicit-synchronization wait for the partner to arrive, folded
	// into one number. The overlapped exchange splits this bucket into
	// PhaseScatterPack and PhaseScatterWait.
	PhaseScatter
	// PhaseReduce is a global reduction in internal/dist (including the
	// wait for the last rank).
	PhaseReduce
	// PhaseScatterPack is the pack/unpack half of an overlapped halo
	// exchange: staging owned values into per-peer send buffers, posting
	// the nonblocking sends/receives, and copying arrived values into the
	// ghost region. Pure local memory traffic — no waiting.
	PhaseScatterPack
	// PhaseScatterWait is the wait half of an overlapped halo exchange:
	// the time a rank blocks for ghost values still in flight after its
	// interior work ran out. This is the paper's implicit-synchronization
	// sink, measured separately from the scatter's data motion.
	PhaseScatterWait
	// PhaseInterior is the ghost-independent share of an overlapped
	// kernel (matrix rows or flux edges with no ghost dependence),
	// computed while the halo exchange is in flight.
	PhaseInterior
	// PhaseBoundary is the ghost-dependent remainder of an overlapped
	// kernel, computed after the halo exchange completes.
	PhaseBoundary
	numPhases
)

var phaseNames = [numPhases]string{
	"newton", "flux", "gradient", "jacobian", "pc_setup", "ilu_factor",
	"krylov", "matvec", "ortho", "pc_apply", "tri_solve",
	"scatter", "reduce",
	"scatter_pack", "scatter_wait", "interior", "boundary",
}

// String returns the phase's stable JSON/report name.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// PhaseNames returns the canonical phase taxonomy — the only names that
// can appear in reports and profile JSON. Tests assert emitted profiles
// stay within it.
func PhaseNames() []string {
	names := make([]string, numPhases)
	copy(names, phaseNames[:])
	return names
}

// IsPhaseName reports whether name belongs to the canonical taxonomy.
func IsPhaseName(name string) bool {
	for _, n := range phaseNames {
		if n == name {
			return true
		}
	}
	return false
}

// Category returns the machine.Report bucket the phase belongs to:
// "compute", "scatter" (ghost-point scatter data motion), "reduce"
// (global reductions), or "wait" (implicit synchronization — the time a
// rank blocks for in-flight ghost values). The blocking scatter phase
// folds its wait into "scatter"; the overlapped exchange separates the
// two, so the measured "wait" bucket lines up with machine.Report's
// implicit-synchronization column.
func (p Phase) Category() string {
	switch p {
	case PhaseScatter, PhaseScatterPack:
		return "scatter"
	case PhaseReduce:
		return "reduce"
	case PhaseScatterWait:
		return "wait"
	default:
		return "compute"
	}
}

// counters accumulates one phase's totals.
type counters struct {
	calls  int64
	cumNS  int64 // inclusive wall time
	selfNS int64 // exclusive wall time (children subtracted)
	flops  int64
	bytes  int64
	// threads is the largest worker count a span of this phase reported
	// via NoteThreads (0 when the phase never ran threaded).
	threads int64
}

// frame is one open span on the nesting stack.
type frame struct {
	phase   Phase
	start   time.Time
	childNS int64
}

// Profiler accumulates phase timings. The zero value is a valid,
// disabled profiler.
type Profiler struct {
	enabled atomic.Bool

	mu    sync.Mutex
	stack []frame
	ph    [numPhases]counters
	// rootNS is the total wall time covered by top-level spans — the
	// denominator of phase-share percentages and (exactly) the sum of
	// all phases' self time.
	rootNS int64
}

// Default is the process-wide profiler the solver packages report to.
// Enable it around a run, then read Default.Report.
var Default = &Profiler{}

// New returns a fresh, disabled profiler (internal/dist gives each rank
// its own and merges them afterwards).
func New() *Profiler { return &Profiler{} }

// Enable starts accepting spans.
func (p *Profiler) Enable() { p.enabled.Store(true) }

// Disable stops accepting spans; open spans are dropped.
func (p *Profiler) Disable() {
	p.enabled.Store(false)
	p.mu.Lock()
	p.stack = p.stack[:0]
	p.mu.Unlock()
}

// Enabled reports whether spans are being recorded.
func (p *Profiler) Enabled() bool { return p.enabled.Load() }

// Reset clears all accumulated counters (and any open spans).
func (p *Profiler) Reset() {
	p.mu.Lock()
	p.stack = p.stack[:0]
	p.ph = [numPhases]counters{}
	p.rootNS = 0
	p.mu.Unlock()
}

// Span is an open phase measurement. The zero Span (returned when the
// profiler is disabled or nil) is inert: End on it does nothing.
type Span struct {
	p     *Profiler
	phase Phase
}

// Begin opens a span for phase. Close it with End. When the profiler is
// disabled the cost is one atomic load.
func (p *Profiler) Begin(phase Phase) Span {
	if p == nil || !p.enabled.Load() {
		return Span{}
	}
	p.mu.Lock()
	p.stack = append(p.stack, frame{phase: phase, start: time.Now()})
	p.mu.Unlock()
	return Span{p: p, phase: phase}
}

// End closes the span, charging the elapsed wall time to its phase
// (inclusive, and exclusive of any nested spans) together with the
// kernel's floating-point operation and memory-traffic counts (pass
// zeros when unknown; nested spans carry the real work's counts).
func (s Span) End(flops, bytes int64) {
	p := s.p
	if p == nil {
		return
	}
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	// Find this span's frame. Normally it is the top of the stack; if a
	// nested span leaked (opened but never closed — the bug the profspan
	// analyzer exists to prevent), unwind past the leaked frames so one
	// leak does not silently discard this End and corrupt every ancestor
	// phase's accounting. Leaked frames are dropped uncharged (their
	// counts never arrived); their wall time folds into this span's self
	// time. Searching from the top finds the innermost frame, so nested
	// same-phase spans (recursion) still pair correctly.
	idx := -1
	for i := len(p.stack) - 1; i >= 0; i-- {
		if p.stack[i].phase == s.phase {
			idx = i
			break
		}
	}
	if idx < 0 {
		return // no live Begin: disabled while open, or misuse
	}
	top := p.stack[idx]
	p.stack = p.stack[:idx]
	elapsed := now.Sub(top.start).Nanoseconds()
	if elapsed < 0 {
		elapsed = 0
	}
	c := &p.ph[s.phase]
	c.calls++
	c.cumNS += elapsed
	self := elapsed - top.childNS
	if self < 0 {
		self = 0
	}
	c.selfNS += self
	c.flops += flops
	c.bytes += bytes
	if len(p.stack) > 0 {
		p.stack[len(p.stack)-1].childNS += elapsed
	} else {
		p.rootNS += elapsed
	}
}

// NoteThreads records that phase's kernel ran on n pool workers, so the
// report can attribute thread counts to the phases the worker pool
// accelerates. Workers themselves never open spans (the caller's span
// covers them — see the package comment); the caller notes the worker
// count alongside its span instead. The per-phase value is the maximum
// seen, surviving Merge across rank profilers.
func (p *Profiler) NoteThreads(phase Phase, n int) {
	if p == nil || !p.enabled.Load() || int(phase) >= len(p.ph) {
		return
	}
	p.mu.Lock()
	if int64(n) > p.ph[phase].threads {
		p.ph[phase].threads = int64(n)
	}
	p.mu.Unlock()
}

// Merge adds o's accumulated counters into p (used to combine the
// per-rank profilers of a distributed run). Open spans in o are ignored.
func (p *Profiler) Merge(o *Profiler) {
	if o == nil || o == p {
		return
	}
	o.mu.Lock()
	ph := o.ph
	rootNS := o.rootNS
	o.mu.Unlock()
	p.mu.Lock()
	for i := range p.ph {
		p.ph[i].calls += ph[i].calls
		p.ph[i].cumNS += ph[i].cumNS
		p.ph[i].selfNS += ph[i].selfNS
		p.ph[i].flops += ph[i].flops
		p.ph[i].bytes += ph[i].bytes
		if ph[i].threads > p.ph[i].threads {
			p.ph[i].threads = ph[i].threads
		}
	}
	p.rootNS += rootNS
	p.mu.Unlock()
}

// PhaseStat is one phase's row of the report. Seconds is exclusive
// (self) time — the time the phase's own kernel ran, with nested phases
// subtracted — so the Seconds of all phases sum to TotalSeconds.
// CumulativeSeconds is inclusive. The bandwidth/flop rates are computed
// against self time, since the flop/byte counts describe the phase's
// own kernel.
type PhaseStat struct {
	Phase             string  `json:"phase"`
	Category          string  `json:"category"`
	Calls             int64   `json:"calls"`
	Seconds           float64 `json:"seconds"`
	CumulativeSeconds float64 `json:"cumulative_seconds"`
	Flops             int64   `json:"flops"`
	Bytes             int64   `json:"bytes"`
	Mflops            float64 `json:"mflops"`
	MBps              float64 `json:"mbps"`
	// StreamFraction is achieved bandwidth over the host's measured
	// STREAM Triad bandwidth (0 when no STREAM number was supplied).
	// The paper's roofline check: a value near 1 for tri_solve means
	// the triangular solve runs at the memory-bandwidth limit.
	StreamFraction float64 `json:"stream_fraction"`
	// Threads is the largest worker-pool size this phase's kernel ran on
	// (0 when the phase never ran threaded) — the node-level parallelism
	// attribution of the hybrid ranks×threads runs.
	Threads int64 `json:"threads,omitempty"`
}

// Report is the stable-schema profile ("petscfun3d-profile/1") written
// by the -profile-json flags and the bench baseline.
type Report struct {
	Schema string `json:"schema"`
	// TotalSeconds is the wall time covered by top-level spans (the
	// whole solve when PhaseNewton wraps it); phase Seconds sum to it
	// exactly.
	TotalSeconds float64 `json:"total_seconds"`
	// StreamMBps is the host STREAM Triad bandwidth used for the
	// roofline fractions (0 if not measured).
	StreamMBps float64     `json:"stream_mbps"`
	Phases     []PhaseStat `json:"phases"`
}

// Report summarizes the accumulated phases. streamBps is the host's
// STREAM Triad bandwidth in bytes/s (pass 0 to skip roofline
// fractions); phases with no recorded calls are omitted.
func (p *Profiler) Report(streamBps float64) Report {
	p.mu.Lock()
	ph := p.ph
	rootNS := p.rootNS
	p.mu.Unlock()
	rep := Report{
		Schema:       "petscfun3d-profile/1",
		TotalSeconds: float64(rootNS) / 1e9,
		StreamMBps:   streamBps / 1e6,
	}
	for i := Phase(0); i < numPhases; i++ {
		c := ph[i]
		if c.calls == 0 {
			continue
		}
		st := PhaseStat{
			Phase:             i.String(),
			Category:          i.Category(),
			Calls:             c.calls,
			Seconds:           float64(c.selfNS) / 1e9,
			CumulativeSeconds: float64(c.cumNS) / 1e9,
			Flops:             c.flops,
			Bytes:             c.bytes,
			Threads:           c.threads,
		}
		if c.selfNS > 0 {
			sec := float64(c.selfNS) / 1e9
			st.Mflops = float64(c.flops) / sec / 1e6
			st.MBps = float64(c.bytes) / sec / 1e6
			if streamBps > 0 {
				st.StreamFraction = float64(c.bytes) / sec / streamBps
			}
		}
		rep.Phases = append(rep.Phases, st)
	}
	return rep
}

// CategorySeconds sums self time per machine.Report bucket — the
// measured side of a modeled-vs-measured phase-mix table.
func (p *Profiler) CategorySeconds() map[string]float64 {
	out := map[string]float64{}
	for _, st := range p.Report(0).Phases {
		out[st.Category] += st.Seconds
	}
	return out
}

// WriteJSON writes the report as indented JSON.
func (p *Profiler) WriteJSON(w io.Writer, streamBps float64) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p.Report(streamBps))
}

// Package-level conveniences over Default.

// Begin opens a span on the default profiler.
func Begin(phase Phase) Span { return Default.Begin(phase) }

// NoteThreads records a phase's worker count on the default profiler.
func NoteThreads(phase Phase, n int) { Default.NoteThreads(phase, n) }

// Enabled reports whether the default profiler records spans.
func Enabled() bool { return Default.Enabled() }
