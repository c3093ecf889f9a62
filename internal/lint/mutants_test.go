package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The mutation scoreboard. Seven analyzers were retired because the
// tests already fail on what they flagged: the message protocol's
// (reqwait, tagconst), the worker pool's (ownwrite, fixedreduce,
// poollife), the hot-loop allocation rule (hotalloc) and the map-order
// reduction rule (detorder); so was codegen's heap-escape rule. Each row below seeds one defect of one rule
// of a retired or a kept analyzer into real solver code. `make mutants`
// (mutants_run_test.go, build tag `mutants`) applies each row through
// `go test -overlay`, so the tree is never written, and reports whether
// a test, the race detector or a runtime check fails on it.
// TestMutantTableCoversSites keeps the table complete: an analyzer rule,
// a pool task, a message call site or an overlap window with no rows
// fails it.

// mutant is one seeded defect.
type mutant struct {
	Analyzer string   // the analyzer whose rule the defect breaks
	Rule     string   // that rule
	Sites    []string // the audited sites it seeds (keys of auditedSites)
	File     string   // module-relative path of the file edited
	Edits    []edit   // applied in order; each Old must occur exactly once
	Pkgs     []string // packages whose tests run against the mutant
	Run      string   // their -run regex
	NoRace   bool     // run without -race: the test that catches it skips under the race detector
}

// edit replaces the one occurrence of Old by New.
type edit struct{ Old, New string }

// The rules seeded. The first group is the per-site audit; the rest are
// seeded where the rule can bite.
const (
	ruleOutOfStripe = "out-of-stripe write"
	ruleDroppedWait = "dropped Wait"
	ruleEarlyReturn = "early return before the sends are waited"
	ruleAsymTag     = "asymmetric tag"
	ruleCollective  = "collective in the window"
	ruleExchange    = "blocking Exchange in the window"

	ruleWorkerSum   = "worker-shaped sum"
	ruleFoldAssign  = "fold assigns a partial"
	ruleFoldOrder   = "fold out of segment order"
	ruleRunClosed   = "Run on a closed pool"
	ruleNestedRun   = "nested Run from a task"
	ruleCloseInRun  = "Close during Run"
	ruleSpawn       = "goroutine or channel op in a task"
	ruleBlockingMPI = "blocking mpi call in a task"
	ruleStaleTask   = "stale state in a reused task"

	ruleMakeInLoop    = "make in a hot loop"
	ruleAppendInLoop  = "append growth in a hot loop"
	ruleMapInLoop     = "map literal in a hot loop"
	ruleClosureInLoop = "closure in a hot loop"
	ruleMapOrderSum   = "float sum in map order"

	ruleDroppedError = "dropped error return"
	ruleLibraryPanic = "panic in library code"
	ruleLiteralCost  = "literal count fed to a span"
	ruleAdHocCost    = "count without a cost formula"
	ruleUnboundSpan  = "span not bound to a variable"
	ruleAdHocPhase   = "ad-hoc phase expression"
	ruleUnclosedSpan = "span never closed"
	ruleOpenReturn   = "return with the span open"
	ruleFormulaTerm  = "off-by-one term in a formula"
	ruleSplitFormula = "split formula disagrees with the whole"
	ruleHeapEscape   = "escaping hot-kernel variable"
	ruleBoundsCheck  = "bounds check in an innermost loop"
	ruleLostInline   = "lost inline"
)

// analyzerRules lists the rules each scored analyzer, kept or retired,
// has rows for; TestMutantTableCoversSites fails when an analyzer of the
// suite is missing here or a listed rule has no row. retiredRules are
// rules a kept analyzer no longer checks: like a retired analyzer's,
// their rows must be caught.
var analyzerRules = map[string][]string{
	"ownwrite":      {ruleOutOfStripe},
	"fixedreduce":   {ruleWorkerSum, ruleFoldAssign, ruleFoldOrder},
	"poollife":      poolRules,
	"reqwait":       {ruleDroppedWait, ruleEarlyReturn},
	"tagconst":      {ruleAsymTag},
	"hotalloc":      {ruleMakeInLoop, ruleAppendInLoop, ruleMapInLoop, ruleClosureInLoop},
	"detorder":      {ruleMapOrderSum},
	"overlapregion": {ruleCollective, ruleExchange},
	"errcheck":      {ruleDroppedError, ruleLibraryPanic},
	"costconst":     {ruleLiteralCost, ruleAdHocCost},
	"profspan":      {ruleUnboundSpan, ruleAdHocPhase, ruleUnclosedSpan, ruleOpenReturn},
	"costsync":      {ruleFormulaTerm, ruleSplitFormula},
	"codegen":       {ruleHeapEscape, ruleBoundsCheck, ruleLostInline},
}

var retiredRules = map[string]bool{ruleHeapEscape: true}

// siteKind classifies an audited site.
type siteKind int

const (
	shardSite   siteKind = iota // a pool task's RunShard method
	messageSite                 // an ISend/IRecv/Send/Recv call
	windowSite                  // a Start … Finish overlap window
)

// siteRules are the (analyzer, rule) rows every site of a kind needs.
// A blocking Send or Recv has no Request to wait, so its dropped-Wait
// row makes it nonblocking and drops the Request, and its early-return
// row makes the sends nonblocking and waits them after the receives.
var siteRules = map[siteKind][][2]string{
	shardSite:   {{"ownwrite", ruleOutOfStripe}},
	messageSite: {{"reqwait", ruleDroppedWait}, {"reqwait", ruleEarlyReturn}, {"tagconst", ruleAsymTag}},
	windowSite:  {{"overlapregion", ruleCollective}, {"overlapregion", ruleExchange}},
}

// The reductions whose grouping a worker-shaped sum would change, and
// the pool rules seeded once each.
var (
	workerSumSites = []string{
		"internal/par/reduce.go dotTask.RunShard",
		"internal/par/mreduce.go mdotTask.RunShard",
	}
	poolRules = []string{ruleRunClosed, ruleNestedRun, ruleCloseInRun, ruleSpawn, ruleBlockingMPI, ruleStaleTask}
)

// inject returns the one edit that adds stmt as the first statement
// of the function whose opening line is header.
func inject(header, stmt string) []edit {
	return []edit{{Old: header + "\n", New: header + "\n\t" + stmt + "\n"}}
}

// stripeWrite is the ownwrite row of one pool task: stmt, a write every
// shard makes to one element, opens the task's RunShard.
func stripeWrite(file, task, stmt string, pkgs []string, run string) mutant {
	return mutant{Analyzer: "ownwrite", Rule: ruleOutOfStripe, Sites: []string{file + " " + task + ".RunShard"},
		File: file, Edits: inject("func (t *"+task+") RunShard(w, nw int) {", stmt), Pkgs: pkgs, Run: run}
}

var (
	corePkgs    = []string{"./internal/core"}
	distPkgs    = []string{"./internal/dist"}
	eulerPkgs   = []string{"./internal/euler"}
	iluPkgs     = []string{"./internal/ilu"}
	meshPkgs    = []string{"./internal/mesh"}
	mpiPkgs     = []string{"./internal/mpi"}
	newtonPkgs  = []string{"./internal/newton"}
	parPkgs     = []string{"./internal/par"}
	schwarzPkgs = []string{"./internal/schwarz"}
	sparsePkgs  = []string{"./internal/sparse"}
)

const haloGo = "internal/dist/halo.go"

// Site keys of the six message calls in halo.go.
const (
	planSend = haloGo + " negotiateHalo Send"
	planRecv = haloGo + " negotiateHalo Recv"
	postRecv = haloGo + " Halo.Start IRecv"
	postSend = haloGo + " Halo.Start ISend"
	exchSend = haloGo + " Halo.Exchange Send"
	exchRecv = haloGo + " Halo.Exchange Recv"
)

var mutants = []mutant{
	// ownwrite: a write every shard makes to an element one shard owns.
	stripeWrite("internal/sparse/par.go", "bcsrMulTask", "t.y[0] += 0", []string{"./internal/sparse"}, "."),
	stripeWrite("internal/par/reduce.go", "dotTask", "t.parts[0] += 0", parPkgs, "."),
	stripeWrite("internal/par/reduce.go", "axpyTask", "t.y[0] += 0", parPkgs, "."),
	stripeWrite("internal/par/mreduce.go", "mdotTask", "t.parts[0] += 0", parPkgs, "."),
	stripeWrite("internal/par/mreduce.go", "maxpyTask", "t.y[0] += 0", parPkgs, "."),
	stripeWrite("internal/dist/thread.go", "rowsTask", "t.y[0] += 0", distPkgs, "."),
	stripeWrite("internal/ilu/levels.go", "triTask", "t.x[0] += 0", []string{"./internal/ilu"}, "SolvePar|Level"),
	stripeWrite("internal/euler/parallel.go", "fluxTask", "t.r[0] += 0", []string{"./internal/euler"}, "."),
	stripeWrite("internal/schwarz/schwarz.go", "factorTask", "t.a.Val[0] += 0", schwarzPkgs, "."),
	stripeWrite("internal/schwarz/schwarz.go", "applyTask", "t.z[0] += 0", schwarzPkgs, "."),

	// fixedreduce: each worker sums its whole range into its first
	// segment, so the grouping follows the worker count.
	{Analyzer: "fixedreduce", Rule: ruleWorkerSum, Sites: []string{"internal/par/reduce.go dotTask.RunShard"},
		File: "internal/par/reduce.go", Edits: []edit{{
			Old: "\tdotSegments(t.x, t.y, w*Segments/nw, (w+1)*Segments/nw, t.parts)\n",
			New: "\ts0, s1, n := w*Segments/nw, (w+1)*Segments/nw, len(t.x)\n" +
				"\tvar sum float64\n" +
				"\tfor i := n * s0 / Segments; i < n*s1/Segments; i++ {\n\t\tsum += t.x[i] * t.y[i]\n\t}\n" +
				"\tfor s := s0; s < s1; s++ {\n\t\tt.parts[s] = 0\n\t}\n" +
				"\tt.parts[s0] = sum\n",
		}},
		Pkgs: parPkgs, Run: "."},
	{Analyzer: "fixedreduce", Rule: ruleWorkerSum, Sites: []string{"internal/par/mreduce.go mdotTask.RunShard"},
		File: "internal/par/mreduce.go", Edits: []edit{{
			Old: "\tmdotSegments(t.x, t.vs, w*Segments/nw, (w+1)*Segments/nw, t.parts)\n",
			New: "\ts0, s1, n := w*Segments/nw, (w+1)*Segments/nw, len(t.x)\n" +
				"\tfor k, v := range t.vs {\n" +
				"\t\tvar sum float64\n" +
				"\t\tfor i := n * s0 / Segments; i < n*s1/Segments; i++ {\n\t\t\tsum += t.x[i] * v[i]\n\t\t}\n" +
				"\t\tfor s := s0; s < s1; s++ {\n\t\t\tt.parts[k*Segments+s] = 0\n\t\t}\n" +
				"\t\tt.parts[k*Segments+s0] = sum\n" +
				"\t}\n",
		}},
		Pkgs: parPkgs, Run: "."},

	// fixedreduce: MDot's one-worker fold (no pool task, so no site)
	// must be combine's — every partial added, in ascending segments.
	{Analyzer: "fixedreduce", Rule: ruleFoldAssign,
		File: "internal/par/mreduce.go", Edits: []edit{{Old: "\t\t\tout[k] += p0\n", New: "\t\t\tout[k] = p0\n"}},
		Pkgs: parPkgs, Run: "."},
	{Analyzer: "fixedreduce", Rule: ruleFoldOrder,
		File: "internal/par/mreduce.go", Edits: []edit{{
			Old: "\tfor s := 0; s < Segments; s++ {\n",
			New: "\tfor s := Segments - 1; s >= 0; s-- {\n",
		}},
		Pkgs: parPkgs, Run: "."},

	// poollife: one row per rule, each where the solver could make it.
	{Analyzer: "poollife", Rule: ruleRunClosed,
		File: "internal/dist/newton.go", Edits: []edit{{Old: "\t\tdefer pool.Close()\n", New: "\t\tpool.Close()\n"}},
		Pkgs: distPkgs, Run: "."},
	{Analyzer: "poollife", Rule: ruleNestedRun, Sites: []string{"internal/dist/thread.go rowsTask.RunShard"},
		File: "internal/dist/thread.go", Edits: inject("func (t *rowsTask) RunShard(w, nw int) {", "if w == 0 {\n\t\tt.m.pool.Run(t)\n\t}"),
		Pkgs: distPkgs, Run: "."},
	{Analyzer: "poollife", Rule: ruleCloseInRun, Sites: []string{"internal/schwarz/schwarz.go factorTask.RunShard"},
		File: "internal/schwarz/schwarz.go", Edits: inject("func (t *factorTask) RunShard(w, nw int) {", "if w == 0 {\n\t\tt.p.Opts.Pool.Close()\n\t}"),
		Pkgs: schwarzPkgs, Run: "."},
	{Analyzer: "poollife", Rule: ruleSpawn, Sites: []string{"internal/par/reduce.go axpyTask.RunShard"},
		File: "internal/par/reduce.go", Edits: []edit{{
			Old: "\taxpyRange(t.a, t.x[n*w/nw:n*(w+1)/nw], t.y[n*w/nw:n*(w+1)/nw])\n",
			New: "\tgo axpyRange(t.a, t.x[n*w/nw:n*(w+1)/nw], t.y[n*w/nw:n*(w+1)/nw])\n",
		}},
		Pkgs: parPkgs, Run: "."},
	{Analyzer: "poollife", Rule: ruleBlockingMPI, Sites: []string{"internal/dist/thread.go rowsTask.RunShard"},
		File: "internal/dist/thread.go", Edits: inject("func (t *rowsTask) RunShard(w, nw int) {", "if w == 1 {\n\t\t_ = t.m.halo.Exchange(t.m.Prof, t.x)\n\t}"),
		Pkgs: distPkgs, Run: "."},
	{Analyzer: "poollife", Rule: ruleStaleTask,
		File: "internal/ilu/levels.go", Edits: []edit{{
			Old: "\t\tt.rows = f.fwdRows[f.fwdPtr[l]:f.fwdPtr[l+1]]\n\t\trunLevel(p, t, nw)\n\t}\n",
			New: "\t\tt.rows = f.fwdRows[f.fwdPtr[l]:f.fwdPtr[l+1]]\n\t}\n\trunLevel(p, t, nw)\n",
		}},
		Pkgs: []string{"./internal/ilu"}, Run: "SolvePar|Level"},

	// reqwait, dropped Wait: the request is never waited (a blocking
	// call becomes its nonblocking twin with the Request dropped).
	{Analyzer: "reqwait", Rule: ruleDroppedWait, Sites: []string{planSend},
		File: haloGo, Edits: []edit{{Old: "c.Send(q, mpi.TagPlan, enc)", New: "c.ISend(q, mpi.TagPlan, enc)"}},
		Pkgs: distPkgs, Run: "."},
	{Analyzer: "reqwait", Rule: ruleDroppedWait, Sites: []string{planRecv},
		File: haloGo, Edits: []edit{{Old: "enc, err := c.Recv(q, mpi.TagPlan)", New: "c.IRecv(q, mpi.TagPlan)\n\t\tenc, err := []float64(nil), error(nil)"}},
		Pkgs: distPkgs, Run: "."},
	{Analyzer: "reqwait", Rule: ruleDroppedWait, Sites: []string{postRecv},
		File: haloGo, Edits: []edit{{Old: "data, err := h.recvReq[pi].Wait()", New: "data, err := []float64(nil), error(nil)"}},
		Pkgs: distPkgs, Run: "."},
	{Analyzer: "reqwait", Rule: ruleDroppedWait, Sites: []string{postSend},
		File: haloGo, Edits: []edit{{Old: "if _, err := h.sendReq[pi].Wait(); err != nil", New: "if err := error(nil); err != nil"}},
		Pkgs: distPkgs, Run: "."},
	{Analyzer: "reqwait", Rule: ruleDroppedWait, Sites: []string{exchSend},
		File: haloGo, Edits: []edit{{Old: "h.comm.Send(q, h.tag, buf)", New: "h.comm.ISend(q, h.tag, buf)"}},
		Pkgs: distPkgs, Run: "."},
	{Analyzer: "reqwait", Rule: ruleDroppedWait, Sites: []string{exchRecv},
		File: haloGo, Edits: []edit{{Old: "buf, err := h.comm.Recv(q, h.tag)", New: "h.comm.IRecv(q, h.tag)\n\t\tbuf, err := []float64(nil), error(nil)"}},
		Pkgs: distPkgs, Run: "."},

	// reqwait, early return: the first receive error returns while the
	// sends are still unwaited.
	{Analyzer: "reqwait", Rule: ruleEarlyReturn, Sites: []string{postRecv, postSend},
		File: haloGo, Edits: []edit{{
			Old: "\t\tif err != nil && firstErr == nil {\n",
			New: "\t\tif err != nil {\n\t\t\treturn err\n\t\t}\n\t\tif err != nil && firstErr == nil {\n",
		}},
		Pkgs: distPkgs, Run: "."},
	{Analyzer: "reqwait", Rule: ruleEarlyReturn, Sites: []string{planSend, planRecv},
		File: haloGo, Edits: []edit{
			{Old: "\tall := c.AllGather(counts)\n", New: "\tall := c.AllGather(counts)\n\tvar sends []*mpi.Request\n"},
			{Old: "c.Send(q, mpi.TagPlan, enc)", New: "sends = append(sends, c.ISend(q, mpi.TagPlan, enc))"},
			{Old: "\t\tasked[q] = rows\n\t}\n", New: "\t\tasked[q] = rows\n\t}\n\tfor _, s := range sends {\n\t\tif _, err := s.Wait(); err != nil {\n\t\t\treturn nil, err\n\t\t}\n\t}\n"},
		},
		Pkgs: distPkgs, Run: "."},
	{Analyzer: "reqwait", Rule: ruleEarlyReturn, Sites: []string{exchSend, exchRecv},
		File: haloGo, Edits: []edit{
			{Old: "\tsp := p.Begin(prof.PhaseScatter)\n", New: "\tsp := p.Begin(prof.PhaseScatter)\n\tvar sends []*mpi.Request\n"},
			{Old: "h.comm.Send(q, h.tag, buf)", New: "sends = append(sends, h.comm.ISend(q, h.tag, buf))"},
			{Old: exchangeTail, New: strings.Replace(exchangeTail, "\treturn nil\n",
				"\tfor _, s := range sends {\n\t\tif _, err := s.Wait(); err != nil {\n\t\t\treturn err\n\t\t}\n\t}\n\treturn nil\n", 1)},
		},
		Pkgs: distPkgs, Run: "."},

	// tagconst: one side of a message uses the other registry tag.
	{Analyzer: "tagconst", Rule: ruleAsymTag, Sites: []string{planSend},
		File: haloGo, Edits: []edit{{Old: "c.Send(q, mpi.TagPlan, enc)", New: "c.Send(q, mpi.TagHalo, enc)"}},
		Pkgs: distPkgs, Run: "."},
	{Analyzer: "tagconst", Rule: ruleAsymTag, Sites: []string{planRecv},
		File: haloGo, Edits: []edit{{Old: "c.Recv(q, mpi.TagPlan)", New: "c.Recv(q, mpi.TagHalo)"}},
		Pkgs: distPkgs, Run: "."},
	{Analyzer: "tagconst", Rule: ruleAsymTag, Sites: []string{postRecv},
		File: haloGo, Edits: []edit{{Old: "h.comm.IRecv(q, h.tag)", New: "h.comm.IRecv(q, mpi.TagPlan)"}},
		Pkgs: distPkgs, Run: "."},
	{Analyzer: "tagconst", Rule: ruleAsymTag, Sites: []string{postSend},
		File: haloGo, Edits: []edit{{Old: "h.comm.ISend(q, h.tag, buf)", New: "h.comm.ISend(q, mpi.TagPlan, buf)"}},
		Pkgs: distPkgs, Run: "."},
	{Analyzer: "tagconst", Rule: ruleAsymTag, Sites: []string{exchSend},
		File: haloGo, Edits: []edit{{Old: "h.comm.Send(q, h.tag, buf)", New: "h.comm.Send(q, mpi.TagPlan, buf)"}},
		Pkgs: distPkgs, Run: "."},
	{Analyzer: "tagconst", Rule: ruleAsymTag, Sites: []string{exchRecv},
		File: haloGo, Edits: []edit{{Old: "h.comm.Recv(q, h.tag)", New: "h.comm.Recv(q, mpi.TagPlan)"}},
		Pkgs: distPkgs, Run: "."},

	// overlapregion (kept): recorded as they come out.
	{Analyzer: "overlapregion", Rule: ruleCollective, Sites: []string{"internal/dist/dist.go Matrix.MulVec window"},
		File: "internal/dist/dist.go", Edits: []edit{{
			Old: "\tm.diag.MulVecPar(m.pool, ext, y)\n",
			New: "\tm.diag.MulVecPar(m.pool, ext, y)\n\tm.Comm.Barrier()\n",
		}},
		Pkgs: distPkgs, Run: "."},
	{Analyzer: "overlapregion", Rule: ruleExchange, Sites: []string{"internal/dist/dist.go Matrix.MulVec window"},
		File: "internal/dist/dist.go", Edits: []edit{{
			Old: "\tm.diag.MulVecPar(m.pool, ext, y)\n",
			New: "\tm.diag.MulVecPar(m.pool, ext, y)\n\tif err := m.halo.Exchange(m.Prof, ext); err != nil {\n\t\treturn err\n\t}\n",
		}},
		Pkgs: distPkgs, Run: "."},
	{Analyzer: "overlapregion", Rule: ruleCollective, Sites: []string{"internal/dist/residual.go Residual.Eval window"},
		File: "internal/dist/residual.go", Edits: []edit{{
			Old: "\tr.D.ResidualEdges(q, res, r.interior)\n",
			New: "\tr.D.ResidualEdges(q, res, r.interior)\n\tr.halo.comm.Barrier()\n",
		}},
		Pkgs: distPkgs, Run: "."},
	{Analyzer: "overlapregion", Rule: ruleExchange, Sites: []string{"internal/dist/residual.go Residual.Eval window"},
		File: "internal/dist/residual.go", Edits: []edit{{
			Old: "\tr.D.ResidualEdges(q, res, r.interior)\n",
			New: "\tr.D.ResidualEdges(q, res, r.interior)\n\tif err := r.halo.Exchange(r.Prof, q); err != nil {\n\t\treturn err\n\t}\n",
		}},
		Pkgs: distPkgs, Run: "."},

	// hotalloc: one allocation per call on a steady-state path of each
	// hot package (sparse's is its Go mulVec5 kernel), plus one in ilu's
	// Go forward4. The Go kernels run where the host has no AVX2 family.
	// Each allocates for real: a non-escaping closure, small map or
	// constant-size make stays on the stack and costs nothing, so it
	// would be no defect.
	{Analyzer: "hotalloc", Rule: ruleMakeInLoop,
		File: "internal/krylov/gmres.go", Edits: []edit{{
			Old: "\t\thn[i] = -hij\n",
			New: "\t\tscratch := make([]float64, len(hc)+1)\n\t\tscratch[0] = -hij\n\t\thn[i] = scratch[0]\n",
		}},
		Pkgs: corePkgs, Run: "^TestNewtonStepAllocatesNothing$", NoRace: true},
	{Analyzer: "hotalloc", Rule: ruleMakeInLoop,
		File: haloGo, Edits: []edit{{
			Old: "\t\tbuf := h.sendBuf[pi]\n\t\tfor i, li := range idx {\n\t\t\tcopy(buf[i*b:(i+1)*b], x[int(li)*b:int(li)*b+b])\n\t\t}\n\t\th.sendReq[pi]",
			New: "\t\tbuf := make([]float64, len(idx)*b)\n\t\tfor i, li := range idx {\n\t\t\tcopy(buf[i*b:(i+1)*b], x[int(li)*b:int(li)*b+b])\n\t\t}\n\t\th.sendReq[pi]",
		}},
		Pkgs: corePkgs, Run: "^TestDistributedNewtonStepAllocatesItsMessages$", NoRace: true},
	{Analyzer: "hotalloc", Rule: ruleMakeInLoop,
		File: "internal/euler/distributed.go", Edits: []edit{{
			Old: "\t\td.scatterAdd(r, int32(v), flux, +1)\n",
			New: "\t\tacc := make([]float64, b)\n\t\tcopy(acc, flux)\n\t\td.scatterAdd(r, int32(v), acc, +1)\n",
		}},
		Pkgs: eulerPkgs, Run: "SteadyStateAllocs", NoRace: true},
	{Analyzer: "hotalloc", Rule: ruleMakeInLoop,
		File: "internal/schwarz/schwarz.go", Edits: []edit{{
			Old: "\t\tif p.bounds != nil {\n\t\t\ts.Factor.SolveNoSpan(s.rhs, s.sol)\n",
			New: "\t\trhs := make([]float64, len(s.rhs))\n\t\tcopy(rhs, s.rhs)\n\t\tif p.bounds != nil {\n\t\t\ts.Factor.SolveNoSpan(rhs, s.sol)\n",
		}},
		Pkgs: schwarzPkgs, Run: "SteadyStateAllocs"},
	{Analyzer: "hotalloc", Rule: ruleMakeInLoop,
		File: "internal/mpi/mpi.go", Edits: []edit{{
			Old: "\t\t\t\tvar s float64\n\t\t\t\tfor _, v := range w.vecVals {\n\t\t\t\t\ts += v[i]\n\t\t\t\t}\n",
			New: "\t\t\t\tterms := make([]float64, len(w.vecVals))\n\t\t\t\tfor r, v := range w.vecVals {\n\t\t\t\t\tterms[r] = v[i]\n\t\t\t\t}\n" +
				"\t\t\t\tvar s float64\n\t\t\t\tfor _, v := range terms {\n\t\t\t\t\ts += v\n\t\t\t\t}\n",
		}},
		Pkgs: mpiPkgs, Run: "SteadyStateAllocs"},
	{Analyzer: "hotalloc", Rule: ruleAppendInLoop,
		File: "internal/sparse/bcsr.go", Edits: []edit{{
			Old: "\t\t\tx0, x1, x2, x3, x4 := x[j], x[j+1], x[j+2], x[j+3], x[j+4] //lint:bce-ok gather through the block column index is data-dependent\n",
			New: "\t\t\txb := append([]float64(nil), x[j:j+5]...)\n\t\t\tx0, x1, x2, x3, x4 := xb[0], xb[1], xb[2], xb[3], xb[4]\n",
		}},
		Pkgs: sparsePkgs, Run: "SteadyStateAllocs"},
	{Analyzer: "hotalloc", Rule: ruleAppendInLoop,
		File: "internal/ilu/solve.go", Edits: []edit{{
			Old: "lPtr contents, a relation no slice length expresses\n\t\t\tx0, x1, x2, x3 := x[j], x[j+1], x[j+2], x[j+3] //lint:bce-ok gather through the block column index is data-dependent\n",
			New: "lPtr contents, a relation no slice length expresses\n\t\t\txb := append([]float64(nil), x[j:j+4]...)\n\t\t\tx0, x1, x2, x3 := xb[0], xb[1], xb[2], xb[3]\n",
		}},
		Pkgs: iluPkgs, Run: "SteadyStateAllocs"},
	{Analyzer: "hotalloc", Rule: ruleMapInLoop,
		File: "internal/ilu/ilu.go", Edits: []edit{{
			Old: "\t\tfor t, j := range upper {\n\t\t\tslot[j] = int32(uo + t) //lint:bce-ok dense work array indexed by block column\n\t\t}\n",
			New: "\t\tupos := map[int32]int32{}\n\t\tfor t, j := range upper {\n\t\t\tupos[j] = int32(uo + t)\n\t\t}\n\t\tfor j, at := range upos {\n\t\t\tslot[j] = at\n\t\t}\n",
		}},
		Pkgs: iluPkgs, Run: "SteadyStateAllocs"},
	{Analyzer: "hotalloc", Rule: ruleClosureInLoop,
		File: "internal/par/par.go", Edits: []edit{
			{Old: "\t\tfor _, c := range p.wake {\n\t\t\tc <- t\n\t\t}\n", New: "\t\tfor _, c := range p.wake {\n\t\t\tc <- shardFunc(func(w, nw int) { t.RunShard(w, nw) })\n\t\t}\n"},
			{Old: "// worker is the persistent loop", New: "type shardFunc func(w, nw int)\n\nfunc (f shardFunc) RunShard(w, nw int) { f(w, nw) }\n\n// worker is the persistent loop"},
		},
		Pkgs: parPkgs, Run: "SteadyStateAllocs"},

	// detorder: a fold of at least three partials taken in map order.
	// Reordering two terms is no defect (IEEE addition commutes).
	{Analyzer: "detorder", Rule: ruleMapOrderSum,
		File: "internal/par/reduce.go", Edits: []edit{{
			Old: "\tvar s float64\n\tfor _, v := range parts {\n\t\ts += v\n\t}\n",
			New: "\tbySegment := map[int]float64{}\n\tfor i, v := range parts {\n\t\tbySegment[i] = v\n\t}\n\tvar s float64\n\tfor _, v := range bySegment {\n\t\ts += v\n\t}\n",
		}},
		Pkgs: parPkgs, Run: "."},
	{Analyzer: "detorder", Rule: ruleMapOrderSum,
		File: "internal/par/mreduce.go", Edits: []edit{{
			Old: "\tvar s float64\n\tfor _, v := range parts {\n\t\ts += v\n\t}\n",
			New: "\tbySegment := map[int]float64{}\n\tfor i, v := range parts {\n\t\tbySegment[i] = v\n\t}\n\tvar s float64\n\tfor _, v := range bySegment {\n\t\ts += v\n\t}\n",
		}},
		Pkgs: parPkgs, Run: "."},
	{Analyzer: "detorder", Rule: ruleMapOrderSum,
		File: "internal/mpi/mpi.go", Edits: []edit{{
			Old: "\t\tvar s float64\n\t\tfor _, v := range vals {\n\t\t\ts += v\n\t\t}\n",
			New: "\t\tbyRank := map[int]float64{}\n\t\tfor r, v := range vals {\n\t\t\tbyRank[r] = v\n\t\t}\n\t\tvar s float64\n\t\tfor _, v := range byRank {\n\t\t\ts += v\n\t\t}\n",
		}},
		Pkgs: mpiPkgs, Run: "."},
	{Analyzer: "detorder", Rule: ruleMapOrderSum,
		File: "internal/euler/parallel.go", Edits: []edit{{
			Old: "\tfor _, pt := range priv {\n",
			New: "\tbyWorker := map[int][]float64{}\n\tfor w, pt := range priv {\n\t\tbyWorker[w] = pt\n\t}\n\tfor _, pt := range byWorker {\n",
		}},
		Pkgs: eulerPkgs, Run: "."},

	// errcheck (kept): a dropped error on an input check, an output
	// flush and a profile write; a panic for a rejected option and a
	// rejected input.
	{Analyzer: "errcheck", Rule: ruleDroppedError,
		File: "internal/newton/iterate.go", Edits: []edit{{
			Old: "\tif err := opts.Validate(); err != nil {\n\t\treturn nil, err\n\t}\n",
			New: "\topts.Validate()\n",
		}},
		Pkgs: newtonPkgs, Run: "."},
	{Analyzer: "errcheck", Rule: ruleDroppedError,
		File: "internal/mesh/io.go", Edits: []edit{{
			Old: "\treturn bw.Flush()\n",
			New: "\tbw.Flush()\n\treturn nil\n",
		}},
		Pkgs: meshPkgs, Run: "."},
	{Analyzer: "errcheck", Rule: ruleDroppedError,
		File: "internal/prof/prof.go", Edits: []edit{{
			Old: "\treturn enc.Encode(p.Report(streamBps))\n",
			New: "\tenc.Encode(p.Report(streamBps))\n\treturn nil\n",
		}},
		Pkgs: []string{"./internal/prof"}, Run: "."},
	{Analyzer: "errcheck", Rule: ruleLibraryPanic,
		File: "internal/newton/newton.go", Edits: []edit{{
			Old: "\t\treturn fmt.Errorf(\"newton: CFL0 %g, want > 0\", o.CFL0)\n",
			New: "\t\tpanic(fmt.Sprintf(\"newton: CFL0 %g, want > 0\", o.CFL0))\n",
		}},
		Pkgs: newtonPkgs, Run: "."},
	{Analyzer: "errcheck", Rule: ruleLibraryPanic,
		File: "internal/mesh/io.go", Edits: []edit{{
			Old: "\t\treturn nil, fmt.Errorf(\"mesh: bad header %q\", header)\n",
			New: "\t\tpanic(fmt.Sprintf(\"mesh: bad header %q\", header))\n",
		}},
		Pkgs: meshPkgs, Run: "."},

	// costconst (kept): a literal and a hand-rolled count fed to a span.
	{Analyzer: "costconst", Rule: ruleLiteralCost,
		File: "internal/euler/discretization.go", Edits: []edit{{
			Old: "\td.boundaryResidual(q, r)\n\tsp.End(d.SweepFlops(), d.SweepBytes())\n",
			New: "\td.boundaryResidual(q, r)\n\tsp.End(100000, d.SweepBytes())\n",
		}},
		Pkgs: eulerPkgs, Run: "."},
	{Analyzer: "costconst", Rule: ruleAdHocCost,
		File: "internal/dist/dist.go", Edits: []edit{{
			Old: "\tisp.End(m.diag.MulVecFlops(), m.diag.MulVecBytes())\n",
			New: "\tisp.End(int64(2*len(m.diag.ColIdx)), m.diag.MulVecBytes())\n",
		}},
		Pkgs: distPkgs, Run: "."},

	// profspan (kept): one row per rule.
	{Analyzer: "profspan", Rule: ruleUnboundSpan,
		File: "internal/dist/dist.go", Edits: []edit{
			{Old: "\tbsp := m.Prof.Begin(prof.PhaseBoundary)\n", New: "\tm.Prof.Begin(prof.PhaseBoundary)\n"},
			{Old: "\tbsp.End(sparse.MulVecRowsFlops(len(m.off.ColIdx), m.B), sparse.MulVecRowsBytes(len(m.off.ColIdx), len(m.boundary), m.B))\n", New: ""},
		},
		Pkgs: distPkgs, Run: "."},
	{Analyzer: "profspan", Rule: ruleAdHocPhase,
		File: "internal/euler/discretization.go", Edits: []edit{{
			Old: "func (d *Discretization) Residual(q, r []float64) {\n\tsp := prof.Begin(prof.PhaseFlux)\n",
			New: "func (d *Discretization) Residual(q, r []float64) {\n\tsp := prof.Begin(prof.PhaseFlux + 1)\n",
		}},
		Pkgs: eulerPkgs, Run: "."},
	{Analyzer: "profspan", Rule: ruleUnclosedSpan,
		File: "internal/schwarz/schwarz.go", Edits: []edit{{
			Old: "\tdefer sp.End(0, p.applyCopyBytes())\n",
			New: "\t_ = sp\n",
		}},
		Pkgs: schwarzPkgs, Run: "."},
	{Analyzer: "profspan", Rule: ruleOpenReturn,
		File: "internal/dist/dist.go", Edits: []edit{{
			Old: "\tif err != nil {\n\t\tsp.End(0, 0)\n\t\treturn nil, err\n\t}\n",
			New: "\tif err != nil {\n\t\treturn nil, err\n\t}\n",
		}},
		Pkgs: distPkgs, Run: "."},

	// costsync (kept): a formula one term off its kernel, and a subset
	// formula that no longer sums to the whole sweep's.
	{Analyzer: "costsync", Rule: ruleFormulaTerm,
		File: "internal/ilu/solve.go", Edits: []edit{{
			Old: "\treturn int64(len(f.Col))*(2*b*b+b) - int64(f.NB)*b\n",
			New: "\treturn int64(len(f.Col))*(2*b*b+b+1) - int64(f.NB)*b\n",
		}},
		Pkgs: []string{"./internal/ilu", "./internal/schwarz"}, Run: "."},
	{Analyzer: "costsync", Rule: ruleSplitFormula,
		File: "internal/sparse/bcsr.go", Edits: []edit{{
			Old: "\treturn 2 * int64(nnzBlocks) * int64(b) * int64(b)\n",
			New: "\treturn 2*int64(nnzBlocks)*int64(b)*int64(b) + int64(nnzBlocks)*int64(b)\n",
		}},
		Pkgs: []string{"./internal/sparse", "./internal/dist"}, Run: "."},

	// codegen (kept): its escape rule is retired, so that row must be
	// caught (by the allocation gates); the bounds-check and lost-inline
	// rows are recorded.
	{Analyzer: "codegen", Rule: ruleHeapEscape,
		File: "internal/euler/discretization.go", Edits: []edit{
			{Old: "func (d *Discretization) timeScales(p *jacobianPlan, q, out []float64) {\n\tclear(out)\n",
				New: "func (d *Discretization) timeScales(p *jacobianPlan, q, out []float64) {\n\tvar acc [8]float64\n\tescapeSink = acc[:]\n\tclear(out)\n"},
			{Old: "// timeScales overwrites out", New: "var escapeSink []float64\n\n// timeScales overwrites out"},
		},
		Pkgs: eulerPkgs, Run: "SteadyStateAllocs", NoRace: true},
	{Analyzer: "codegen", Rule: ruleBoundsCheck,
		File: "internal/par/mreduce.go", Edits: []edit{{
			Old: "\ty = y[:len(x)] // bce: ties len(y) to len(x); the index serves both streams unchecked\n",
			New: "",
		}},
		Pkgs: parPkgs, Run: "."},
	{Analyzer: "codegen", Rule: ruleLostInline,
		File: "internal/euler/discretization.go", Edits: []edit{{
			Old: "func (d *Discretization) gather(",
			New: "//go:noinline\nfunc (d *Discretization) gather(",
		}},
		Pkgs: eulerPkgs, Run: "."},
}

// exchangeTail is Halo.Exchange from its receive to its end; Finish
// ends with the same unpack, so the receive call anchors the edit.
const exchangeTail = "h.comm.Recv(q, h.tag)\n\t\tif err != nil {\n\t\t\treturn err\n\t\t}\n" +
	"\t\tif len(buf) != len(idx)*b {\n\t\t\treturn fmt.Errorf(\"dist: halo from %d has %d values, want %d\", q, len(buf), len(idx)*b)\n\t\t}\n" +
	"\t\tfor i, li := range idx {\n\t\t\tcopy(x[int(li)*b:int(li)*b+b], buf[i*b:(i+1)*b])\n\t\t}\n\t}\n\treturn nil\n"

// where names the row's sites, or its file when it seeds none.
func (m mutant) where() string {
	if len(m.Sites) == 0 {
		return m.File
	}
	return strings.Join(m.Sites, ", ")
}

// apply returns m.File under root with m's edits applied, or an error
// when an edit's text does not occur exactly once.
func (m mutant) apply(root string) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(root, m.File))
	if err != nil {
		return nil, err
	}
	s := string(data)
	for i, e := range m.Edits {
		if n := strings.Count(s, e.Old); n != 1 {
			return nil, fmt.Errorf("%s %q at %s: edit %d occurs %d times in %s, want exactly once",
				m.Analyzer, m.Rule, m.where(), i, n, m.File)
		}
		s = strings.Replace(s, e.Old, e.New, 1)
	}
	return []byte(s), nil
}

// auditedSites parses every non-test Go file of the module outside
// internal/mpi (the fabric itself), bench/ (the frozen replays) and
// testdata, and returns its pool tasks ("file T.RunShard"), its message
// call sites ("file Func Method" for ISend, IRecv, Send and Recv calls
// with at least two arguments) and its overlap windows ("file Func
// window": a Start and a Finish on one receiver in one function).
func auditedSites(root string) (map[string]siteKind, error) {
	sites := map[string]siteKind{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || rel == "bench" || rel == "internal/mpi") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := funcName(fd)
			if fd.Recv != nil && fd.Name.Name == "RunShard" {
				sites[rel+" "+name] = shardSite
			}
			starts, finishes := map[string]bool{}, map[string]bool{}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				switch method := sel.Sel.Name; method {
				case "ISend", "IRecv", "Send", "Recv":
					if len(call.Args) >= 2 {
						sites[rel+" "+name+" "+method] = messageSite
					}
				case "Start":
					starts[types.ExprString(sel.X)] = true
				case "Finish":
					finishes[types.ExprString(sel.X)] = true
				}
				return true
			})
			for recv := range starts {
				if finishes[recv] {
					sites[rel+" "+name+" window"] = windowSite
				}
			}
		}
		return nil
	})
	return sites, err
}

// funcName is "Recv.Name" for a method and "Name" for a function.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch g := t.(type) {
	case *ast.IndexExpr:
		t = g.X
	case *ast.IndexListExpr:
		t = g.X
	}
	return types.ExprString(t) + "." + fd.Name.Name
}

// TestMutantTableCoversSites is the scoreboard's completeness gate: every
// row applies to today's source, names only sites that exist, every
// audited site has the rows its kind requires, and every rule of every
// analyzer in the suite or retired has a row — so a new analyzer, pool
// task, message call site or overlap window cannot join the tree
// unscored.
func TestMutantTableCoversSites(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	sites, err := auditedSites(root)
	if err != nil {
		t.Fatal(err)
	}
	have := map[[3]string]bool{} // analyzer, rule, site
	rules := map[[2]string]bool{}
	for _, m := range mutants {
		if _, err := m.apply(root); err != nil {
			t.Error(err)
		}
		if len(m.Pkgs) == 0 || m.Run == "" {
			t.Errorf("%s %q at %s names no packages or -run regex", m.Analyzer, m.Rule, m.where())
		}
		for _, s := range m.Sites {
			if _, ok := sites[s]; !ok {
				t.Errorf("%s %q seeds %q, which is not an audited site (renamed or removed?)", m.Analyzer, m.Rule, s)
			}
			have[[3]string{m.Analyzer, m.Rule, s}] = true
		}
		rules[[2]string{m.Analyzer, m.Rule}] = true
	}
	keys := make([]string, 0, len(sites))
	for s := range sites {
		keys = append(keys, s)
	}
	sort.Strings(keys)
	for _, s := range keys {
		for _, r := range siteRules[sites[s]] {
			if !have[[3]string{r[0], r[1], s}] {
				t.Errorf("%s has no %s row for %q; add one to the mutant table", s, r[0], r[1])
			}
		}
	}
	for _, s := range workerSumSites {
		if !have[[3]string{"fixedreduce", ruleWorkerSum, s}] {
			t.Errorf("%s has no fixedreduce row for %q", s, ruleWorkerSum)
		}
	}
	for _, a := range Analyzers() {
		if _, ok := analyzerRules[a.Name]; !ok {
			t.Errorf("analyzer %s has no rules in analyzerRules; score it with rows before it joins the suite", a.Name)
		}
	}
	listed := map[[2]string]bool{}
	for name, rs := range analyzerRules {
		for _, r := range rs {
			listed[[2]string{name, r}] = true
			if !rules[[2]string{name, r}] {
				t.Errorf("no %s row for %q", name, r)
			}
		}
	}
	for r := range rules {
		if !listed[r] {
			t.Errorf("rows seed %s %q, which analyzerRules does not list", r[0], r[1])
		}
	}
}
