# Tier-1+ gate: formatting, vet, the domain lint suite (cmd/fun3dlint),
# and the full test suite under the race detector (the threaded flux
# path and the message-passing solver in internal/dist are the
# interesting customers). CI and pre-commit both run `make verify`.

GOFILES := $(shell find . -name '*.go' -not -path './related/*')

.PHONY: verify fmt vet fallback lint test race bench perf chaos threads threads-grid ortho ortho-grid kernels-grid ilu-grid dist-grid allocs fuzz mutants

# named_gate runs the tests of packages $(2) that match the regex $(1)
# with the go test flags $(3) (-race, except where noted) — after
# checking, package by package, that the regex still selects a test
# there: `go test -run <no match>` exits 0, so a renamed or merged test
# would otherwise empty its gate silently.
define named_gate
	@for p in $(2); do \
		go test -list $(1) $$p | grep -q '^Test' || \
			{ echo "named gate: -run $(1) selects no test in $$p"; exit 1; }; \
	done
	go test $(3) -count=1 -run $(1) $(2)
endef

verify: fmt vet fallback lint race

fmt:
	@out="$$(gofmt -l $(GOFILES))"; \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	go vet ./...

# The pure-Go fallback: the AVX2 kernels of internal/ilu, internal/euler
# and internal/sparse, and the CPUID probe that chooses them
# (internal/cpuid), exist on amd64 only (*_amd64.s), so an architecture
# without them must still build, and vet the packages whose Go kernels
# and probe-less defaults then run.
fallback:
	GOARCH=arm64 go build ./...
	GOARCH=arm64 go vet ./internal/ilu ./internal/euler ./internal/sparse ./internal/cpuid

# Wall-time guard on the static gate: the whole suite runs in a few
# seconds, so a generous ceiling only trips if an analyzer has gotten
# pathologically slow (quadratic blowup, runaway fixpoint) — analyzer
# growth must not quietly bloat the verify gate. Mirrored by
# TestLintSuiteWallTime in internal/lint.
LINT_TIMEOUT := 300s

lint:
	timeout $(LINT_TIMEOUT) go run ./cmd/fun3dlint ./... || \
		{ st=$$?; if [ $$st -eq 124 ]; then echo "fun3dlint exceeded the $(LINT_TIMEOUT) wall-time budget"; fi; exit $$st; }

test:
	go test ./...

race:
	go test -race ./...

bench:
	go test -bench . -benchtime 1x -run '^$$' ./...
	go run ./cmd/benchtables -experiment table3measured -size medium

# The judged benchmark (BENCHMARK.json, bench/README.md): all four
# workloads, untraced end-to-end pass then traced per-layer pass, into
# perf.json. Compare two such files with `go run ./bench -compare`.
perf:
	go run ./bench -out perf.json

# Chaos gate: the fault-injection soak — the faults/mpi/dist suites
# under the race detector with a widened seed grid (the soak asserts
# bitwise-identical residual histories under every seed, and that
# injected panics and stalls produce structured errors, never hangs) —
# followed by the measured η_impl-vs-skew sweep as a smoke test.
chaos:
	FUN3D_CHAOS_SEEDS=1,2,3 go test -race -count=1 ./internal/faults ./internal/mpi ./internal/dist
	go run ./cmd/benchtables -experiment chaos -size small

# Threads gate: the node-level worker-pool determinism grid — the pool
# primitives' own suite, then the bitwise tri-solve/SpMV grids, the
# Schwarz subdomains × workers grid (internal/schwarz) and the whole
# solve across thread counts (internal/core), the one GMRES mechanisms ×
# ranks × workers grid (internal/dist) and the hybrid ranks×threads soak
# — under the race detector, followed by the measured thread-scaling
# sweep and the gather-corrected Table 5 model, printed (none of these
# targets writes into the checkout).
threads-grid:
	go test -race -count=1 ./internal/par
	$(call named_gate,'Par|Thread|Bitwise|Level|Determin',./internal/sparse ./internal/ilu ./internal/schwarz ./internal/core ./internal/euler ./internal/dist,-race)

threads: threads-grid
	go run ./cmd/benchtables -experiment threads -size medium
	go run ./cmd/benchtables -experiment table5 -size small

# Kernel-equivalence gate: the first-order edge kernels of
# internal/euler against the generic sweep through the System interface
# — bitwise over systems × layouts × edge orderings at every entry point,
# the FuzzEdgeFlux seed corpus, and the shared-Discretization race test —
# and the AVX2 BCSR products of internal/sparse against their Go kernels
# (MulVec, MulVecAddRows alone and on a column split, MulVecPar at 1-4
# workers, special values, a malformed matrix, the FuzzMulVecKernels
# seed corpus, the family following CPUID) — under the race detector
# (CI runs it by name).
kernels-grid:
	$(call named_gate,'KernelsMatch|EdgeFlux|SharedDiscretization|OperandOrders|MulVecKernels|MulVecDispatch',./internal/euler ./internal/sparse,-race)

# Factor-storage gate: float32 factors are the float64 factorization
# rounded once, bit for bit, eliminated in a window whose plan never
# overwrites a segment still to be read (block sizes × fill levels ×
# orderings, after Factor and after a Refactor that follows a failed
# refresh); a refresh is bitwise a fresh factorization and allocates
# nothing, in ilu, across the Schwarz subdomains × workers and in each
# rank's block Jacobi (that count skips under -race, where sync.Pool
# drops the assembly's workspaces; make allocs runs it); every AVX2
# block kernel is bitwise its Go kernel
# (special values, level row lists, whole factorizations, Solve ≡
# SolvePar) and the family follows CPUID — under the race detector, which
# does not see the assembly's accesses, so the grids also run the Go
# kernels (CI runs it by name).
ilu-grid:
	$(call named_gate,'SinglePrecisionIsRoundedDouble|RefactorBitwiseGrid|SubdomainParallelBitwiseGrid|Refresh|BlockKernelsMatchGo|DispatchFollowsCPUID',./internal/ilu ./internal/schwarz ./internal/dist,-race)

# Rank-ownership gate: a rank assembles and multiplies only what it
# owns, with the bits of the global path — every rank's in-place
# Jacobian rows and time scales against the global assembly (systems ×
# ranks × partitioners × edge orderings), the column-split product
# against one MulVec in sparse and against the owned-first global matrix
# in dist (threads × overlapped/blocking, the empty and the all-boundary
# ghost block), and a second in-place assembly against a fresh build —
# under the race detector (CI runs it by name).
dist-grid:
	$(call named_gate,'LocalJacobian|MulVecAddRows|SplitMatVec|MatrixRefresh|StepOperator',./internal/euler ./internal/sparse ./internal/dist,-race)

# Allocation gates: one more Newton step allocates (next to) nothing —
# default path, altpath configuration, 2 ranks — a rank's later operator
# build allocates only its preconditioner closure, and Build + solve
# stays within 1.25 × the floor of its resident structures; -v prints the
# per-step numbers and the ledger table EXPERIMENTS.md records. WITHOUT
# the race detector: it allocates on its own and drops sync.Pool items,
# and the tests skip under it.
allocs:
	$(call named_gate,'StepAllocates|AllocationLedger|MatrixRefreshSteadyStateAllocs',./internal/core ./internal/dist,-v)

# The tree's native fuzz targets, 20 s each: three kernel equivalences
# and the mesh-file input boundary. A failing input is written under the
# package's testdata/fuzz and then runs with plain go test.
fuzz:
	go test -run '^$$' -fuzz FuzzEdgeFlux -fuzztime 20s ./internal/euler
	go test -run '^$$' -fuzz FuzzBlockKernels -fuzztime 20s ./internal/ilu
	go test -run '^$$' -fuzz FuzzMulVecKernels -fuzztime 20s ./internal/sparse
	go test -run '^$$' -fuzz FuzzRead -fuzztime 20s ./internal/mesh

# Mutation scoreboard (minutes; not part of verify): every row of the
# mutant table in internal/lint/mutants_test.go — one seeded defect per
# rule of the retired protocol and pool analyzers and of overlapregion —
# is applied through `go test -overlay` (the tree is never written) and
# its packages' tests run under the race detector, after a control run
# of the same tests on the unmutated tree that must pass. Prints one
# markdown row per mutant; fails if a retired analyzer's row is not
# caught by a named failing test or runtime check. CI runs it in its own
# workflow (mutants.yml) when the code it seeds changes, and weekly.
mutants:
	go test -tags mutants -run '^TestMutants$$' -count=1 -timeout 2h -v ./internal/lint

# Ortho gate: the fused multi-vector kernel determinism grid — MDot/
# MAxpy bitwise against the per-vector reference across worker counts,
# the batched vector AllReduce, the GMRES suites of both callers of the
# one solver (rounds accounting, span charges, non-finite exits, the
# mechanisms × ranks × workers grid), and the hybrid soak — under the
# race detector (ortho-grid, which CI runs by name), followed by the
# measured mgs/cgs/cgs2/cgs1 orthogonalization study, printed.
ortho-grid:
	go test -race -count=1 ./internal/par
	$(call named_gate,'MDot|MAxpy|MReduce|Ortho|Reduction|AllReduceSumVec|GMRES|NonFinite|Hybrid',./internal/krylov ./internal/mpi ./internal/dist ./internal/experiments,-race)

ortho: ortho-grid
	go run ./cmd/benchtables -experiment ortho -size medium
