GO ?= go

# The staticcheck release CI is reproducible against. The binary is not
# vendored and CI never installs it (the toolchain is hermetic): when
# it is present it must be this version, when absent the lint step says
# exactly what to install.
STATICCHECK_VERSION ?= 2024.1.1

.PHONY: ci vet lint gofmt staticcheck obsgate counterdoc ruleaudit codeaudit build test test-backends race race-obs test-faults test-smc test-serve test-validate fuzz-host bench bench-e2e bench-pairs emit-diff bench-obs experiments linkcheck

ci: lint build race test-backends test-faults test-smc test-serve test-validate fuzz-host linkcheck bench

vet:
	$(GO) vet ./...

# Repo lint: gofmt, standard vet, the two vettool checkers
# (tools/lint/obsgate for telemetry gating, tools/lint/counterdoc for the
# metric catalog — both directions: every Met* constant documented,
# every documented name declared), and the pinned staticcheck.
lint: gofmt vet obsgate counterdoc staticcheck
	$(GO) vet -vettool=bin/obsgate ./...
	$(GO) vet -vettool=bin/counterdoc ./...
	bin/counterdoc -reverse docs/OBSERVABILITY.md

# Fails listing every Go file gofmt would change.
gofmt:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then echo "gofmt: unformatted files:"; echo "$$files"; exit 1; fi

# staticcheck runs un-gated in ci (via lint) whenever the binary is on
# PATH, pinned to $(STATICCHECK_VERSION) so two machines cannot
# disagree about what clean means. It is not vendored and the toolchain
# stays hermetic (no downloads in CI), so an absent binary is a loud
# skip naming the exact version to install, not a silent pass.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		v=$$(staticcheck -version 2>/dev/null); \
		case "$$v" in \
		*$(STATICCHECK_VERSION)*) staticcheck ./... ;; \
		*) echo "lint: staticcheck is '$$v', want $(STATICCHECK_VERSION) (honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; exit 1 ;; \
		esac \
	else \
		echo "lint: staticcheck not installed, skipping (pin: honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))" ; \
	fi

obsgate:
	$(GO) build -o bin/obsgate ./tools/lint/obsgate

counterdoc:
	$(GO) build -o bin/counterdoc ./tools/lint/counterdoc

# Static audit of the full parameterized rule store (JSON verdicts on
# stdout; see docs/ANALYSIS.md).
ruleaudit:
	$(GO) run ./cmd/ruleaudit -summary

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The tier-1 suite under every host backend: PARAMDBT_BACKEND selects
# the backend.Default() every engine, test, and tool falls back to, so
# one env knob re-runs the whole tree through each lowering pipeline.
test-backends:
	PARAMDBT_BACKEND=x86 $(GO) test ./...
	PARAMDBT_BACKEND=risc $(GO) test ./...

race:
	$(GO) test -race ./...

# Focused race pass over the observability layer, its hottest consumer,
# and the guard/quarantine paths that intentionally race live lookups.
race-obs:
	$(GO) test -race -count=1 ./internal/obs ./internal/dbt ./internal/mem ./internal/rule ./internal/guard/...

# The engine suite's fault-injection scenarios, including the canned
# plan in internal/dbt/testdata/faultplan.json (the robustness
# acceptance run; see docs/ROBUSTNESS.md). TestShadow* covers the
# journal-based shadow check: its unit tests and the differential runs
# against the old clone-based checker kept in guard_ref_test.go; those,
# the write-set model test and the CompareWrites property test run a
# second time under the race detector.
test-faults:
	$(GO) test -count=1 -run 'TestFaultPlanCanned|TestShadow|TestTranslatorPanicRecovery|TestRunPanicReturnsTypedError|TestInterpFallback' ./internal/dbt
	$(GO) test -race -count=1 -run 'TestShadow|TestJournalWrites|TestCompareWrites' ./internal/dbt ./internal/mem ./internal/guard

# The self-modifying-code scenarios (docs/ROBUSTNESS.md "Self-modifying
# code"), functionally and under the race detector: the four SMC
# profiles' interpreter results (TestSMCProfilesInterpret); in the
# engine, write-then-execute in the store's own block with its precise
# exit and rolled-back frame stores, cross-block overwrite, an
# overwrite in a chained hot loop (smc-sbmid), an instruction of one
# toggled between two encodings (smc-toggle) and the fault-injected
# code pokes, each under interpret-first and translate-first, plus the
# shadow reference pass leaving no trace; and the interpret-first
# tier's own tests (TestTier*: what it translates, what it counts, that
# shadow checks cover translated blocks only, that interpreted stores
# bypass the undo journal and that service tenants translate first).
test-smc:
	$(GO) test -count=1 -run 'TestSMC|TestTier' ./internal/workload ./internal/dbt
	$(GO) test -race -count=1 -run 'TestSMC|TestTier' ./internal/workload ./internal/dbt

# The multi-tenant serving suite (docs/SERVING.md): the shared
# translation service's single-flight/closed-service/no-goroutine/
# quarantine scenarios, the adaptive shadow controller, the rule-store reseed
# stress, and the serving layer's deterministic small-N load smoke —
# functionally and under the race detector.
test-serve:
	$(GO) test -count=1 -run 'TestService|TestAdaptive|TestStoreReseed' ./internal/dbt
	$(GO) test -count=1 ./internal/serve
	$(GO) test -race -count=1 -run 'TestService|TestAdaptive|TestStoreReseed' ./internal/dbt
	$(GO) test -race -count=1 ./internal/serve

# Translation validation and licensing the risc peephole
# (docs/ANALYSIS.md "Translation validation"): both validators' units
# (they share the host side's frame evaluation, pinned by
# TestHStateFrame), the rewrite validator's mutants and its
# differential over every candidate the twelve profiles produce, and
# the engine's peephole tests and the read path the audit walks
# (TestValidateTranslations) — functionally and under the race
# detector — then the offline audit of the installed streams on both
# backends, risc with the rewrite verdicts reported apart, failing on
# any refutation.
test-validate:
	$(GO) test -count=1 -run 'TestHStateFrame' ./internal/symexec
	$(GO) test -count=1 -run 'TestValidate' ./internal/analysis
	$(GO) test -count=1 -run 'TestPeephole|TestValidat' ./internal/dbt
	$(GO) test -race -count=1 -run 'TestValidate' ./internal/analysis
	$(GO) test -race -count=1 -run 'TestPeephole|TestValidat' ./internal/dbt
	$(GO) run ./cmd/codeaudit -backend x86 -summary -fail-refuted
	$(GO) run ./cmd/codeaudit -backend risc -peephole -summary -fail-refuted

# Ten seconds of the host simulator's differential fuzzer: random
# instruction streams through CPU.Exec's pre-decoded loop and through
# the per-instruction reference interpreter kept in internal/host's
# tests, which must agree on the result or on the panic. The committed
# seed corpus (internal/host/testdata/fuzz) also runs as plain tests.
fuzz-host:
	$(GO) test -run '^$$' -fuzz '^FuzzExecVsReference$$' -fuzztime 10s -fuzzminimizetime 50x ./internal/host

# Dead-link check over README/docs markdown (relative links and
# [[file:line]] source references).
linkcheck:
	$(GO) run ./cmd/linkcheck

# One pass over every benchmark: smoke-checks the harness without the
# full measurement run. For numbers, name one, e.g. the cost of a
# shadow check over the unsampled execution of the same block:
#   go test -run NONE -bench BenchmarkShadowCheck -benchmem ./internal/dbt
bench:
	$(GO) test -run NONE -bench . -benchtime 1x -benchmem ./...

# The repository's one performance measurement (bench/README.md): every
# BENCHMARK.json workload untraced, then traced for the per-layer table
# and the interleaved strategy arms, into bench/out/. Compare two
# results from the same machine with `go run ./bench -compare`.
bench-e2e:
	$(GO) run ./bench -all

# The A/B a performance claim rests on (choosing-metrics §8): ./bench
# built from `git archive BASE | tar -x` in a temporary directory and
# from the working tree, run on workload W in N pairs alternating which
# side goes first; prints every pair, each side's median and quartiles,
# the median per-pair ratio change/base, and the pairs won.
#   make bench-pairs BASE=HEAD~1 W=steady N=10
BASE ?= HEAD
W ?= steady
N ?= 10
bench-pairs:
	$(GO) run ./tools/benchpairs -base $(BASE) -workload $(W) -n $(N)

# Byte-identity of the emitted code against BASE: cmd/paradbt built
# from `git archive BASE | tar -x` in a temporary directory and from
# the working tree, then `-dump-blocks 100000` (guest disassembly plus
# host listing of every block in code order, then the run report) on
# each benchmark of `paradbt -list`, under the default x86 para config
# and under `-backend risc -peephole`. Fails naming the first benchmark
# whose output differs or on which either paradbt fails.
#   make emit-diff BASE=HEAD~1
emit-diff:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/base"; git archive $(BASE) | tar -x -C "$$tmp/base"; \
	(cd "$$tmp/base" && $(GO) build -o "$$tmp/paradbt.base" ./cmd/paradbt); \
	$(GO) build -o "$$tmp/paradbt.change" ./cmd/paradbt; \
	for cfg in x86 risc; do \
		flags=; [ $$cfg = risc ] && flags="-backend risc -peephole"; \
		for b in $$("$$tmp/paradbt.change" -list); do \
			for side in base change; do \
				"$$tmp/paradbt.$$side" -bench $$b $$flags -dump-blocks 100000 >"$$tmp/$$side.out" 2>&1 || \
					{ echo "emit-diff: $$b ($$cfg) paradbt.$$side failed"; tail -3 "$$tmp/$$side.out"; exit 1; }; \
			done; \
			grep -q '^host code:' "$$tmp/change.out" || { echo "emit-diff: $$b ($$cfg) printed no listing"; cat "$$tmp/change.out"; exit 1; }; \
			cmp -s "$$tmp/base.out" "$$tmp/change.out" || { echo "emit-diff: $$b ($$cfg) differs from $(BASE)"; exit 1; }; \
		done; \
	done; \
	echo "emit-diff: every benchmark's listing is byte-identical to $(BASE) on x86 and risc -peephole"

# Static audit of every block the workload suite translates, via the
# translation validator (JSON verdicts on stdout; see docs/ANALYSIS.md
# "Translation validation").
codeaudit:
	$(GO) run ./cmd/codeaudit -summary

# The disabled-telemetry overhead guard (must stay 0 allocs/op, ~sub-ns).
bench-obs:
	$(GO) test -run NONE -bench BenchmarkObsDisabledOverhead -benchmem ./internal/obs

experiments:
	$(GO) run ./cmd/experiments
