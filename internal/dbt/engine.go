// Package dbt implements the dynamic binary translator: a block-at-a-time
// translation engine with a sharded code cache, translation-block
// chaining, per-block guest-register allocation, a rule-based fast path
// fed by the (optionally parameterized) rule store, a TCG emulation
// fallback for everything the rules do not cover, and condition-flag
// delegation at rule-application time.
//
// Execution follows QEMU's dispatcher design: blocks are translated
// once into the 16-shard code cache, and block exits with statically
// known successors are lazily patched into direct links so chained
// execution skips the dispatcher entirely (Config.NoChain restores the
// dispatch-every-block ablation baseline).
//
// Translation itself is one immutable translator (translate.go): a pure
// function of {code bytes, rule store, backend, codegenOptions} with no
// guest memory, CPU or statistics of its own. The Engine holds one and
// calls it on demand misses, and a tenant of a shared Service runs the
// service's translator on its own Run goroutine when it leads a
// single-flight miss. Everything that translates off the Run goroutine
// — speculative successor pre-translation from a code snapshot
// (Config.TranslateWorkers) and asynchronous superblock formation —
// runs as jobs on the engine's two-priority worker pool (pool.go)
// through one panic-to-PanicError wrapper. The pool is dumb; staleness
// stays with the submitter (first-writer-wins cache inserts,
// cacheGen-stamped superblock results).
//
// Every evaluation metric — dynamic coverage, dispatch/chain traffic,
// category-tagged host instruction counts — is counted on atomic
// internal/obs counters registered per engine; Run returns them as a
// Stats delta snapshot, and LiveStats or a shared Config.Metrics
// registry (cmd/paradbt -metrics-addr) reads them safely mid-run.
// Translate/lookup/chain/invalidate latency histograms and the
// execution-trace ring (Config.Trace) are recorded only while
// obs.On(), keeping the disabled hot path at a single atomic load
// (BenchmarkObsDisabledOverhead).
package dbt

import (
	"cmp"
	"fmt"
	"os"
	"slices"
	"time"

	"paramdbt/internal/analysis"
	"paramdbt/internal/artifact"
	"paramdbt/internal/backend"
	"paramdbt/internal/env"
	"paramdbt/internal/guard"
	"paramdbt/internal/guest"
	"paramdbt/internal/host"
	"paramdbt/internal/mem"
	"paramdbt/internal/obs"
	"paramdbt/internal/rule"
)

// HaltPC is the sentinel next-PC meaning the guest executed HLT.
const HaltPC = 0xffffffff

// maxBlockInsts caps translation-block length (long straight-line runs
// occur in big generated functions).
const maxBlockInsts = 512

// Config selects the translation strategy; the experiment harness builds
// one Engine per paper configuration. Rules, Backend and the three
// codegen knobs (DelegateFlags, ManualABI, Peephole — see
// codegenOptions) are everything translation output depends on besides
// the guest code bytes, and what a shared Service compares at attach;
// every other field is per-engine policy.
type Config struct {
	// Rules is the rule store (nil for the pure-QEMU baseline).
	Rules *rule.Store
	// Backend is the host backend the engine translates for: register
	// policy, instruction emitter, encoder and finalize pass (see
	// internal/backend). Nil selects backend.Default(), i.e. x86 or the
	// PARAMDBT_BACKEND environment override. New rekeys the rule store
	// and namespaces the code cache by the backend id, so stores and
	// caches never alias across backends.
	Backend backend.Backend
	// DelegateFlags enables condition-flag delegation and the use of
	// derived flag-setting rules (the paper's "condition" factor).
	DelegateFlags bool
	// ManualABI adds the hand-written translations for the instructions
	// learning can never cover (push/pop/clz/mla/umla, and the pure-stub
	// control terminators) — the paper's §V-B2 path to ~100% coverage.
	ManualABI bool
	// TranslateWorkers turns on speculative translation for the duration
	// of each Run, with this many workers in the engine's background pool
	// (0 = off; the pool then has the one worker asynchronous superblock
	// formation needs): direct successor blocks discovered at block-emit
	// time are translated ahead of execution from a code snapshot.
	// Results are deterministic: workers only pre-warm the code cache.
	TranslateWorkers int
	// NoChain disables translation-block chaining, forcing every block
	// boundary back through the dispatcher — the ablation baseline the
	// bench's nochain arm measures.
	NoChain bool
	// HotThreshold enables hot-trace superblock formation: a block whose
	// entry count crosses the threshold is grown into a trace along its
	// hottest recorded direct-link edges and retranslated as one
	// superblock with trace-wide register allocation, cross-block dead
	// flag-store elimination and side-exit stubs (see superblock.go and
	// docs/ARCHITECTURE.md "Hot traces & superblocks"). 0 — the default —
	// disables formation entirely; the dispatch loop then skips all hot
	// counting, so the feature's cold cost is zero. Formation needs the
	// chaining profile, so NoChain also disables it.
	HotThreshold uint64
	// TraceMaxBlocks caps trace length in basic blocks (default 8 when
	// HotThreshold is set).
	TraceMaxBlocks int
	// TraceBudget caps how many traces one engine may form (0 = no
	// cap). Trace translation is paid on the run, so a budget keeps the
	// long tail of barely-hot heads from costing more in translation
	// than their superblocks ever save — the same reason tiered JITs
	// bound their compile queues. The earliest heads to cross
	// HotThreshold claim the budget, which on loopy workloads are the
	// hottest ones.
	TraceBudget int
	// SyncTraces forms superblocks synchronously on the dispatch loop
	// instead of handing them to the background pool.
	// Deterministic — the superblock is installed before the head
	// executes again — but puts trace translation latency on the run's
	// critical path, which on short workloads costs more than the
	// superblocks save. Tests that assert on formation timing use it;
	// production runs should leave it off.
	SyncTraces bool
	// TraceBlock, when non-nil, is called with the guest pc of every
	// block entered, in execution order (debug/test hook; the chaining
	// correctness test reconstructs instruction traces from it).
	TraceBlock func(pc uint32)
	// Metrics, when non-nil, is the registry the engine registers its
	// counters and latency histograms in; nil gives the engine a private
	// registry (read it back via Engine.Metrics). Share a registry (e.g.
	// obs.Default) to expose a live engine on a /metrics endpoint; do
	// not share one across concurrently running engines whose per-run
	// Stats deltas must stay separable.
	Metrics *obs.Registry
	// Trace, when non-nil, records every block transition (dispatch vs
	// chained), demand translation and invalidation into the ring; the
	// retained tail is dumped to stderr if Run panics, and on demand via
	// TraceRing.Dump / the -metrics-addr /trace endpoint.
	Trace *obs.TraceRing

	// ShadowRate enables shadow differential verification: each block
	// execution is, with this probability, also executed on the reference
	// interpreter from the same pre-block state and the two compared (see
	// docs/ROBUSTNESS.md). 0 disables steady-state sampling; 1 verifies
	// everything. Divergences are recovered (the interpreter result
	// wins), blamed rules are quarantined and their blocks purged. Any
	// positive rate also verifies the first execution of every block —
	// fresh translations are the risky ones — and lets Run execute a
	// block on the reference interpreter when its translation fails
	// persistently, instead of aborting the run.
	ShadowRate float64
	// ShadowSeed seeds the sampling RNG for reproducible runs.
	ShadowSeed int64
	// AdaptiveShadow enables the per-tenant adaptive guard controller
	// (guard.Controller, docs/SERVING.md): the effective shadow rate
	// starts at ShadowRate and decays exponentially with consecutive
	// verified-clean checks toward the controller's 0.01 floor, snapping
	// back to ShadowRate on any divergence or quarantine event. The
	// first-execution check is untouched: fresh translations are always
	// verified.
	AdaptiveShadow bool
	// ShadowHalfLife is how many consecutive clean checks halve the
	// adaptive rate (default 64). Only read when AdaptiveShadow is set.
	ShadowHalfLife uint64

	// Service, when non-nil, attaches the engine to a shared translation
	// service (see Service and docs/SERVING.md): demand misses are
	// resolved through the service's single-flight prototype cache and
	// the engine adopts shared prototype translations instead of
	// translating privately. The attachment is refused — silently, the
	// engine then behaves exactly as without it — when the
	// configurations disagree on anything translation-relevant (backend,
	// rule store, codegen knobs) or when fault injection is configured
	// (injected faults must stay inside one engine). Any service error
	// (shutdown, translation failure) falls back to the local
	// translation path.
	Service *Service
	// ArtifactDir, when non-empty, points the engine at a warm-start
	// artifact store (internal/artifact; docs/PERSISTENCE.md). New
	// applies the store's quarantine shard to the rule table, then
	// restores the translated blocks and superblock traces recorded for
	// this exact (guest code, backend, rule table, engine version) key —
	// through the normal translation path, so restored code is as
	// verified as demand-translated code. A Run ending in a clean HLT
	// publishes the cache contents and merges run-time quarantine
	// demotions back into the shard. Every failure mode degrades to a
	// cold start (see Engine.WarmStats).
	ArtifactDir string

	// Faults, when non-nil, injects faults into translation, the code
	// cache and the speculative workers (see internal/guard/faultinject
	// and the FaultInjector interface). An injector that additionally
	// implements CodePokes(n) gets to write guest code words before each
	// block entry — the deterministic SMC campaigns (see smc.go). Like
	// shadow verification it turns on the reference-interpreter fallback
	// for blocks whose translation fails persistently.
	Faults FaultInjector

	// Peephole enables the post-Finalize peephole optimizer for backends
	// that implement backend.Optimizer (today: risc). An optimized
	// stream is installed only when analysis.ValidateRewrite proves it
	// equivalent to the finalized stream it was optimized from; anything
	// else keeps the finalized stream and counts a
	// dbt.validate_fallbacks. See docs/ANALYSIS.md "Licensing the
	// peephole".
	Peephole bool
}

// Stats is a snapshot of the evaluation metrics. The live counts are
// atomic obs counters owned by the engine (see metrics.go); Run returns
// the delta accumulated during that run, and LiveStats reads the
// engine-lifetime totals at any time, including concurrently with Run.
type Stats struct {
	GuestExec   uint64 // dynamic guest instructions
	RuleCovered uint64 // of which rule-translated (dynamic coverage)
	Blocks      int    // distinct blocks executed (first entries)
	SeqRuleUses uint64 // dynamic guest insts covered by multi-insn rules

	// Dispatches counts dispatcher round trips: block entries that went
	// through the code-cache lookup in the Run loop. ChainedExits counts
	// block transitions that instead followed a patched direct link from
	// the previous block, skipping the dispatcher. Their sum is the total
	// number of block entries.
	Dispatches   uint64
	ChainedExits uint64

	// Translations counts demand translations performed during the run.
	// A warm-started engine restores its code cache in New, before any
	// Run begins, so this stays near zero on a warm replay — the
	// headline number of the warm-start comparison (experiments -only
	// warmstart).
	Translations uint64

	// Hot-trace superblock counters (zero unless Config.HotThreshold is
	// set). TracesFormed counts traces promoted to superblocks,
	// SuperblockExecs the block entries that ran a superblock (a subset
	// of Dispatches+ChainedExits), SideExits the superblock runs that
	// left the trace early through a side-exit stub.
	TracesFormed    uint64
	SuperblockExecs uint64
	SideExits       uint64

	// Self-modifying-code counters (zero unless guest code pages are
	// written; see docs/ROBUSTNESS.md "Self-modifying code").
	// SMCInvalidations counts translations fenced out after guest writes
	// into translated pages, SMCSelfAborts executions aborted because
	// they stored into their own guest bytes, SBBuilderPanics background
	// trace-formation panics absorbed (the trace is demoted to per-block
	// execution instead of the worker dying).
	SMCInvalidations uint64
	SMCSelfAborts    uint64
	SBBuilderPanics  uint64

	// Translation-validation counters (zero unless Config.Peephole is
	// set), one per peephole candidate. BlocksValidated counts the
	// candidates the rewrite proof licensed (the optimized stream was
	// installed), ValidateFallbacks the rest (inconclusive or refuted:
	// the engine kept the finalized stream).
	BlocksValidated   uint64
	ValidateFallbacks uint64

	// UncoveredOps breaks down emulated instructions by opcode — the
	// analysis behind the paper's "seven uncoverable instructions".
	UncoveredOps map[guest.Op]uint64

	// Guarded-execution counters (zero unless the guard layer is on;
	// see docs/ROBUSTNESS.md). ShadowChecks counts verified block
	// executions, Divergences the ones that disagreed with the
	// reference interpreter. QuarantinedRules counts rules demoted
	// during the run, PanicsRecovered translator panics converted to
	// quarantine-and-retry, InterpFallbacks blocks executed by the
	// reference interpreter after persistent translation failure.
	ShadowChecks     uint64
	Divergences      uint64
	QuarantinedRules uint64
	PanicsRecovered  uint64
	InterpFallbacks  uint64

	// RateSnaps counts adaptive-controller snap-backs to the base
	// shadow rate (divergence or quarantine while AdaptiveShadow is
	// on; always zero otherwise).
	RateSnaps uint64
}

// ChainRate returns the fraction of block transitions that bypassed the
// dispatcher via block chaining.
func (s Stats) ChainRate() float64 {
	total := s.Dispatches + s.ChainedExits
	if total == 0 {
		return 0
	}
	return float64(s.ChainedExits) / float64(total)
}

// SuperblockShare returns the fraction of block entries that ran a
// hot-trace superblock.
func (s Stats) SuperblockShare() float64 {
	total := s.Dispatches + s.ChainedExits
	if total == 0 {
		return 0
	}
	return float64(s.SuperblockExecs) / float64(total)
}

// SideExitRate returns the fraction of superblock executions that left
// the trace early through a side exit (high rates mean the profile that
// formed the trace no longer matches execution).
func (s Stats) SideExitRate() float64 {
	if s.SuperblockExecs == 0 {
		return 0
	}
	return float64(s.SideExits) / float64(s.SuperblockExecs)
}

// Coverage returns the dynamic coverage fraction.
func (s Stats) Coverage() float64 {
	if s.GuestExec == 0 {
		return 0
	}
	return float64(s.RuleCovered) / float64(s.GuestExec)
}

// Engine is one DBT instance bound to a memory image.
type Engine struct {
	Cfg   Config
	Mem   *mem.Memory
	CPU   *host.CPU
	cache *codeCache
	tr    *translator // the pipeline itself: rules, backend, codegen knobs
	tx    txctx       // translation scratch (Run goroutine only)
	met   *engineMetrics
	guard *guardState // non-nil when shadow verification is configured
	// shadow is the sampled execution in flight (guarded Run only): the
	// reference interpreter's result and write set, kept between
	// shadowBegin and shadowCheck.
	shadow shadowCtx

	// svc/tnt are the shared translation service and this engine's
	// tenant registration (nil when Config.Service is unset or the
	// attachment was refused). The SMC fence detaches mid-run — the
	// tenant's code no longer matches its registered snapshot — after
	// which the engine translates locally (see smcFence).
	svc *Service
	tnt *tenant

	// Superblock bookkeeping (Run goroutine only): sbIndex maps every
	// constituent pc of an installed superblock to the superblocks
	// covering it, so Invalidate on a mid-trace pc tears the whole trace
	// down; sbBan marks heads whose superblock shadow-diverged —
	// formation is never retried there (see shadowCheck).
	sbIndex map[uint32][]*tblock
	sbBan   map[uint32]bool
	// cacheGen counts invalidation events (Invalidate, quarantine
	// purges); a background superblock result stamped with an older
	// generation was translated from state that no longer holds and is
	// discarded instead of installed.
	cacheGen uint64
	// sbSpent counts traces formed plus superblock jobs in flight against
	// Config.TraceBudget (Run goroutine only).
	sbSpent int

	// Background translation (Run goroutine only). bg is the worker pool,
	// started by background and closed by closeBackground. specCode is the
	// code snapshot speculative jobs decode from — non-nil exactly while
	// speculation is on (a Run with TranslateWorkers > 0, until the first
	// guest code write). sbResults carries finished superblock jobs back
	// to the dispatch loop, which alone may install over live cache
	// entries; sbPending marks heads with a job queued, sbInFlight counts
	// queued minus drained.
	bg         *pool
	specCode   *mem.Memory
	sbResults  chan sbResult
	sbPending  map[uint32]bool
	sbInFlight int

	// Warm-start persistence (nil/zero unless Config.ArtifactDir is
	// set): art is the open store, artKey the engine's four-component
	// lookup key, warm the restore outcome (see artifact.go).
	art    *artifact.Store
	artKey artifact.Key
	warm   WarmStats
}

// tblock is one cached translation. The hb/insts/counter fields are
// immutable after construction (safe to publish through the cache); the
// link and seen fields are owned by the goroutine driving Run.
type tblock struct {
	hb        *host.Block
	insts     []guest.Inst // decoded guest block, reused instead of re-decoding
	nGuest    uint64
	nCovered  uint64
	nSeq      uint64
	uncovered []guest.Op

	// rules lists the distinct rule templates whose host code this
	// block contains — the provenance the guard layer's blame isolation
	// walks when a shadow-verification divergence implicates the block.
	// flagsExact reports that the block materializes every NZCV update
	// into the CPUState words (no delegation, no branch-tail rule), so
	// the shadow verifier may compare flags. Both are immutable after
	// construction; execs counts executions and is owned by the
	// goroutine driving Run, like seen.
	rules      []*rule.Template
	flagsExact bool
	execs      uint64

	// links are the block's direct-exit slots (branch target and/or
	// fallthrough), patched lazily as targets get translated so chained
	// execution skips the dispatcher. incoming records links in other
	// blocks that point here, so Invalidate can tear them down safely.
	// seen marks the first execution (drives Stats.Blocks).
	links    []blockLink
	linkBuf  [2]blockLink // backs a basic block's links: no allocation
	incoming []*blockLink
	seen     bool

	// Superblock state, all owned by the goroutine driving Run: hot
	// counts entries while formation is enabled (Config.HotThreshold),
	// sbTries backs off repeated failed formation attempts at this head
	// geometrically, and sb — non-nil only on a superblock translation —
	// carries the trace-level bookkeeping (see superblock.go).
	hot     uint64
	sbTries uint8
	sb      *sbMeta

	// SMC metadata (see smc.go), set once on the Run goroutine before
	// the translation first executes: smcRanges are the guest [lo,hi)
	// byte ranges the translation was decoded from (one per superblock
	// constituent), hasStores whether it contains guest store
	// instructions, smcDone that both are computed and the ranges'
	// pages registered with the write tracker.
	hasStores bool
	smcDone   bool
	smcRanges [][2]uint32
}

// blockLink is one direct-exit slot: the static successor pc plus the
// lazily patched pointer to its translation (nil until linked). hits
// counts how often execution followed the edge — the profile trace
// formation grows along (recorded only while HotThreshold is set).
type blockLink struct {
	target uint32
	to     *tblock
	hits   uint64
}

// follow returns the linked translation for next, if already patched.
func (tb *tblock) follow(next uint32) *tblock {
	for i := range tb.links {
		if tb.links[i].target == next {
			return tb.links[i].to
		}
	}
	return nil
}

// bumpHit records that execution followed the edge to next — the
// profile trace formation reads. Called only while HotThreshold is set.
func (tb *tblock) bumpHit(next uint32) {
	for i := range tb.links {
		if tb.links[i].target == next {
			tb.links[i].hits++
			return
		}
	}
}

// patch records to as the translation of next in the matching link
// slot(s) and registers the back-reference for safe teardown. It
// reports how many slots it patched.
func (tb *tblock) patch(next uint32, to *tblock) int {
	n := 0
	for i := range tb.links {
		l := &tb.links[i]
		if l.target == next && l.to == nil {
			l.to = to
			to.incoming = append(to.incoming, l)
			n++
		}
	}
	return n
}

// New creates an engine over the given memory. The CPUState block and
// host stack are established per the env layout.
func New(m *mem.Memory, cfg Config) *Engine {
	if cfg.HotThreshold > 0 && cfg.TraceMaxBlocks <= 0 {
		cfg.TraceMaxBlocks = defaultTraceMaxBlocks
	}
	cpu := host.NewCPU(m)
	cpu.R[host.EBP] = env.StateBase
	cpu.R[host.ESP] = env.HostStackTop
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if cfg.Trace != nil {
		reg.SetTraceRing(cfg.Trace)
	}
	met := newEngineMetrics(reg)
	tr := newTranslator(&cfg, met.blocksValidated, met.validateFallbacks)
	e := &Engine{Cfg: cfg, Mem: m, CPU: cpu, cache: newCodeCache(tr.be.ID()), tr: tr, met: met}
	if cfg.ShadowRate > 0 {
		e.guard = &guardState{sampler: guard.NewSampler(guard.Policy{
			Rate:   cfg.ShadowRate,
			FirstN: 1,
			Seed:   cfg.ShadowSeed,
		})}
		if cfg.AdaptiveShadow {
			e.guard.ctrl = guard.NewController(guard.ControllerPolicy{
				BaseRate: cfg.ShadowRate,
				HalfLife: cfg.ShadowHalfLife,
			})
			e.guard.sampler.SetRate(e.guard.ctrl.Rate())
		}
	}
	if cfg.Service != nil && cfg.Faults == nil {
		// A refused attachment leaves the engine a plain single-tenant
		// translator.
		if t := cfg.Service.attach(tr, m); t != nil {
			e.svc, e.tnt = cfg.Service, t
		}
	}
	// Install write tracking before the warm restore: restored
	// translations register their pages exactly like demand-translated
	// ones.
	m.EnableWriteTracking()
	e.initArtifacts()
	return e
}

// Metrics returns the registry holding the engine's counters and
// latency histograms (Config.Metrics, or the engine-private registry).
func (e *Engine) Metrics() *obs.Registry { return e.met.reg }

// LiveStats snapshots the engine-lifetime counter totals. Unlike Run's
// return value it can be read at any time, from any goroutine — the
// counters are atomic. A running engine publishes its per-block counters
// (guest instructions, rule coverage, dispatches, chained exits) every
// publishEvery block executions, so mid-run they trail by at most that
// many blocks; once Run returns they are exact. UncoveredOps is not part
// of the live set (it is accumulated per run); the returned map is nil.
func (e *Engine) LiveStats() Stats { return e.met.delta(statsBase{}) }

// SetGuestState writes a guest architectural state into the CPUState.
func (e *Engine) SetGuestState(st *guest.State) { writeGuestState(e.Mem, st) }

// GuestState reads the guest architectural state out of the CPUState.
func (e *Engine) GuestState() *guest.State {
	st := new(guest.State)
	readGuestState(e.Mem, st)
	return st
}

// Run executes guest code from entry until HLT, collecting statistics.
// maxHostSteps bounds total host instructions (runaway protection).
//
// Block transitions prefer the chain fast path: when the previous block
// recorded a direct link to the next pc, execution continues straight
// into the linked translation without the dispatcher's cache lookup.
// Links are patched in lazily the first time the dispatcher resolves a
// direct-exit target that has been translated.
func (e *Engine) Run(entry uint32, maxHostSteps uint64) (stats Stats, err error) {
	base := e.met.base()
	// Emulated instructions by opcode, bumped once per uncovered op of
	// every block execution: an array indexed by the (uint8) opcode, made
	// into Stats.UncoveredOps' map only when the run ends.
	var uncovered [1 << 8]uint64
	// The per-block product counters, published every publishEvery block
	// executions and here, on every way out of Run.
	var pend runCounts
	snapshot := func() Stats {
		pend.publish(e.met)
		st := e.met.delta(base)
		st.UncoveredOps = map[guest.Op]uint64{}
		for op, n := range uncovered {
			if n != 0 {
				st.UncoveredOps[guest.Op(op)] = n
			}
		}
		return st
	}
	// A service-attached tenant never speculates: its misses are
	// translated once for every tenant by the service's single-flight
	// leader, on demand. The snapshot is code-only: translation
	// reads nothing else, and cloning the full image made turning
	// speculation on cost more than chaining ever saved on short runs.
	if e.Cfg.TranslateWorkers > 0 && e.svc == nil {
		e.specCode = e.Mem.CloneBelow(env.DataBase)
	}
	// Superblock jobs still in flight at exit are discarded with the pool
	// and hand their TraceBudget claims back — a later Run on this engine
	// may form those traces.
	defer func() {
		e.closeBackground()
		e.specCode = nil
		// Whatever the last execution armed: stores made between Runs are
		// the caller's and must not pile up in the journal.
		e.Mem.DisarmSMC()
	}()
	pc := entry
	var prev *tblock
	sampled := false // the block in flight is being shadow-verified
	// A panic escaping to here (a translator or simulator bug the
	// guarded translation path could not absorb) must not take the
	// process down with partially-applied block effects: when the block
	// in flight was sampled its stores are in the undo journal, so unwind
	// to the pre-block image; leave the architectural PC at the faulting
	// block so the run is resumable, and surface the cause as a typed
	// error (errors.Is(err, ErrTranslatorPanic)).
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if e.Cfg.Trace != nil {
			fmt.Fprintf(os.Stderr, "dbt: panic in Run: %v\n", r)
			e.Cfg.Trace.Dump(os.Stderr)
		}
		e.met.panicsUnrecovered.Inc()
		if sampled {
			e.Mem.RollbackJournal()
			writeGuestState(e.Mem, &e.shadow.pre)
		}
		e.Mem.Write32(env.StateBase+uint32(env.OffReg(int(guest.PC))), pc)
		stats = snapshot()
		err = &PanicError{PC: pc, Cause: r}
	}()
	// The dispatch loop is the engine's hottest Go code: configuration
	// reads are hoisted out of it, and the host step budget is tracked in
	// a local accumulated from each block's ExitResult instead of calling
	// CPU.Total (three counter loads) twice per iteration.
	noChain := e.Cfg.NoChain
	ring := e.Cfg.Trace
	traceBlock := e.Cfg.TraceBlock
	faults := e.Cfg.Faults
	hotOn := e.Cfg.HotThreshold > 0 && !noChain
	guarded := e.guard != nil
	// Guarded runs degrade gracefully instead of aborting: a block whose
	// translation fails persistently runs on the reference interpreter.
	interpFallback := guarded || faults != nil
	var poker codePoker
	if faults != nil {
		poker, _ = faults.(codePoker)
	}
	var entries uint64         // block entries, the ordinal CodePokes keys on
	hostSteps := e.CPU.Total() // budget is engine-lifetime host work
	var fallbackSteps uint64   // interpreter-fallback work, counted against the budget
	for pc != HaltPC {
		// Deterministic SMC fault injection: apply this entry's guest code
		// writes through the tracked store path, so they exercise exactly
		// the machinery a guest store does.
		if poker != nil {
			entries++
			for _, pw := range poker.CodePokes(entries) {
				e.Mem.Write32(pw[0], pw[1])
			}
		}
		// The SMC fence: a store since the last entry dirtied a page
		// holding translated code — invalidate every overlapping
		// translation before following a chain link or dispatching, and
		// break the chain (prev may itself have been invalidated).
		if e.Mem.CodeDirty() {
			e.smcFence()
			prev = nil
		}
		// Install any superblocks the background pool finished. Doing
		// this before chain-follow/dispatch means a head installed here is
		// entered through its superblock on this very iteration (installSB
		// repoints the incoming chain links).
		if e.sbInFlight > 0 {
			e.drainSB()
		}
		var tb *tblock
		chained := false
		if prev != nil && !noChain {
			if hotOn {
				prev.bumpHit(pc)
			}
			tb = prev.follow(pc)
		}
		if tb != nil {
			chained = true
			pend.chained++
		} else {
			if faults != nil {
				if sh, ok := faults.DropCacheShard(); ok {
					e.dropShard(sh)
				}
			}
			pend.dispatches++
			var terr error
			tb, terr = e.block(pc)
			if terr != nil {
				if interpFallback {
					next, n, ferr := e.interpFallbackBlock(pc)
					if ferr == nil {
						e.met.interpFallbacks.Inc()
						pend.guest += n
						fallbackSteps += n
						if ring != nil {
							ring.Record(obs.EvFallback, pc)
						}
						prev = nil
						pc = next
						continue
					}
				}
				return snapshot(), fmt.Errorf("dbt: translating block at %#x: %w", pc, terr)
			}
			if prev != nil && !noChain {
				if obs.On() {
					t0 := time.Now()
					n := prev.patch(pc, tb)
					e.met.chainNs.ObserveSince(t0)
					e.met.chainPatches.Add(uint64(n))
				} else {
					prev.patch(pc, tb)
				}
			}
		}
		if hotOn && tb.sb == nil {
			tb = e.maybeSuperblock(pc, tb)
		}
		if !tb.seen {
			tb.seen = true
			e.met.blocks.Inc()
		}
		sb := tb.sb
		if ring != nil {
			k := obs.EvDispatch
			if sb != nil {
				k = obs.EvSuperblock
			} else if chained {
				k = obs.EvChained
			}
			ring.Record(k, pc)
		}
		if traceBlock != nil && sb == nil {
			traceBlock(pc)
		}
		if guarded {
			tb.execs++
			sampled = e.guard.sampler.Select(tb.execs)
		}
		if hostSteps+fallbackSteps >= maxHostSteps {
			return snapshot(), fmt.Errorf("dbt: host step budget exhausted at pc=%#x", pc)
		}
		if sampled {
			// The reference interpreter goes first, over live memory, and
			// is rolled back; the journal comes back armed for the
			// translated pass.
			e.shadowBegin(tb, pc)
		} else {
			// Arm self-range detection and the undo journal for this
			// execution (a no-op pair of clears when the translation has no
			// guest stores).
			e.Mem.ArmSMC(tb.hasStores, tb.smcRanges)
		}
		if sb != nil {
			// Arm the exit slot with the full-trace marker; side-exit
			// stubs overwrite it with their seam index (see superblock.go).
			e.Mem.Write32(env.StateBase+env.OffSBExit, uint32(len(sb.pcs)-1))
		}
		res, xerr := e.CPU.Exec(tb.hb, maxHostSteps-hostSteps-fallbackSteps)
		if e.Mem.SMCSelfHit() {
			// The translation stored into its own guest bytes: its host
			// code was stale from that store on (this also covers xerr —
			// garbled stale code may fail outright). Roll back, replay on
			// the interpreter to the precise exit, fence, and resume
			// through the dispatcher.
			next, n, aerr := e.smcSelfAbort(tb, pc)
			if aerr != nil {
				return snapshot(), aerr
			}
			hostSteps = e.CPU.Total()
			fallbackSteps += n
			sampled = false
			prev = nil
			pc = next
			continue
		}
		if xerr != nil {
			return snapshot(), fmt.Errorf("dbt: executing block at %#x: %w\n%s", pc, xerr, tb.hb.Listing())
		}
		hostSteps += res.Steps
		nexec := 0 // superblock: constituent blocks executed
		if pend.execs++; pend.execs == publishEvery {
			pend.publish(e.met)
		}
		if sb == nil {
			pend.guest += tb.nGuest
			pend.covered += tb.nCovered
			pend.seq += tb.nSeq
			for _, op := range tb.uncovered {
				uncovered[op]++
			}
		} else {
			nexec = int(e.Mem.Read32(env.StateBase+env.OffSBExit)) + 1
			if nexec > len(sb.pcs) {
				nexec = len(sb.pcs)
			}
			e.met.superblockExecs.Inc()
			if nexec < len(sb.pcs) {
				e.met.sideExits.Inc()
			}
			pend.guest += sb.cumGuest[nexec]
			pend.covered += sb.cumCovered[nexec]
			pend.seq += sb.cumSeq[nexec]
			for j := 0; j < nexec; j++ {
				for _, op := range sb.uncovered[j] {
					uncovered[op]++
				}
			}
			if traceBlock != nil {
				for j := 0; j < nexec; j++ {
					traceBlock(sb.pcs[j])
				}
			}
		}
		if sampled {
			next, verdict := e.shadowCheck(tb, pc, res.NextPC)
			sampled = false
			// Feed the adaptive controller, if configured: clean checks
			// decay the steady-state rate, a divergence snaps it back, and
			// an execution that could not be verified does neither.
			switch verdict {
			case shadowClean:
				e.guardClean()
			case shadowDiverged:
				e.guardEvent()
				// The block's translation was purged; break the chain and
				// resume from the corrected state.
				prev = nil
				pc = next
				continue
			}
		}
		prev = tb
		pc = res.NextPC
	}
	// Keep the architectural PC in the CPUState coherent.
	e.Mem.Write32(env.StateBase+uint32(env.OffReg(int(guest.PC))), pc)
	// A clean halt is the only point the cache is known-good end to end
	// (every resident translation just carried the run): publish it.
	e.publishArtifacts()
	return snapshot(), nil
}

// block returns the translated block at pc, translating on a miss and
// seeding the speculative queue with the block's direct successors.
// While obs is enabled it times the cache lookup and the demand
// translation into the engine's histograms.
func (e *Engine) block(pc uint32) (*tblock, error) {
	on := obs.On()
	var t0 time.Time
	if on {
		t0 = time.Now()
	}
	tb, ok := e.cache.get(pc)
	if on {
		e.met.lookupNs.ObserveSince(t0)
	}
	if ok {
		if !tb.smcDone {
			// First dispatch of a worker-inserted translation: compute its
			// SMC metadata and register its pages here, on the Run
			// goroutine (superblocks get theirs in installSB).
			e.initSMCMeta(pc, tb)
		}
		return tb, nil
	}
	if on {
		t0 = time.Now()
	}
	tb = nil
	if e.svc != nil {
		// Shared-service path: the miss becomes a single-flight request.
		// Exactly one tenant per fresh translation is the leader — it
		// translates here, with e.tx, and counts it — so summing
		// dbt.translations across tenants equals the translation work
		// actually performed. Any service error — shutdown, a failed
		// translation — falls through to the local path below, which owns
		// error reporting and the guarded retry machinery.
		if proto, leader, err := e.svc.request(e.tnt, pc, &e.tx); err == nil {
			tb = e.adoptProto(pc, proto)
			if leader {
				e.met.translations.Inc()
			}
		}
	}
	if tb == nil {
		var err error
		if e.guard != nil || e.Cfg.Faults != nil {
			tb, err = e.translateGuarded(pc)
		} else {
			tb, err = e.tr.translate(e.Mem, pc, &e.tx, nil, nil)
		}
		if err != nil {
			return nil, err
		}
		e.met.translations.Inc()
	}
	if on {
		e.met.translateNs.ObserveSince(t0)
	}
	if e.Cfg.Trace != nil {
		e.Cfg.Trace.Record(obs.EvTranslate, pc)
	}
	tb = e.cache.putIfAbsent(pc, tb)
	if !tb.smcDone {
		e.initSMCMeta(pc, tb)
	}
	if on {
		e.met.cachedBlocks.Set(int64(e.cache.size()))
	}
	if e.specCode != nil {
		e.speculate(e.background(), e.specCode, tb)
	}
	return tb, nil
}

// background returns the engine's worker pool, starting it on first use:
// TranslateWorkers workers, or the single one asynchronous superblock
// formation needs when speculation is off.
func (e *Engine) background() *pool {
	if e.bg == nil {
		w, specDepth := e.Cfg.TranslateWorkers, specQueueDepth
		if w < 1 {
			w, specDepth = 1, 0 // formation only: no speculative queue
		}
		e.bg = newPool(w, sbQueueDepth, specDepth)
		e.sbResults = make(chan sbResult, sbQueueDepth)
		e.sbPending = map[uint32]bool{}
	}
	return e.bg
}

// closeBackground stops the pool, waiting out the jobs its workers are
// running — so the cache holds every speculative insert once it returns —
// and abandons everything queued or undrained: superblock jobs in flight
// hand their TraceBudget claims back. The next submission starts a fresh
// pool.
func (e *Engine) closeBackground() {
	if e.bg == nil {
		return
	}
	e.bg.close()
	e.bg = nil
	e.sbSpent -= e.sbInFlight
	e.sbInFlight = 0
	e.sbResults, e.sbPending = nil, nil
}

// specQueueDepth bounds the engine's speculative (lo) queue.
const specQueueDepth = 256

// speculate queues the not-yet-translated direct successors of tb as lo
// jobs on p, so workers translate ahead of the execution front and the
// dispatch loop's next miss mostly hits a warm cache. Jobs decode from
// code, the snapshot taken when the Run started, so guest stores never
// race with speculative fetches; a worker-produced block is bit-identical
// to the one demand translation would build, and the cache's
// first-writer-wins insert keeps one canonical translation per pc. A
// full queue drops the hint — speculation is best-effort. p and code are
// arguments, not engine fields, because jobs re-enter here off the Run
// goroutine.
func (e *Engine) speculate(p *pool, code *mem.Memory, tb *tblock) {
	for i := range tb.links {
		pc := tb.links[i].target
		if _, ok := e.cache.get(pc); ok {
			continue
		}
		p.submit(p.lo, func(tx *txctx) {
			// Fault injection loses individual jobs, never a worker — they
			// also form superblocks — so only speculation degrades.
			if f := e.Cfg.Faults; f != nil && f.FailSpecWorker() {
				return
			}
			if _, ok := e.cache.get(pc); ok {
				return
			}
			// A speculative target can be garbage (e.g. a computed pc the
			// program never takes); errors and panics are dropped — if the
			// pc is really executed, the demand path reports them.
			succ, err := recoverTranslate(pc, func() (*tblock, error) {
				return e.tr.translate(code, pc, tx, nil, nil)
			})
			if err != nil {
				return
			}
			if obs.On() {
				e.met.specTranslations.Inc()
			}
			e.speculate(p, code, e.cache.putIfAbsent(pc, succ)) // chase successors ahead of execution
		})
	}
}

// Invalidate removes the translation at pc (after guest code changes)
// and tears down chaining safely: every link pointing at the stale
// block is unpatched, so chained execution can no longer reach it, and
// the next dispatch to pc retranslates. Any superblock whose trace
// covers pc — head or mid-trace — is torn down with it: its host code
// embeds the invalidated block's translation. It reports whether a
// translation existed. Invalidate must not run concurrently with Run.
func (e *Engine) Invalidate(pc uint32) bool {
	on := obs.On()
	var t0 time.Time
	if on {
		t0 = time.Now()
	}
	tb := e.cache.remove(pc)
	covering := e.sbIndex[pc]
	if tb == nil && len(covering) == 0 {
		return false
	}
	// In-flight superblock jobs were grown against the pre-invalidation
	// cache and code image: stamp a new generation and discard them with
	// the pool (closeBackground refunds their TraceBudget claims).
	e.cacheGen++
	e.closeBackground()
	if len(covering) > 0 {
		// teardownSB edits sbIndex[pc]; iterate a copy.
		for _, s := range append([]*tblock(nil), covering...) {
			e.teardownSB(s)
		}
	}
	if tb != nil {
		for _, l := range tb.incoming {
			l.to = nil
		}
		tb.incoming = nil
		for i := range tb.links {
			tb.links[i].to = nil
		}
	}
	if on {
		e.met.invalidateNs.ObserveSince(t0)
		e.met.invalidations.Inc()
		e.met.cachedBlocks.Set(int64(e.cache.size()))
	}
	if e.Cfg.Trace != nil {
		e.Cfg.Trace.Record(obs.EvInvalidate, pc)
	}
	return true
}

// CachedBlocks reports the number of translations currently cached.
func (e *Engine) CachedBlocks() int { return e.cache.size() }

// Translation is one installed unit of the code cache as the offline
// audit reads it: what the translator was given and what it produced.
type Translation struct {
	// Segs are the unit's guest constituents, head first: one for a
	// basic block, every trace block for a superblock.
	Segs []analysis.GuestSeg
	// Host is the installed host stream.
	Host *host.Block
	// FlagsExact reports that the stream keeps the CPUState NZCV words
	// exact at every exit (never for a superblock), so a guest-vs-host
	// check may compare them.
	FlagsExact bool
}

// Translations lists every cached unit, sorted by head pc — the one
// read path over what the engine installed (internal/exp.Audit proves
// each against its guest block offline). Every field it reads is
// immutable once a unit is cached, so a call during Run is race-free and
// sees a point-in-time view per cache shard.
func (e *Engine) Translations() []Translation {
	var out []Translation
	e.cache.each(func(pc uint32, tb *tblock) {
		t := Translation{Host: tb.hb, FlagsExact: tb.flagsExact}
		if tb.sb == nil {
			t.Segs = []analysis.GuestSeg{{PC: pc, Insts: tb.insts}}
		} else {
			t.Segs = make([]analysis.GuestSeg, len(tb.sb.pcs))
			for i, spc := range tb.sb.pcs {
				t.Segs[i] = analysis.GuestSeg{PC: spc, Insts: tb.sb.insts[i]}
			}
		}
		out = append(out, t)
	})
	slices.SortFunc(out, func(a, b Translation) int { return cmp.Compare(a.Segs[0].PC, b.Segs[0].PC) })
	return out
}

// BlockListing translates (or fetches from cache) the block at pc and
// returns its annotated host listing alongside the guest disassembly —
// the debugging view of what the translator produced. The guest
// disassembly reuses the decode results stored in the cached block.
func (e *Engine) BlockListing(pc uint32) (string, error) {
	tb, err := e.block(pc)
	if err != nil {
		return "", err
	}
	s := fmt.Sprintf("guest block @%#x (%d insts, %d rule-covered):\n", pc, tb.nGuest, tb.nCovered)
	s += guest.Disassemble(pc, tb.insts)
	s += "host code:\n" + tb.hb.Listing()
	return s, nil
}

// fetchBlock decodes guest instructions from pc up to and including
// the terminator, reading code from m (the live memory on the demand
// path, a code snapshot for pool jobs), into c.fetch, and returns an
// exact-size copy for the tblock to keep.
func (c *txctx) fetchBlock(m *mem.Memory, pc uint32) ([]guest.Inst, error) {
	c.fetch = c.fetch[:0]
	for len(c.fetch) < maxBlockInsts {
		in, err := guest.Decode(m.Read32(pc + uint32(len(c.fetch)*guest.InstBytes)))
		if err != nil {
			return nil, err
		}
		c.fetch = append(c.fetch, in)
		if isTerminator(in) {
			return own(c.fetch), nil
		}
	}
	return nil, fmt.Errorf("block at %#x exceeds %d instructions without a terminator", pc, maxBlockInsts)
}

func isTerminator(in guest.Inst) bool {
	if in.IsBranch() {
		return true
	}
	if in.Op == guest.POP && in.Ops[0].List&(1<<uint(guest.PC)) != 0 {
		return true
	}
	return false
}
