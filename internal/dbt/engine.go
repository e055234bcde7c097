// Package dbt implements the dynamic binary translator: a block-at-a-time
// translation engine with a code cache, translation-block
// chaining, per-block guest-register allocation, a rule-based fast path
// fed by the (optionally parameterized) rule store, a TCG emulation
// fallback for everything the rules do not cover, and condition-flag
// delegation at rule-application time.
//
// Execution follows QEMU's dispatcher design: blocks are translated
// once into the code cache, and block exits with statically
// known successors are lazily patched into direct links so chained
// execution skips the dispatcher entirely (Config.NoChain restores the
// dispatch-every-block ablation baseline). Unlike QEMU, a block is
// translated only at its third execution: the first two run on the
// reference interpreter, which costs less than translating code that
// never runs again (Config.TranslateFirst restores QEMU's policy).
//
// Translation itself is one immutable translator (translate.go): a pure
// function of {code bytes, rule store, backend, codegenOptions} with no
// guest memory, CPU or statistics of its own. The Engine holds one and
// calls it on demand misses, and a tenant of a shared Service runs the
// service's translator when it leads a single-flight miss. The engine
// starts no goroutines: every block it translates — demand misses and
// service misses — is translated on the goroutine driving Run, when it is needed. So only that goroutine
// touches the code cache, and the cache is one plain map.
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

	"paramdbt/internal/backend"
	"paramdbt/internal/env"
	"paramdbt/internal/guard"
	"paramdbt/internal/guard/faultinject"
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
	// Deprecated: ignored; bench/layers.go still writes it.
	TranslateWorkers int
	// TranslateFirst translates every block the first time it runs, as
	// QEMU does and as the paper measures: coverage, Fig. 11–15 and
	// Table II are defined over translated code, so internal/exp sets it
	// on every engine it builds. The default is interpret-first: a block
	// with no translation runs on the reference interpreter for its first
	// interpRuns executions and is translated at the next one, so code
	// that runs once or twice never pays for a translation. Interpreted
	// executions count in GuestExec, Blocks, Dispatches and the step
	// budget, but not in RuleCovered, SeqRuleUses or UncoveredOps, and
	// take no shadow check (they are their own reference). An engine
	// attached to a Service always translates first: its translations
	// are shared by every tenant.
	TranslateFirst bool
	// NoChain disables translation-block chaining, forcing every block
	// boundary back through the dispatcher — the ablation baseline the
	// bench's nochain arm measures.
	NoChain bool
	// Deprecated: ignored; bench/layers.go still writes it. Hot-trace
	// superblocks are gone (DESIGN.md "Hot traces: does not pay").
	HotThreshold uint64
	// Deprecated: ignored, like HotThreshold.
	TraceBudget int
	// Deprecated: ignored; bench/layers.go still writes it.
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
	// ShadowHalfLife, when positive, makes the shadow rate adaptive
	// (guard.Policy.HalfLife, docs/SERVING.md): it starts at ShadowRate,
	// halves every ShadowHalfLife consecutive verified-clean checks down
	// to guard.MinRate, and snaps back to ShadowRate on any divergence or
	// quarantine event. Zero keeps ShadowRate fixed. The first-execution
	// check is untouched: fresh translations are always verified.
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
	// Faults, when non-nil, injects the plan's faults (see
	// internal/guard/faultinject): translator panics and decode errors
	// into demand translation, and guest code writes before block entries
	// — the deterministic SMC campaigns (see smc.go). Like shadow
	// verification it turns on the reference-interpreter fallback for
	// blocks whose translation fails persistently.
	Faults *faultinject.Injector

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
// It is a plain comparable value; the per-opcode breakdown of a run's
// emulated instructions is Engine.UncoveredOps.
type Stats struct {
	GuestExec   uint64 // dynamic guest instructions
	RuleCovered uint64 // of which rule-translated (dynamic coverage)
	Blocks      int    // distinct block pcs entered, each counted once per engine
	SeqRuleUses uint64 // dynamic guest insts covered by multi-insn rules

	// Dispatches counts dispatcher round trips: block entries that went
	// through the code-cache lookup in the Run loop. ChainedExits counts
	// block transitions that instead followed a patched direct link from
	// the previous block, skipping the dispatcher. Their sum is the total
	// number of block entries.
	Dispatches   uint64
	ChainedExits uint64

	// Translations counts the demand translations this engine performed
	// during the run (an attached tenant counts only those it led).
	Translations uint64

	// Self-modifying-code counters (zero unless guest code pages are
	// written; see docs/ROBUSTNESS.md "Self-modifying code").
	// SMCInvalidations counts translations fenced out after guest writes
	// into translated pages, SMCSelfAborts executions aborted because
	// they stored into their own guest bytes.
	SMCInvalidations uint64
	SMCSelfAborts    uint64

	// Translation-validation counters (zero unless Config.Peephole is
	// set), one per peephole candidate. BlocksValidated counts the
	// candidates the rewrite proof licensed (the optimized stream was
	// installed), ValidateFallbacks the rest (inconclusive or refuted:
	// the engine kept the finalized stream).
	BlocksValidated   uint64
	ValidateFallbacks uint64

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

	// RateSnaps counts adaptive snap-backs to the base shadow rate
	// (divergence or quarantine while ShadowHalfLife is set; always zero
	// otherwise).
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
	cache codeCache
	tr    *translator // the pipeline itself: rules, backend, codegen knobs
	tx    txctx       // translation scratch (Run goroutine only)
	met   *engineMetrics
	guard *guardState // non-nil when shadow verification is configured
	// shadow is the sampled execution in flight (guarded Run only): the
	// reference interpreter's result and write set, kept between
	// shadowBegin and shadowCheck.
	shadow shadowCtx

	// runs has an entry for every pc the engine has entered, so
	// Stats.Blocks counts a pc once however often it is retranslated.
	// The value counts the pc's interpreted executions since it was last
	// translated (interpret-first; see Config.TranslateFirst): install
	// resets it, so a pc retranslated after an invalidation is
	// interpreted again first. ist is the reference interpreter's state
	// for those executions, reused so interpreting a block allocates
	// nothing (Run goroutine only, like both fields).
	runs map[uint32]uint8
	ist  guest.State

	// uncovered counts the last Run's emulated instructions by opcode
	// (the uint8 opcode indexes it); UncoveredOps makes it a map.
	uncovered [1 << 8]uint64

	// svc/tnt are the shared translation service and this engine's
	// tenant registration (nil when Config.Service is unset or the
	// attachment was refused). The SMC fence detaches mid-run — the
	// tenant's code no longer matches its registered snapshot — after
	// which the engine translates locally (see smcFence).
	svc *Service
	tnt *tenant
}

// tblock is one cached translation: an immutable unit (see
// translate.go), embedded by value so the dispatch loop reads it
// without a pointer chase, plus the state the goroutine driving Run
// mutates.
type tblock struct {
	unit

	// links are the unit's direct-exit slots (see unit.directLinks),
	// patched lazily as targets get translated so chained execution skips
	// the dispatcher. incoming records links in other blocks that point
	// here, so Invalidate can tear them down safely.
	links    []blockLink
	linkBuf  [2]blockLink // backs up to two links: no allocation
	incoming []*blockLink

	// execs counts executions (shadow sampling).
	execs uint64
}

// blockLink is one direct-exit slot: the static successor pc plus the
// lazily patched pointer to its translation (nil until linked).
type blockLink struct {
	target uint32
	to     *tblock
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

// unlink tears down tb's chaining in both directions: no link reaches
// it and none of its own is followed.
func (tb *tblock) unlink() {
	for _, l := range tb.incoming {
		l.to = nil
	}
	tb.incoming = nil
	for i := range tb.links {
		tb.links[i].to = nil
	}
}

// New creates an engine over the given memory. The CPUState block and
// host stack are established per the env layout.
func New(m *mem.Memory, cfg Config) *Engine {
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
	e := &Engine{Cfg: cfg, Mem: m, CPU: cpu, cache: codeCache{}, tr: tr, met: met, runs: map[uint32]uint8{}}
	if cfg.ShadowRate > 0 {
		e.guard = &guardState{sampler: guard.NewSampler(guard.Policy{
			Rate:     cfg.ShadowRate,
			HalfLife: cfg.ShadowHalfLife,
			Seed:     cfg.ShadowSeed,
		})}
	}
	if cfg.Service != nil && cfg.Faults == nil {
		// A refused attachment leaves the engine a plain single-tenant
		// translator.
		if t := cfg.Service.attach(tr, m); t != nil {
			e.svc, e.tnt = cfg.Service, t
		}
	}
	m.EnableWriteTracking()
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
// many blocks; once Run returns they are exact.
func (e *Engine) LiveStats() Stats { return e.met.delta(statsBase{}) }

// UncoveredOps breaks down the instructions the last Run emulated
// through the TCG fallback by opcode — the analysis behind the paper's
// "seven uncoverable instructions". Interpreted executions emulate
// nothing and are not in it. Like Run it belongs to the Run goroutine.
func (e *Engine) UncoveredOps() map[guest.Op]uint64 {
	out := map[guest.Op]uint64{}
	for op, n := range e.uncovered {
		if n != 0 {
			out[guest.Op(op)] = n
		}
	}
	return out
}

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
	// every translated execution.
	e.uncovered = [1 << 8]uint64{}
	uncovered := &e.uncovered
	// The per-block product counters, published every publishEvery block
	// executions and here, on every way out of Run.
	var pend runCounts
	snapshot := func() Stats {
		pend.publish(e.met)
		return e.met.delta(base)
	}
	// Whatever the last execution armed: stores made between Runs are the
	// caller's and must not pile up in the journal.
	defer e.Mem.DisarmSMC()
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
	// A Service tenant translates first: its translations are shared, so
	// a block costs one translation per fleet, not per run (DESIGN.md
	// "Interpret first" has the serve pairs).
	tier := !e.Cfg.TranslateFirst && e.svc == nil
	guarded := e.guard != nil
	// Guarded runs degrade gracefully instead of aborting: a block whose
	// translation fails persistently runs on the reference interpreter.
	interpFallback := guarded || faults != nil
	var entries uint64 // block entries, the ordinal CodePokes keys on
	// The budget is engine-lifetime work: host instructions, plus one
	// step per interpreted guest instruction.
	hostSteps := e.CPU.Total()
	for pc != HaltPC {
		// Deterministic SMC fault injection: apply this entry's guest code
		// writes through the tracked store path, so they exercise exactly
		// the machinery a guest store does.
		if faults != nil {
			entries++
			for _, pw := range faults.CodePokes(entries) {
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
		var tb *tblock
		chained := false
		if prev != nil && !noChain {
			tb = prev.follow(pc)
		}
		if tb != nil {
			chained = true
			pend.chained++
		} else {
			pend.dispatches++
			var terr error
			tb, terr = e.block(pc, tier)
			if tb == nil {
				// An interpreted entry: interpret-first has not translated
				// the block yet (see block), or its translation failed
				// persistently and a guarded run falls back to the
				// reference interpreter. The interpreter is its own
				// reference, so there is nothing to shadow-check.
				ev, what, interps := obs.EvInterp, "interpreter", e.met.tierInterpBlocks
				if terr != nil {
					terr = fmt.Errorf("dbt: translating block at %#x: %w", pc, terr)
					if !interpFallback {
						return snapshot(), terr
					}
					ev, what, interps = obs.EvFallback, "interpreter fallback", e.met.interpFallbacks
				}
				if ring != nil {
					ring.Record(ev, pc)
				}
				if traceBlock != nil {
					traceBlock(pc)
				}
				if hostSteps >= maxHostSteps {
					return snapshot(), fmt.Errorf("dbt: host step budget exhausted at pc=%#x", pc)
				}
				next, n, ierr := e.interpBlock(pc, what)
				if ierr != nil {
					if terr != nil {
						// The fallback failed too: why translation failed
						// is the cause worth reporting.
						ierr = terr
					}
					return snapshot(), ierr
				}
				interps.Inc()
				pend.guest += n
				hostSteps += n
				if pend.execs++; pend.execs == publishEvery {
					pend.publish(e.met)
				}
				prev = nil
				pc = next
				continue
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
		if ring != nil {
			ev := obs.EvDispatch
			if chained {
				ev = obs.EvChained
			}
			ring.Record(ev, pc)
		}
		if traceBlock != nil {
			traceBlock(pc)
		}
		if guarded {
			tb.execs++
			sampled = e.guard.sampler.Select(tb.execs)
		}
		if hostSteps >= maxHostSteps {
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
			e.Mem.ArmSMC(tb.hasStores, tb.ranges[:])
		}
		res, xerr := e.CPU.Exec(tb.hb, maxHostSteps-hostSteps)
		if e.Mem.SMCSelfHit() {
			// The translation stored into its own guest bytes: its host
			// code was stale from that store on (this also covers xerr —
			// garbled stale code may fail outright). Roll back, replay on
			// the interpreter to the precise exit, fence, and resume
			// through the dispatcher.
			next, n, aerr := e.smcSelfAbort(pc)
			if aerr != nil {
				return snapshot(), aerr
			}
			// The replay counts like an interpreted entry. The aborted
			// pass counts its steps unless it failed outright (res is
			// zero then), which leaves at most one block's worth out.
			hostSteps += res.Steps + n
			sampled = false
			prev = nil
			pc = next
			continue
		}
		if xerr != nil {
			return snapshot(), fmt.Errorf("dbt: executing block at %#x: %w\n%s", pc, xerr, tb.hb.Listing())
		}
		hostSteps += res.Steps
		if pend.execs++; pend.execs == publishEvery {
			pend.publish(e.met)
		}
		pend.guest += tb.nGuest
		pend.covered += tb.nCovered
		pend.seq += tb.nSeq
		for _, op := range tb.uncovered {
			uncovered[op]++
		}
		if sampled {
			next, verdict := e.shadowCheck(tb, pc, res.NextPC)
			sampled = false
			// Feed the sampler: under an adaptive rate clean checks decay
			// it, a divergence snaps it back, and an execution that could
			// not be verified does neither.
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
	return snapshot(), nil
}

// interpRuns is how many times interpret-first runs a block on the
// reference interpreter before translating it (Config.TranslateFirst).
// Translating a block costs about ten interpreted executions of it, so
// code that runs once or twice — most of a program that runs each
// function once — is cheaper never translated. DESIGN.md "Interpret
// first" has the pairs that chose 2 over 4.
const interpRuns = 2

// block returns the translated block at pc, translating and installing
// it on a miss. With tier set (interpret-first), while pc has run fewer
// than interpRuns times, a miss instead counts the run and returns nil
// and no error, and the caller interprets the block. The first miss at
// a pc counts it in Stats.Blocks. While obs is enabled it times the
// cache lookup and the demand translation into the engine's histograms.
func (e *Engine) block(pc uint32, tier bool) (*tblock, error) {
	on := obs.On()
	var t0 time.Time
	if on {
		t0 = time.Now()
	}
	tb, ok := e.cache[pc]
	if on {
		e.met.lookupNs.ObserveSince(t0)
	}
	if ok {
		return tb, nil
	}
	runs, entered := e.runs[pc]
	if !entered {
		e.met.blocks.Inc()
	}
	if tier && runs < interpRuns {
		e.runs[pc] = runs + 1
		return nil, nil
	}
	if !entered {
		// Marked before translating: a failed translation's fallback
		// entry is an entry too.
		e.runs[pc] = 0
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
			tb = e.adoptProto(proto)
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
	e.install(tb)
	if on {
		e.met.cachedBlocks.Set(int64(len(e.cache)))
	}
	return tb, nil
}

// install makes tb the cache entry for its pc, resets the pc's
// interpret-first count, and registers the pages its guest bytes live
// on with the write tracker, so guest stores there reach the SMC fence
// (see smc.go).
func (e *Engine) install(tb *tblock) {
	e.cache[tb.pc] = tb
	e.runs[tb.pc] = 0
	e.Mem.TrackRange(tb.ranges[0][0], tb.ranges[0][1])
}

// Invalidate removes the translation at pc (after guest code changes)
// and tears down chaining safely: every link pointing at the stale
// block is unpatched, so chained execution can no longer reach it, and
// the next dispatch to pc retranslates. It reports whether a
// translation existed. Invalidate must not run concurrently with Run.
func (e *Engine) Invalidate(pc uint32) bool {
	on := obs.On()
	var t0 time.Time
	if on {
		t0 = time.Now()
	}
	tb := e.cache[pc]
	if tb == nil {
		return false
	}
	delete(e.cache, pc)
	tb.unlink()
	if on {
		e.met.invalidateNs.ObserveSince(t0)
		e.met.invalidations.Inc()
		e.met.cachedBlocks.Set(int64(len(e.cache)))
	}
	if e.Cfg.Trace != nil {
		e.Cfg.Trace.Record(obs.EvInvalidate, pc)
	}
	return true
}

// Translation is one installed unit of the code cache as the offline
// audit reads it: what the translator was given and what it produced.
type Translation struct {
	// PC and Insts are the guest block.
	PC    uint32
	Insts []guest.Inst
	// Host is the installed host stream.
	Host *host.Block
	// FlagsExact reports that the stream keeps the CPUState NZCV words
	// exact at every exit, so a guest-vs-host check may compare them.
	FlagsExact bool
}

// Translations lists every cached unit, sorted by pc — the one read
// path over what the engine installed (internal/exp.Audit proves each
// against its guest block offline). Like Invalidate, it must not run
// concurrently with Run.
func (e *Engine) Translations() []Translation {
	var out []Translation
	for _, tb := range e.cache {
		out = append(out, Translation{PC: tb.pc, Insts: tb.insts, Host: tb.hb, FlagsExact: tb.flagsExact})
	}
	slices.SortFunc(out, func(a, b Translation) int { return cmp.Compare(a.PC, b.PC) })
	return out
}

// BlockListing translates (or fetches from cache) the block at pc and
// returns its annotated host listing alongside its guest disassembly —
// the debugging view of what the translator produced. The guest
// disassembly reuses the decode results stored in the cached unit. Like
// Invalidate, it must not run concurrently with Run.
func (e *Engine) BlockListing(pc uint32) (string, error) {
	tb, err := e.block(pc, false)
	if err != nil {
		return "", err
	}
	s := fmt.Sprintf("guest block @%#x (%d insts, %d rule-covered):\n", pc, tb.nGuest, tb.nCovered)
	s += guest.Disassemble(tb.pc, tb.insts)
	s += "host code:\n" + tb.hb.Listing()
	return s, nil
}

// fetchBlock decodes guest instructions from pc up to and including
// the terminator, reading code from m, into c.fetch, and returns an
// exact-size copy for the unit to keep.
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
