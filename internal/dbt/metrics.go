package dbt

import "paramdbt/internal/obs"

// Engine metric names, registered per engine (each Engine owns a
// registry unless Config.Metrics shares one — see Config). The catalog
// with units and semantics lives in docs/OBSERVABILITY.md.
const (
	// Product counters: always incremented, they back Stats.
	MetGuestInsts   = "dbt.guest_insts"    // dynamic guest instructions retired
	MetRuleCovered  = "dbt.rule_covered"   // of which rule-translated
	MetSeqRuleInsts = "dbt.seq_rule_insts" // of which covered by multi-insn rules
	MetBlocks       = "dbt.blocks"         // distinct block pcs entered (once per engine)
	MetDispatches   = "dbt.dispatches"     // dispatcher round trips
	MetChainedExits = "dbt.chained_exits"  // block transitions over patched links
	MetTranslations = "dbt.translations"   // demand translations (Stats.Translations)

	// Interpret-first product counter (see Config.TranslateFirst): block
	// executions run on the reference interpreter because the block had
	// not yet run often enough to be translated. Not a Stats field.
	MetTierInterpBlocks = "dbt.tier_interp_blocks"

	// Hot-trace superblock product counters (see superblock.go).
	MetTracesFormed    = "dbt.traces_formed"    // hot traces promoted to superblocks
	MetSuperblockExecs = "dbt.superblock_execs" // block entries that ran a superblock
	MetSideExits       = "dbt.side_exits"       // superblock runs that left via a side exit

	// Translation-validation product counters (see validate.go and
	// docs/ANALYSIS.md "Translation validation"). Always counted.
	MetBlocksValidated   = "dbt.blocks_validated"   // installed streams the validator proved
	MetValidateFallbacks = "dbt.validate_fallbacks" // validations that fell back (not proved)

	// Self-modifying-code product counters (see smc.go and
	// docs/ROBUSTNESS.md "Self-modifying code"). Always counted.
	MetSMCInvalidations = "dbt.smc_invalidations" // translations fenced out by guest code writes
	MetSMCSelfAborts    = "dbt.smc_self_aborts"   // executions aborted for storing into their own bytes
	MetSBBuilderPanics  = "dbt.sb_builder_panics" // trace-formation panics absorbed

	// Guarded-execution product counters (robustness layer; see
	// docs/ROBUSTNESS.md). Always counted — they back the Stats guard
	// fields and the acceptance invariants ("0 unrecovered panics").
	MetShadowChecks      = "guard.shadow_checks"      // shadow-verified block executions
	MetDivergences       = "guard.divergences"        // shadow checks that disagreed with the reference
	MetQuarantined       = "guard.quarantined_rules"  // rules demoted into the quarantine set
	MetPanicsRecovered   = "guard.panics_recovered"   // translator panics absorbed by retry/quarantine
	MetPanicsUnrecovered = "guard.panics_unrecovered" // panics that aborted Run (returned as PanicError)
	MetTranslateRetries  = "guard.translate_retries"  // guarded-translation retry attempts
	MetInterpFallbacks   = "guard.interp_fallbacks"   // blocks executed by the reference interpreter
	MetRateSnaps         = "guard.rate_snaps"         // adaptive-rate snaps back to the base shadow rate

	// Telemetry: only recorded while obs.On().
	MetInvalidations      = "dbt.invalidations"       // Invalidate calls that removed a block
	MetTraceInvalidations = "dbt.trace_invalidations" // superblocks torn down
	MetChainPatches       = "dbt.chain_patches"       // direct-link slots patched
	MetCachedBlocks       = "dbt.cached_blocks"       // gauge: translations resident in the cache
	MetTranslateNs        = "dbt.translate_ns"        // histogram: demand-translation latency
	MetLookupNs           = "dbt.lookup_ns"           // histogram: dispatcher code-cache lookup latency
	MetChainNs            = "dbt.chain_ns"            // histogram: link-patch latency
	MetInvalidateNs       = "dbt.invalidate_ns"       // histogram: invalidation + unchain latency
	MetShadowRatePPM      = "guard.shadow_rate_ppm"   // gauge: current adaptive shadow rate, parts per million
)

// engineMetrics holds the resolved metric instances so the hot path
// never takes the registry lock. The product counters double as the
// engine's statistics: Stats is a delta snapshot over them (see
// Engine.Run), which makes mid-run reads (LiveStats, the /metrics
// endpoint) safe where the former plain Stats fields were not.
type engineMetrics struct {
	reg *obs.Registry

	guestInsts   *obs.Counter
	ruleCovered  *obs.Counter
	seqRuleInsts *obs.Counter
	blocks       *obs.Counter
	dispatches   *obs.Counter
	chainedExits *obs.Counter

	tierInterpBlocks *obs.Counter

	tracesFormed    *obs.Counter
	superblockExecs *obs.Counter
	sideExits       *obs.Counter

	blocksValidated   *obs.Counter
	validateFallbacks *obs.Counter

	smcInvalidations *obs.Counter
	smcSelfAborts    *obs.Counter
	sbBuilderPanics  *obs.Counter

	shadowChecks      *obs.Counter
	divergences       *obs.Counter
	quarantined       *obs.Counter
	panicsRecovered   *obs.Counter
	panicsUnrecovered *obs.Counter
	translateRetries  *obs.Counter
	interpFallbacks   *obs.Counter
	rateSnaps         *obs.Counter

	translations       *obs.Counter
	invalidations      *obs.Counter
	traceInvalidations *obs.Counter
	chainPatches       *obs.Counter
	cachedBlocks       *obs.Gauge
	shadowRatePPM      *obs.Gauge
	translateNs        *obs.Histogram
	lookupNs           *obs.Histogram
	chainNs            *obs.Histogram
	invalidateNs       *obs.Histogram
}

func newEngineMetrics(reg *obs.Registry) *engineMetrics {
	return &engineMetrics{
		reg:                reg,
		guestInsts:         reg.Counter(MetGuestInsts),
		ruleCovered:        reg.Counter(MetRuleCovered),
		seqRuleInsts:       reg.Counter(MetSeqRuleInsts),
		blocks:             reg.Counter(MetBlocks),
		dispatches:         reg.Counter(MetDispatches),
		chainedExits:       reg.Counter(MetChainedExits),
		tierInterpBlocks:   reg.Counter(MetTierInterpBlocks),
		tracesFormed:       reg.Counter(MetTracesFormed),
		superblockExecs:    reg.Counter(MetSuperblockExecs),
		sideExits:          reg.Counter(MetSideExits),
		blocksValidated:    reg.Counter(MetBlocksValidated),
		validateFallbacks:  reg.Counter(MetValidateFallbacks),
		smcInvalidations:   reg.Counter(MetSMCInvalidations),
		smcSelfAborts:      reg.Counter(MetSMCSelfAborts),
		sbBuilderPanics:    reg.Counter(MetSBBuilderPanics),
		shadowChecks:       reg.Counter(MetShadowChecks),
		divergences:        reg.Counter(MetDivergences),
		quarantined:        reg.Counter(MetQuarantined),
		panicsRecovered:    reg.Counter(MetPanicsRecovered),
		panicsUnrecovered:  reg.Counter(MetPanicsUnrecovered),
		translateRetries:   reg.Counter(MetTranslateRetries),
		interpFallbacks:    reg.Counter(MetInterpFallbacks),
		rateSnaps:          reg.Counter(MetRateSnaps),
		translations:       reg.Counter(MetTranslations),
		invalidations:      reg.Counter(MetInvalidations),
		traceInvalidations: reg.Counter(MetTraceInvalidations),
		chainPatches:       reg.Counter(MetChainPatches),
		cachedBlocks:       reg.Gauge(MetCachedBlocks),
		shadowRatePPM:      reg.Gauge(MetShadowRatePPM),
		translateNs:        reg.Histogram(MetTranslateNs),
		lookupNs:           reg.Histogram(MetLookupNs),
		chainNs:            reg.Histogram(MetChainNs),
		invalidateNs:       reg.Histogram(MetInvalidateNs),
	}
}

// publishEvery is how many block executions Run lets pass between
// publishes of its runCounts: at ≈0.3 µs per block execution on
// steady, LiveStats trails a running engine by about 0.3 ms.
const publishEvery = 1024

// runCounts are the product counters Run bumps on every block
// execution. Run keeps them in a local and publishes them into the
// atomic counters every publishEvery block executions and on every
// return, so the dispatch loop pays no atomic add per block while
// LiveStats stays monotonic and nearly current.
type runCounts struct {
	guest, covered, seq uint64
	dispatches, chained uint64
	execs               uint32 // block executions since the last publish
}

// publish adds the pending counts to m's counters and clears them.
func (r *runCounts) publish(m *engineMetrics) {
	m.guestInsts.Add(r.guest)
	m.ruleCovered.Add(r.covered)
	m.seqRuleInsts.Add(r.seq)
	m.dispatches.Add(r.dispatches)
	m.chainedExits.Add(r.chained)
	*r = runCounts{}
}

// statsBase is a point-in-time copy of the product counters; Run
// captures one at entry so its returned Stats cover exactly that run
// even when the engine (or a shared registry) has counted before.
type statsBase struct {
	guest, covered, seq, blocks, disp, chained uint64
	translations                               uint64
	traces, sbExecs, sideExits                 uint64
	validated, valFallbacks                    uint64
	smcInval, smcAborts, sbPanics              uint64
	shadow, diverged, quar, panRec, interpFB   uint64
	rateSnaps                                  uint64
}

func (m *engineMetrics) base() statsBase {
	return statsBase{
		guest:        m.guestInsts.Value(),
		covered:      m.ruleCovered.Value(),
		seq:          m.seqRuleInsts.Value(),
		blocks:       m.blocks.Value(),
		disp:         m.dispatches.Value(),
		chained:      m.chainedExits.Value(),
		translations: m.translations.Value(),
		traces:       m.tracesFormed.Value(),
		sbExecs:      m.superblockExecs.Value(),
		sideExits:    m.sideExits.Value(),
		validated:    m.blocksValidated.Value(),
		valFallbacks: m.validateFallbacks.Value(),
		smcInval:     m.smcInvalidations.Value(),
		smcAborts:    m.smcSelfAborts.Value(),
		sbPanics:     m.sbBuilderPanics.Value(),
		shadow:       m.shadowChecks.Value(),
		diverged:     m.divergences.Value(),
		quar:         m.quarantined.Value(),
		panRec:       m.panicsRecovered.Value(),
		interpFB:     m.interpFallbacks.Value(),
		rateSnaps:    m.rateSnaps.Value(),
	}
}

// delta builds a Stats snapshot of everything counted since base.
func (m *engineMetrics) delta(base statsBase) Stats {
	return Stats{
		GuestExec:         m.guestInsts.Value() - base.guest,
		RuleCovered:       m.ruleCovered.Value() - base.covered,
		SeqRuleUses:       m.seqRuleInsts.Value() - base.seq,
		Blocks:            int(m.blocks.Value() - base.blocks),
		Dispatches:        m.dispatches.Value() - base.disp,
		ChainedExits:      m.chainedExits.Value() - base.chained,
		Translations:      m.translations.Value() - base.translations,
		TracesFormed:      m.tracesFormed.Value() - base.traces,
		SuperblockExecs:   m.superblockExecs.Value() - base.sbExecs,
		SideExits:         m.sideExits.Value() - base.sideExits,
		BlocksValidated:   m.blocksValidated.Value() - base.validated,
		ValidateFallbacks: m.validateFallbacks.Value() - base.valFallbacks,
		SMCInvalidations:  m.smcInvalidations.Value() - base.smcInval,
		SMCSelfAborts:     m.smcSelfAborts.Value() - base.smcAborts,
		SBBuilderPanics:   m.sbBuilderPanics.Value() - base.sbPanics,
		ShadowChecks:      m.shadowChecks.Value() - base.shadow,
		Divergences:       m.divergences.Value() - base.diverged,
		QuarantinedRules:  m.quarantined.Value() - base.quar,
		PanicsRecovered:   m.panicsRecovered.Value() - base.panRec,
		InterpFallbacks:   m.interpFallbacks.Value() - base.interpFB,
		RateSnaps:         m.rateSnaps.Value() - base.rateSnaps,
	}
}
