package dbt

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"paramdbt/internal/env"
	"paramdbt/internal/guard"
	"paramdbt/internal/guest"
	"paramdbt/internal/host"
	"paramdbt/internal/mem"
	"paramdbt/internal/obs"
	"paramdbt/internal/rule"
)

// This file is the engine side of the guarded-execution layer (see
// internal/guard and docs/ROBUSTNESS.md): shadow differential
// verification of sampled block executions, divergence recovery with
// rule quarantine and cache purging, panic-tolerant translation with
// bounded retries, the reference-interpreter fallback for blocks that
// persistently fail to translate, and the fault-injection hooks.

// FaultInjector is the engine's fault-injection hook set
// (Config.Faults). faultinject.Injector implements it structurally;
// the interface lives here so internal/guard/faultinject never imports
// internal/dbt.
type FaultInjector interface {
	// TranslatePanic reports whether the demand translation at pc
	// should panic (recovered by the guarded translation path).
	TranslatePanic(pc uint32) bool
	// DecodeError reports whether the demand translation at pc should
	// fail as if the code bytes did not decode.
	DecodeError(pc uint32) bool
	// DropCacheShard reports whether a code-cache shard should be
	// dropped at this dispatch, and which one.
	DropCacheShard() (int, bool)
	// FailSpecWorker reports whether a speculative-translation job
	// should be lost (polled per job). Only speculation degrades: the
	// pool's workers survive, so superblock formation never stalls.
	FailSpecWorker() bool
}

// ErrTranslatorPanic is the sentinel wrapped by every PanicError, so
// callers can errors.Is their way to "a panic was converted to an
// error" without matching the concrete type.
var ErrTranslatorPanic = errors.New("translator panic")

// PanicError is a panic converted into an error: by recoverTranslate
// (guarded demand translation retries on it, pool jobs drop it) or by
// Run's top-level recovery
// (which leaves the CPUState PC pointing at the faulting block so the
// run is resumable).
type PanicError struct {
	PC    uint32
	Cause any
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("dbt: recovered panic at pc=%#x: %v", p.PC, p.Cause)
}

// Unwrap makes errors.Is(err, ErrTranslatorPanic) work.
func (p *PanicError) Unwrap() error { return ErrTranslatorPanic }

// maxTranslateAttempts bounds the quarantine-and-retry loop of guarded
// translation; with fault injection active, retries also ride out
// injected panics and decode errors.
const maxTranslateAttempts = 8

// trialExecBudget bounds host steps of a blame-isolation trial block.
const trialExecBudget = 1 << 20

// maxDivergenceLog bounds the per-engine divergence record (counters
// keep exact totals; the log keeps the first few for diagnosis).
const maxDivergenceLog = 32

// guardState is the engine's shadow-verification state, present only
// when Config enables it (ShadowRate/ShadowFirstN). ctrl is the
// adaptive shadow-rate controller, non-nil only under
// Config.AdaptiveShadow; the Run goroutine feeds it through
// guardClean/guardEvent.
type guardState struct {
	sampler     *guard.Sampler
	ctrl        *guard.Controller
	divergences []guard.Divergence
}

// guardClean records one verified-clean shadow check with the adaptive
// controller (no-op without one) and installs the decayed rate.
func (e *Engine) guardClean() {
	if e.guard == nil || e.guard.ctrl == nil {
		return
	}
	e.guard.ctrl.OnClean()
	e.guard.sampler.SetRate(e.guard.ctrl.Rate())
	if obs.On() {
		e.met.shadowRatePPM.Set(int64(e.guard.ctrl.Rate() * 1e6))
	}
}

// guardEvent records a divergence or quarantine event with the adaptive
// controller (no-op without one): accumulated confidence is discarded
// and the shadow rate snaps back to the configured base.
func (e *Engine) guardEvent() {
	if e.guard == nil || e.guard.ctrl == nil {
		return
	}
	e.guard.ctrl.OnEvent()
	e.guard.sampler.SetRate(e.guard.ctrl.Rate())
	e.met.rateSnaps.Inc()
	if obs.On() {
		e.met.shadowRatePPM.Set(int64(e.guard.ctrl.Rate() * 1e6))
	}
}

// ShadowRateNow reports the sampler's current steady-state shadow rate
// — under AdaptiveShadow, the controller's decayed value; otherwise the
// configured ShadowRate. Zero when shadow verification is off. Like the
// sampler itself it is owned by the Run goroutine: read it before,
// after, or from within a run, not concurrently with one.
func (e *Engine) ShadowRateNow() float64 {
	if e.guard == nil {
		return 0
	}
	return e.guard.sampler.Rate()
}

// shadowCtx is the pre-block snapshot taken for a sampled execution.
type shadowCtx struct {
	preMem *mem.Memory // pristine pre-block memory (guest + CPUState)
	pre    guest.State // pre-block registers/flags (Mem is nil)
	exec   uint64      // 1-based execution ordinal of the block
}

// readGuestState reads the guest architectural state out of the
// CPUState block stored in m; the returned state is bound to m.
func readGuestState(m *mem.Memory) *guest.State {
	st := &guest.State{Mem: m}
	for i := 0; i < guest.NumRegs; i++ {
		st.R[i] = m.Read32(env.StateBase + uint32(env.OffReg(i)))
	}
	st.Flags.N = m.Read32(env.StateBase+env.OffN) != 0
	st.Flags.Z = m.Read32(env.StateBase+env.OffZ) != 0
	st.Flags.C = m.Read32(env.StateBase+env.OffC) != 0
	st.Flags.V = m.Read32(env.StateBase+env.OffV) != 0
	for i := 0; i < guest.NumFRegs; i++ {
		st.F[i] = m.Read32(env.StateBase + uint32(env.OffFReg(i)))
	}
	return st
}

// writeGuestState writes a guest architectural state into the CPUState
// block stored in m.
func writeGuestState(m *mem.Memory, st *guest.State) {
	for i := 0; i < guest.NumRegs; i++ {
		m.Write32(env.StateBase+uint32(env.OffReg(i)), st.R[i])
	}
	w := func(off int32, b bool) {
		v := uint32(0)
		if b {
			v = 1
		}
		m.Write32(env.StateBase+uint32(off), v)
	}
	w(env.OffN, st.Flags.N)
	w(env.OffZ, st.Flags.Z)
	w(env.OffC, st.Flags.C)
	w(env.OffV, st.Flags.V)
	for i := 0; i < guest.NumFRegs; i++ {
		m.Write32(env.StateBase+uint32(env.OffFReg(i)), st.F[i])
	}
}

// beginShadow snapshots the pre-block state for a sampled execution.
func (e *Engine) beginShadow(exec uint64) *shadowCtx {
	pre := *readGuestState(e.Mem)
	pre.Mem = nil
	return &shadowCtx{preMem: e.Mem.Clone(), pre: pre, exec: exec}
}

// shadowCheck compares the just-executed block's effects against the
// reference interpreter run on the pre-block snapshot. On agreement it
// returns (gotNext, false). On divergence it records the event,
// restores the architecturally correct (reference) state, quarantines
// the blamed rules, purges every cached block built from them, and
// returns the corrected next pc with diverged=true — the caller must
// break the chain (prev=nil) and continue from there.
func (e *Engine) shadowCheck(tb *tblock, sc *shadowCtx, pc, gotNext uint32) (uint32, bool) {
	e.met.shadowChecks.Inc()
	refMem := sc.preMem.Clone()
	ref := sc.pre.WithMem(refMem)
	refNext, err := guard.RunReference(ref, pc, tb.insts, HaltPC)
	if err != nil {
		// The reference cannot execute the block (should not happen for
		// decodable code); treat as unverifiable rather than divergent.
		return gotNext, false
	}
	got := readGuestState(e.Mem)
	mm := guard.CompareStates(ref, got, tb.flagsExact)
	if refNext != gotNext {
		mm = append(mm, guard.Mismatch{Kind: guard.MismatchNextPC, Want: refNext, Got: gotNext})
	}
	mm = append(mm, guard.CompareMemory(refMem, e.Mem, env.StateBase, 4)...)
	if len(mm) == 0 {
		return gotNext, false
	}

	// Divergence: the interpreter is the semantic oracle, so its result
	// is the correct post-block state.
	e.met.divergences.Inc()
	if e.Cfg.Trace != nil {
		e.Cfg.Trace.Record(obs.EvDiverge, pc)
	}
	guilty := e.isolateBlame(sc, pc, tb, ref, refNext)
	var blamed []string
	for _, t := range guilty {
		blamed = append(blamed, t.Fingerprint())
		if e.Cfg.Rules.Quarantine(t, fmt.Sprintf("shadow divergence at pc=%#x", pc)) {
			e.met.quarantined.Inc()
		}
	}
	if len(e.guard.divergences) < maxDivergenceLog {
		e.guard.divergences = append(e.guard.divergences, guard.Divergence{
			PC: pc, Exec: sc.exec, Backend: e.tr.be.Name(), Mismatches: mm, Blamed: blamed,
		})
	}

	// Recover: overwrite the mis-executed block's effects with the
	// reference result, then drop every translation built from a
	// now-quarantined rule so retranslation excludes it.
	e.Mem.RestoreBelow(refMem, env.StateBase)
	writeGuestState(e.Mem, ref)
	e.purgeRules(guilty)
	return refNext, true
}

// shadowCheckSB is shadowCheck for superblock executions. The
// reference interpreter steps the executed constituent prefix (nexec
// blocks, from the exit slot) block by block, stopping early if its own
// control flow leaves the trace — a next-pc divergence the comparison
// then reports. On divergence the superblock is torn down and its head
// banned from re-formation rather than blamed: blame isolation
// retranslates single basic blocks, so it cannot attribute a
// trace-level fault, and the constituent basic blocks stay cached — if
// one of them is individually mistranslated, its own sampled
// executions catch and quarantine it through the normal path.
func (e *Engine) shadowCheckSB(tb *tblock, sc *shadowCtx, pc, gotNext uint32, nexec int) (uint32, bool) {
	sb := tb.sb
	e.met.shadowChecks.Inc()
	refMem := sc.preMem.Clone()
	ref := sc.pre.WithMem(refMem)
	refNext := pc
	for j := 0; j < nexec && refNext == sb.pcs[j]; j++ {
		var err error
		refNext, err = guard.RunReference(ref, sb.pcs[j], sb.insts[j], HaltPC)
		if err != nil {
			return gotNext, false // unverifiable, not divergent
		}
		if refNext == HaltPC {
			break
		}
	}
	got := readGuestState(e.Mem)
	mm := guard.CompareStates(ref, got, false)
	if refNext != gotNext {
		mm = append(mm, guard.Mismatch{Kind: guard.MismatchNextPC, Want: refNext, Got: gotNext})
	}
	mm = append(mm, guard.CompareMemory(refMem, e.Mem, env.StateBase, 4)...)
	if len(mm) == 0 {
		return gotNext, false
	}

	e.met.divergences.Inc()
	if e.Cfg.Trace != nil {
		e.Cfg.Trace.Record(obs.EvDiverge, pc)
	}
	if len(e.guard.divergences) < maxDivergenceLog {
		e.guard.divergences = append(e.guard.divergences, guard.Divergence{
			PC: pc, Exec: sc.exec, Backend: e.tr.be.Name(), Mismatches: mm,
		})
	}
	e.teardownSB(tb)
	if e.sbBan == nil {
		e.sbBan = map[uint32]bool{}
	}
	e.sbBan[pc] = true
	e.Mem.RestoreBelow(refMem, env.StateBase)
	writeGuestState(e.Mem, ref)
	return refNext, true
}

// isolateBlame attributes a divergence to specific rules: for each
// distinct rule the block used, the block is retranslated with that
// rule excluded and re-executed on a copy of the pre-block snapshot —
// if the result then matches the reference, the excluded rule is
// guilty. When no single exclusion fixes the block (compound faults,
// or a translator rather than rule bug) every used rule is blamed
// conservatively; a block that used no rules blames none.
func (e *Engine) isolateBlame(sc *shadowCtx, pc uint32, tb *tblock, ref *guest.State, refNext uint32) []*rule.Template {
	if len(tb.rules) == 0 {
		return nil
	}
	var guilty []*rule.Template
	for _, t := range tb.rules {
		if e.trialExcluding(sc, pc, ref, refNext, t) {
			guilty = append(guilty, t)
		}
	}
	if len(guilty) == 0 {
		return tb.rules
	}
	return guilty
}

// trialExcluding reports whether retranslating the block without t and
// executing it on the pre-block snapshot reproduces the reference
// result. Trial translation or execution failures (including panics
// from a corrupted template) exonerate nothing and simply return false.
func (e *Engine) trialExcluding(sc *shadowCtx, pc uint32, ref *guest.State, refNext uint32, t *rule.Template) (fixed bool) {
	defer func() {
		if recover() != nil {
			fixed = false
		}
	}()
	m := sc.preMem.Clone()
	var tx txctx
	ttb, err := e.tr.translate(m, pc, &tx, func(x *rule.Template) bool { return x == t }, nil)
	if err != nil {
		return false
	}
	cpu := host.NewCPU(m)
	cpu.R[host.EBP] = env.StateBase
	cpu.R[host.ESP] = env.HostStackTop
	res, err := cpu.Exec(ttb.hb, trialExecBudget)
	if err != nil || res.NextPC != refNext {
		return false
	}
	got := readGuestState(m)
	if len(guard.CompareStates(ref, got, ttb.flagsExact)) != 0 {
		return false
	}
	return len(guard.CompareMemory(ref.Mem, m, env.StateBase, 1)) == 0
}

// purgeRules invalidates every cached translation built from any of
// the given rules (including the diverged block itself), so the next
// dispatch retranslates with the quarantine filter active.
func (e *Engine) purgeRules(guilty []*rule.Template) {
	if len(guilty) == 0 {
		return
	}
	set := map[*rule.Template]bool{}
	for _, t := range guilty {
		set[t] = true
	}
	if e.svc != nil {
		// Shared prototypes built from the guilty rules must go too, or
		// the next tenant (or this one, after re-dispatch) would adopt a
		// translation embedding a quarantined rule.
		e.svc.purgeRules(set)
	}
	pcs := e.cache.pcsWhere(func(tb *tblock) bool {
		for _, t := range tb.rules {
			if set[t] {
				return true
			}
		}
		return false
	})
	for _, p := range pcs {
		e.Invalidate(p)
	}
}

// translateGuarded is demand translation with fault tolerance: panics
// (real or injected) become PanicErrors, a panic attributable to a
// specific rule quarantines it, and translation is retried with a
// short linear backoff up to maxTranslateAttempts times.
func (e *Engine) translateGuarded(pc uint32) (*tblock, error) {
	var lastErr error
	for attempt := 0; attempt < maxTranslateAttempts; attempt++ {
		if attempt > 0 {
			e.met.translateRetries.Inc()
			time.Sleep(time.Duration(attempt) * 50 * time.Microsecond)
		}
		tb, culprit, err := e.tryTranslate(pc)
		if err == nil {
			return tb, nil
		}
		lastErr = err
		var pe *PanicError
		if errors.As(err, &pe) {
			e.met.panicsRecovered.Inc()
			if culprit != nil && e.Cfg.Rules != nil {
				if e.Cfg.Rules.Quarantine(culprit, fmt.Sprintf("translator panic at pc=%#x: %v", pc, pe.Cause)) {
					e.met.quarantined.Inc()
					// A quarantine is a trust event like a divergence: the
					// adaptive controller snaps the shadow rate back to base.
					e.guardEvent()
					if e.svc != nil {
						e.svc.purgeRules(map[*rule.Template]bool{culprit: true})
					}
				}
			}
			continue
		}
		if e.Cfg.Faults != nil {
			// The error may have been injected; retry gives the real
			// translation a chance once the plan's budget is spent.
			continue
		}
		return nil, err
	}
	return nil, fmt.Errorf("dbt: translation at pc=%#x failed after %d attempts: %w", pc, maxTranslateAttempts, lastErr)
}

// tryTranslate is one guarded translation attempt: fault hooks first,
// then the real translator, both under recoverTranslate, which converts
// panics into PanicErrors; culprit reports the rule being instantiated
// when the panic hit (nil when the panic was not inside rule emission).
func (e *Engine) tryTranslate(pc uint32) (tb *tblock, culprit *rule.Template, err error) {
	tb, err = recoverTranslate(pc, func() (*tblock, error) {
		if f := e.Cfg.Faults; f != nil {
			if f.DecodeError(pc) {
				return nil, fmt.Errorf("dbt: injected decode error at pc=%#x", pc)
			}
			if f.TranslatePanic(pc) {
				panic(fmt.Sprintf("injected translator panic at pc=%#x", pc))
			}
		}
		return e.tr.translate(e.Mem, pc, &e.tx, nil, &culprit)
	})
	return tb, culprit, err
}

// interpFallbackBlock executes one guest block directly on the
// reference interpreter over live memory — the graceful degradation
// path when translation fails persistently. It returns the next pc
// (HaltPC when the guest halted) and the instructions retired.
func (e *Engine) interpFallbackBlock(pc uint32) (uint32, uint64, error) {
	st := readGuestState(e.Mem)
	st.SetPC(pc)
	var n uint64
	for i := 0; i < maxBlockInsts; i++ {
		w := e.Mem.Read32(st.PCVal())
		in, derr := guest.Decode(w)
		if derr != nil {
			return 0, n, fmt.Errorf("dbt: interpreter fallback at pc=%#x: %w", st.PCVal(), derr)
		}
		if serr := st.Step(in); serr != nil {
			return 0, n, fmt.Errorf("dbt: interpreter fallback at pc=%#x: %w", st.PCVal(), serr)
		}
		n++
		if st.Halted {
			writeGuestState(e.Mem, st)
			return HaltPC, n, nil
		}
		if isTerminator(in) {
			writeGuestState(e.Mem, st)
			return st.PCVal(), n, nil
		}
	}
	return 0, n, fmt.Errorf("dbt: interpreter fallback exceeded %d instructions at pc=%#x", maxBlockInsts, pc)
}

// dropShard invalidates every translation in code-cache shard i (the
// fault-injection "shard loss" scenario); chaining into the dropped
// blocks is torn down by Invalidate. It reports how many translations
// were dropped.
func (e *Engine) dropShard(i int) int {
	pcs := e.cache.pcsInShard(i)
	for _, p := range pcs {
		e.Invalidate(p)
	}
	return len(pcs)
}

// Divergences returns the recorded shadow-verification divergences
// (bounded to the first maxDivergenceLog; Stats carries exact counts).
func (e *Engine) Divergences() []guard.Divergence {
	if e.guard == nil {
		return nil
	}
	return append([]guard.Divergence(nil), e.guard.divergences...)
}

// CachedRuleTemplates returns the distinct rule templates referenced
// by currently cached translations, in fingerprint order — i.e. the
// rules that actually fired for the executed workload. The fault
// harness uses it to corrupt rules guaranteed to matter.
func (e *Engine) CachedRuleTemplates() []*rule.Template {
	seen := map[*rule.Template]bool{}
	var out []*rule.Template
	e.cache.each(func(_ uint32, tb *tblock) {
		for _, t := range tb.rules {
			if !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Fingerprint() < out[j].Fingerprint() })
	return out
}
