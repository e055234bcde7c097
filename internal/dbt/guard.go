package dbt

import (
	"errors"
	"fmt"
	"sort"

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

// ErrTranslatorPanic is the sentinel wrapped by every PanicError, so
// callers can errors.Is their way to "a panic was converted to an
// error" without matching the concrete type.
var ErrTranslatorPanic = errors.New("translator panic")

// PanicError is a panic converted into an error: by recoverTranslate
// or by Run's top-level recovery (which leaves the CPUState PC pointing
// at the faulting block so the run is resumable).
type PanicError struct {
	PC    uint32
	Cause any
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("dbt: recovered panic at pc=%#x: %v", p.PC, p.Cause)
}

// Unwrap makes errors.Is(err, ErrTranslatorPanic) work.
func (p *PanicError) Unwrap() error { return ErrTranslatorPanic }

// recoverTranslate runs one translation, converting a panic (a corrupted
// rule template mid-instantiation, an injected fault, a translator bug)
// into a *PanicError at pc — the single recovery wrapper every
// translation that must not abort the run goes through: the guarded
// demand path (which retries and quarantines), the service's
// single-flight leader (which hands the error to every waiter) and
// superblock formation (which backs the head off and keeps executing
// its per-block translations).
func recoverTranslate(pc uint32, f func() (*tblock, error)) (tb *tblock, err error) {
	defer func() {
		if r := recover(); r != nil {
			tb, err = nil, &PanicError{PC: pc, Cause: r}
		}
	}()
	return f()
}

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
// when Config.ShadowRate is positive; the Run goroutine feeds the
// sampler its verdicts through guardClean/guardEvent.
type guardState struct {
	sampler     *guard.Sampler
	divergences []guard.Divergence
}

// guardClean records one verified-clean shadow check with the sampler,
// which decays an adaptive rate.
func (e *Engine) guardClean() {
	if e.guard.sampler.OnClean() && obs.On() {
		e.met.shadowRatePPM.Set(int64(e.guard.sampler.Rate() * 1e6))
	}
}

// guardEvent records a divergence or quarantine event with the sampler
// (no-op without shadow verification): an adaptive rate discards its
// accumulated confidence and snaps back to the configured base.
func (e *Engine) guardEvent() {
	if e.guard == nil || !e.guard.sampler.OnEvent() {
		return
	}
	e.met.rateSnaps.Inc()
	if obs.On() {
		e.met.shadowRatePPM.Set(int64(e.guard.sampler.Rate() * 1e6))
	}
}

// ShadowRateNow reports the sampler's current steady-state shadow rate
// — under ShadowHalfLife, the decayed value; otherwise the configured
// ShadowRate. Zero when shadow verification is off. Like the
// sampler itself it is owned by the Run goroutine: read it before,
// after, or from within a run, not concurrently with one.
func (e *Engine) ShadowRateNow() float64 {
	if e.guard == nil {
		return 0
	}
	return e.guard.sampler.Rate()
}

// shadowVerdict is the outcome of one sampled execution's shadow check.
type shadowVerdict uint8

const (
	// shadowClean: the translated block agreed with the reference
	// interpreter on every architectural effect.
	shadowClean shadowVerdict = iota
	// shadowDiverged: it did not; the reference result was installed and
	// the caller must break the chain and resume at the returned pc.
	shadowDiverged
	// shadowUnverifiable: the reference interpreter could not execute the
	// block, so nothing was compared. The execution earns no trust and
	// costs none.
	shadowUnverifiable
)

// shadowCtx is the state of the sampled execution in flight. The engine
// owns one and reuses it, so a clean check allocates nothing.
type shadowCtx struct {
	exec uint64      // 1-based execution ordinal of the block
	pre  guest.State // registers/flags at block entry
	ref  guest.State // the reference interpreter's post-block state

	refNext uint32 // the reference's exit pc
	refErr  error  // non-nil: the reference could not run the block

	// Write sets below env.StateBase: the reference's, taken before its
	// stores were rolled back, and the translated block's.
	refWrites []mem.WriteByte
	gotWrites []mem.WriteByte
}

// readGuestState fills st with the guest architectural state held in
// the CPUState block stored in m, and binds st to m.
func readGuestState(m *mem.Memory, st *guest.State) {
	*st = guest.State{Mem: m}
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

// shadowBegin runs the reference half of a sampled execution, before
// the translated block: the reference interpreter executes the block
// over live memory with the undo journal armed, its final state, exit
// pc and write set are kept, and its stores are rolled back so the
// translated block starts from the exact pre-block image. Going first
// is what makes a clean check free of copies — live memory ends up as
// the translated block left it. The journal is armed without self
// ranges (the interpreter storing into the block's own bytes is the
// guest's business, not stale host code), and the pages its stores
// dirtied are forgotten with the stores; the translated pass re-dirties
// what it really writes. It returns with the journal armed again for
// the translated pass — whether or not the translation is supposed to
// store: a corrupted rule may store where the guest does not.
func (e *Engine) shadowBegin(tb *tblock, pc uint32) {
	sc := &e.shadow
	sc.exec = tb.execs
	readGuestState(e.Mem, &sc.pre)
	sc.ref = sc.pre
	e.Mem.ArmSMC(true, nil)
	// Step the unit's segments until the reference's own control flow
	// leaves it (a basic block: its one segment). If the translation left
	// elsewhere, the comparison reports it.
	sc.refNext, sc.refErr = pc, nil
	for j := 0; j < len(tb.segs) && sc.refNext == tb.segs[j].pc && sc.refErr == nil; j++ {
		sc.refNext, sc.refErr = guard.RunReference(&sc.ref, tb.segs[j].pc, tb.segs[j].insts, HaltPC)
	}
	sc.refWrites = e.Mem.JournalWrites(sc.refWrites[:0], env.StateBase)
	e.Mem.RollbackJournal()
	e.Mem.ClearDirty()
	var self [][2]uint32
	if tb.hasStores {
		self = tb.ranges
	}
	e.Mem.ArmSMC(true, self)
}

// shadowCheck compares the just-executed translation's effects against
// what shadowBegin recorded of the reference interpreter: registers,
// flags where the block keeps them exact, the exit pc, and the two
// write sets below env.StateBase. On agreement it returns (gotNext,
// shadowClean) and live memory is untouched. On divergence it records
// the event, rolls the translated stores back, re-applies the
// reference's, quarantines the blamed rules and purges every cached
// block built from them (a superblock is instead torn down and its head
// banned), and returns the corrected next pc — the caller must break
// the chain (prev=nil) and continue from there.
func (e *Engine) shadowCheck(tb *tblock, pc, gotNext uint32) (uint32, shadowVerdict) {
	sc := &e.shadow
	e.met.shadowChecks.Inc()
	if sc.refErr != nil {
		// The reference cannot execute the block (should not happen for
		// decodable code): nothing to compare against.
		e.Mem.DisarmSMC()
		return gotNext, shadowUnverifiable
	}
	var got guest.State
	readGuestState(e.Mem, &got)
	mm := guard.CompareStates(&sc.ref, &got, tb.flagsExact)
	if sc.refNext != gotNext {
		mm = append(mm, guard.Mismatch{Kind: guard.MismatchNextPC, Want: sc.refNext, Got: gotNext})
	}
	sc.gotWrites = e.Mem.JournalWrites(sc.gotWrites[:0], env.StateBase)
	mm = append(mm, guard.CompareWrites(sc.refWrites, sc.gotWrites, e.Mem, 4)...)
	if len(mm) == 0 {
		e.Mem.DisarmSMC()
		return gotNext, shadowClean
	}

	// Divergence: the interpreter is the semantic oracle, so its result
	// is the correct post-block state. Everything from here on is the
	// rare path and may copy images.
	e.met.divergences.Inc()
	if e.Cfg.Trace != nil {
		e.Cfg.Trace.Record(obs.EvDiverge, pc)
	}
	e.Mem.RollbackJournal() // live memory is the pre-block image again
	e.Mem.ClearDirty()      // rolled-back stores left no real dirt
	// Blame isolation retranslates single basic blocks, so it cannot
	// attribute a trace-level fault: a superblock blames no rule.
	superblock := len(tb.segs) > 1
	var guilty []*rule.Template
	if !superblock {
		guilty = e.isolateBlame(pc, tb)
	}
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

	// Recover: replace the mis-executed block's effects with the
	// reference result — through the tracked store path, so reference
	// stores into translated code are fenced like any guest store.
	applyWrites(e.Mem, sc.refWrites)
	writeGuestState(e.Mem, &sc.ref)
	if !superblock {
		// Drop every translation built from a now-quarantined rule so
		// retranslation excludes it.
		e.purgeRules(guilty)
	} else {
		// A superblock is torn down and its head banned from re-formation
		// instead. The constituent basic blocks stay cached — if one of
		// them is individually mistranslated, its own sampled executions
		// catch and quarantine it through the normal path.
		e.teardownSB(tb)
		if e.sbBan == nil {
			e.sbBan = map[uint32]bool{}
		}
		e.sbBan[pc] = true
	}
	return sc.refNext, shadowDiverged
}

// applyWrites stores a write set's final values into m.
func applyWrites(m *mem.Memory, ws []mem.WriteByte) {
	for _, w := range ws {
		m.Write8(w.Addr, w.New)
	}
}

// isolateBlame attributes a divergence to specific rules: for each
// distinct rule the block used, the block is retranslated with that
// rule excluded and re-executed on a copy of the pre-block image — if
// the result then matches the reference, the excluded rule is guilty.
// When no single exclusion fixes the block (compound faults, or a
// translator rather than rule bug) every used rule is blamed
// conservatively; a block that used no rules blames none. Called with
// live memory rolled back to the pre-block image.
func (e *Engine) isolateBlame(pc uint32, tb *tblock) []*rule.Template {
	if len(tb.rules) == 0 {
		return nil
	}
	sc := &e.shadow
	pre := e.Mem.Clone()
	ref := sc.ref
	ref.Mem = pre.Clone()
	applyWrites(ref.Mem, sc.refWrites)
	var guilty []*rule.Template
	for _, t := range tb.rules {
		if e.trialExcluding(pre, pc, &ref, sc.refNext, t) {
			guilty = append(guilty, t)
		}
	}
	if len(guilty) == 0 {
		return tb.rules
	}
	return guilty
}

// trialExcluding reports whether retranslating the block without t and
// executing it on a copy of the pre-block image reproduces the
// reference result (ref, bound to the reference's post-block image).
// Trial translation or execution failures (including panics from a
// corrupted template) exonerate nothing and simply return false.
func (e *Engine) trialExcluding(pre *mem.Memory, pc uint32, ref *guest.State, refNext uint32, t *rule.Template) (fixed bool) {
	defer func() {
		if recover() != nil {
			fixed = false
		}
	}()
	m := pre.Clone()
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
	var got guest.State
	readGuestState(m, &got)
	if len(guard.CompareStates(ref, &got, ttb.flagsExact)) != 0 {
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
	var pcs []uint32
	for pc, tb := range e.cache {
		for _, t := range tb.rules {
			if set[t] {
				pcs = append(pcs, pc)
				break
			}
		}
	}
	for _, p := range pcs {
		e.Invalidate(p)
	}
}

// translateGuarded is demand translation with fault tolerance: panics
// (real or injected) become PanicErrors, a panic attributable to a
// specific rule quarantines it, and translation is retried, up to
// maxTranslateAttempts times. Retries are immediate: nothing but the
// quarantine and the injector's budget changes between attempts.
func (e *Engine) translateGuarded(pc uint32) (*tblock, error) {
	var lastErr error
	for attempt := 0; attempt < maxTranslateAttempts; attempt++ {
		if attempt > 0 {
			e.met.translateRetries.Inc()
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
					// A quarantine is a trust event like a divergence: an
					// adaptive shadow rate snaps back to base.
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

// interpBlock executes one guest block directly on the reference
// interpreter over live memory: interpret-first's cold blocks, and the
// graceful degradation path when translation fails persistently (what
// names it in errors). It returns the next pc (HaltPC when the guest
// halted) and the instructions retired. Whatever the last translated
// execution armed is disarmed first: interpreter stores are
// authoritative and must not be journaled.
func (e *Engine) interpBlock(pc uint32, what string) (uint32, uint64, error) {
	e.Mem.DisarmSMC()
	next, n, err := e.interpLive(pc, maxBlockInsts, what, isTerminator)
	if errors.Is(err, errInterpCap) {
		err = fmt.Errorf("dbt: %s exceeded %d instructions at pc=%#x", what, maxBlockInsts, pc)
	}
	return next, n, err
}

// errInterpCap reports that interpLive retired its instruction cap
// without reaching its stop condition; callers word their own error.
var errInterpCap = errors.New("dbt: interpreter cap reached")

// interpLive runs the reference interpreter from pc over live memory,
// decoding each instruction fresh at its fetch (so bytes the run itself
// rewrites take effect at their next fetch), until the guest halts or
// stop reports true after a retired instruction. It then writes the
// state back and returns the next pc (HaltPC when halted) and the
// instructions retired. Decode and step errors are prefixed with what;
// after limit instructions without stopping it returns errInterpCap.
// On any error the CPUState is left as it was. The interpreter state is
// the engine's one reused e.ist.
func (e *Engine) interpLive(pc uint32, limit uint64, what string, stop func(guest.Inst) bool) (uint32, uint64, error) {
	st := &e.ist
	readGuestState(e.Mem, st)
	st.SetPC(pc)
	for n := uint64(0); n < limit; {
		in, err := guest.Decode(e.Mem.Read32(st.PCVal()))
		if err == nil {
			err = st.Step(in)
		}
		if err != nil {
			return 0, n, fmt.Errorf("dbt: %s at pc=%#x: %w", what, st.PCVal(), err)
		}
		n++
		if st.Halted || stop(in) {
			writeGuestState(e.Mem, st)
			if st.Halted {
				return HaltPC, n, nil
			}
			return st.PCVal(), n, nil
		}
	}
	return 0, limit, errInterpCap
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
	for _, tb := range e.cache {
		for _, t := range tb.rules {
			if !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Fingerprint() < out[j].Fingerprint() })
	return out
}
