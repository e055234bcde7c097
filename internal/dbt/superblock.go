package dbt

import (
	"errors"
	"fmt"
	"runtime"

	"paramdbt/internal/core"
	"paramdbt/internal/env"
	"paramdbt/internal/guest"
	"paramdbt/internal/host"
	"paramdbt/internal/obs"
	"paramdbt/internal/tcg"
	"paramdbt/internal/trace"
)

// This file is the mechanism half of hot-trace superblocks (the policy
// half — trace growth and cross-block dead flag-store elimination —
// lives in internal/trace). A block whose entry count crosses
// Config.HotThreshold is grown into a trace along its hottest recorded
// direct-link edges and retranslated as ONE host block:
//
//   - registers are allocated once over the whole trace, so the
//     per-seam epilogue/prologue store-reload traffic of chained
//     per-block execution disappears;
//   - each non-final block's conditional branch becomes a single jcc to
//     a side-exit stub (the off-trace direction), with the on-trace
//     direction falling straight through into the next block's body;
//   - condition-flag stores that a later constituent provably
//     overwrites are elided by trace.ElideDeadFlagStores;
//   - every exit — side-exit stub or final terminator — carries the
//     normal epilogue, so off-trace execution continues in the regular
//     code cache with fully coherent CPUState.
//
// The superblock is installed over the head pc's cache entry (and every
// chained link into the old head is repointed at it), so both the
// dispatcher and chained predecessors enter it with zero extra
// indirection. Mid-trace pcs keep their own basic-block translations
// for paths that join the trace in the middle.
//
// Exit accounting uses the CPUState's OffSBExit slot: the engine arms
// it with the full-trace marker (len(pcs)-1) before execution and each
// side-exit stub overwrites it with its seam index, so after execution
// slot+1 is exactly the number of constituent blocks that ran — the
// index into the sbMeta prefix sums below.

// defaultTraceMaxBlocks caps trace growth when Config.TraceMaxBlocks is
// unset (the NET family's usual 8-16 range; blocks here are short).
const defaultTraceMaxBlocks = 8

// sbMaxTries bounds formation attempts per head: each failure doubles
// the hotness bar (threshold << tries), and after sbMaxTries failures
// the head stops counting entirely.
const sbMaxTries = 4

// sbMeta is the trace-level bookkeeping attached to a superblock's
// tblock. Immutable after construction except dead (Run goroutine
// only).
type sbMeta struct {
	pcs   []uint32       // constituent block pcs, head first
	insts [][]guest.Inst // per-constituent decoded guest instructions

	// Prefix sums over constituents, indexed by executed-block count:
	// cum*[n] totals the first n blocks, so the exit slot directly
	// selects the right statistics for partial (side-exit) runs.
	cumGuest   []uint64
	cumCovered []uint64
	cumSeq     []uint64
	uncovered  [][]guest.Op // per-constituent emulated opcodes

	elided int  // flag stores removed by the cross-block pass
	dead   bool // torn down; guards double-teardown via sbIndex aliases
}

// maybeSuperblock is the formation trigger, called on every entry to a
// non-superblock translation while HotThreshold is set: count the
// entry, and at the (backoff-scaled) threshold grow a trace and either
// translate it inline (Config.SyncTraces) or hand it to the background
// pool. Returns the block to execute — the new superblock when a
// synchronous formation succeeded, tb unchanged otherwise (an
// asynchronous superblock is entered on a later iteration, after the
// dispatch loop drains the job's result).
func (e *Engine) maybeSuperblock(pc uint32, tb *tblock) *tblock {
	if tb.sbTries >= sbMaxTries {
		return tb
	}
	if e.Cfg.TraceBudget > 0 && e.sbSpent >= e.Cfg.TraceBudget {
		// Budget exhausted: stop counting on this head for good, so the
		// steady-state cost returns to zero like cold blocks.
		tb.sbTries = sbMaxTries
		return tb
	}
	tb.hot++
	if tb.hot < e.Cfg.HotThreshold<<tb.sbTries {
		return tb
	}
	if e.Cfg.SyncTraces {
		sbtb := e.formSuperblock(pc, tb)
		if sbtb == nil {
			tb.hot = 0
			tb.sbTries++
			return tb
		}
		return sbtb
	}
	e.submitSuperblock(pc, tb)
	return tb
}

// growTrace walks the chaining profile from head and returns the trace
// pcs (nil/short when no trace forms: cold edges, indirect terminator).
func (e *Engine) growTrace(head uint32) []uint32 {
	return trace.Grow(head, e.Cfg.TraceMaxBlocks, func(pc uint32) []trace.Succ {
		tb, ok := e.cache.get(pc)
		if !ok || tb.sb != nil || len(tb.links) == 0 {
			return nil
		}
		out := make([]trace.Succ, len(tb.links))
		for i := range tb.links {
			out[i] = trace.Succ{PC: tb.links[i].target, Hits: tb.links[i].hits}
		}
		return out
	})
}

// formSuperblock grows the trace at head and translates and installs
// the superblock synchronously. Nil when no trace forms (cold edges,
// indirect terminator, banned head) or translation fails — the caller
// backs off.
func (e *Engine) formSuperblock(head uint32, htb *tblock) *tblock {
	if e.sbBan[head] {
		htb.sbTries = sbMaxTries
		return nil
	}
	pcs := e.growTrace(head)
	if len(pcs) < 2 {
		return nil
	}
	sbtb, err := e.tr.translateSuperblock(pcs, e.traceBlocks(pcs), &e.tx)
	if err != nil {
		return nil
	}
	e.installSB(sbtb, htb)
	e.sbSpent++
	e.met.tracesFormed.Inc()
	return sbtb
}

// traceBlocks collects the constituents' decoded instructions from
// their cached per-block translations — growTrace only walks cached
// blocks, so every pc is present and trace translation re-fetches and
// re-decodes nothing. The insts slices are immutable after
// construction, which also makes them safe to hand to a pool worker.
func (e *Engine) traceBlocks(pcs []uint32) [][]guest.Inst {
	blocks := make([][]guest.Inst, len(pcs))
	for i, pc := range pcs {
		tb, ok := e.cache.get(pc)
		if !ok {
			return nil
		}
		blocks[i] = tb.insts
	}
	return blocks
}

// submitSuperblock is the asynchronous formation path: grow the trace
// on the dispatch loop (a cheap link walk over profile data only the
// Run goroutine may touch) and queue its translation — the expensive
// part, ~two orders of magnitude more than a dispatch — as a hi job on
// the background pool, the way tiered JITs run their optimizing compiler
// on a separate thread. The job needs no guest-memory snapshot: it
// carries the constituents' decoded instructions (immutable, lifted from
// the cache here), and translation reads only those and the immutable
// rule store. Its output is not a cache insert but a message back to the
// Run goroutine, stamped with the cache generation the trace was grown
// under. The head keeps executing its per-block translations until the
// finished superblock is drained and installed, so trace translation
// latency never stalls guest progress. Failures surface through the
// drained result and back off exactly like synchronous formation.
func (e *Engine) submitSuperblock(head uint32, htb *tblock) {
	if e.sbBan[head] {
		htb.sbTries = sbMaxTries
		return
	}
	htb.hot = 0 // every outcome below re-heats the head from zero
	if e.sbPending[head] {
		return // a job for this head is already in flight
	}
	pcs := e.growTrace(head)
	blocks := e.traceBlocks(pcs)
	if len(pcs) < 2 || blocks == nil {
		htb.sbTries++
		return
	}
	p := e.background() // first: it makes sbResults and sbPending
	results, gen := e.sbResults, e.cacheGen
	// Jobs in flight are capped at the results buffer, so a job's send
	// never blocks its worker. At the cap, or with the queue full, the
	// hint is dropped without a backoff penalty — the head re-heats and
	// resubmits once the workers catch up.
	if e.sbInFlight < cap(results) && p.submit(p.hi, func(tx *txctx) {
		results <- e.buildSuperblock(head, gen, pcs, blocks, tx)
	}) {
		e.sbPending[head] = true
		e.sbInFlight++
		// The job claims budget up front; failed or stale results refund
		// it in finishSBResult, abandoned ones in closeBackground.
		e.sbSpent++
	}
}

// sbQueueDepth bounds superblock jobs in flight per engine.
const sbQueueDepth = 32

// buildSuperblock is the pool-worker half of asynchronous formation.
// Panics (e.g. a corrupted rule template) become a result with tb nil:
// finishSBResult refunds the budget claim and backs the head off, and
// execution continues per-block — a panic in background trace formation
// costs the superblock, never the process. Each absorbed panic counts
// into dbt.sb_builder_panics (the counter is atomic; this runs off the
// Run goroutine).
func (e *Engine) buildSuperblock(head uint32, gen uint64, pcs []uint32, blocks [][]guest.Inst, tx *txctx) sbResult {
	tb, err := recoverTranslate(head, func() (*tblock, error) {
		return e.tr.translateSuperblock(pcs, blocks, tx)
	})
	if errors.Is(err, ErrTranslatorPanic) {
		e.met.sbBuilderPanics.Inc()
	}
	return sbResult{head: head, gen: gen, tb: tb}
}

// drainSB installs every superblock the pool has finished. Called
// from the dispatch loop only while jobs are in flight, so the idle
// cost is one counter load. When jobs remain after the drain, the
// dispatch goroutine yields its processor once: with GOMAXPROCS > 1
// that is practically free, and on a single processor it is what lets
// the workers run at all — a dispatch loop never blocks, so without
// the yield background translation would only progress at the
// runtime's coarse async-preemption ticks and finished superblocks
// would land too late to matter.
func (e *Engine) drainSB() {
	for e.sbInFlight > 0 {
		select {
		case r := <-e.sbResults:
			e.sbInFlight--
			delete(e.sbPending, r.head)
			e.finishSBResult(r)
		default:
			runtime.Gosched()
			return
		}
	}
}

// finishSBResult applies one background result on the Run goroutine: the
// asynchronous half of formSuperblock's install-or-back-off.
func (e *Engine) finishSBResult(r sbResult) {
	htb, ok := e.cache.get(r.head)
	if !ok || htb.sb != nil {
		e.sbSpent--
		return // head invalidated or already covered meanwhile
	}
	if r.gen != e.cacheGen {
		// Cache state changed since submission; re-heat and resubmit
		// against the current world (no backoff penalty — nothing about
		// the trace itself failed).
		e.sbSpent--
		htb.hot = 0
		return
	}
	if r.tb == nil {
		e.sbSpent--
		htb.hot = 0
		htb.sbTries++
		return
	}
	e.installSB(r.tb, htb)
	e.met.tracesFormed.Inc()
}

// sbResult is a superblock job's reply: gen stamps the cache generation
// the trace was grown under, and tb is nil when translation failed (the
// head backs off as in synchronous formation).
type sbResult struct {
	head uint32
	gen  uint64
	tb   *tblock
}

// installSB makes the superblock the head pc's cache entry and repoints
// every chained link that entered the old head translation, so chained
// predecessors flow into the superblock without retranslation.
func (e *Engine) installSB(s *tblock, old *tblock) {
	sb := s.sb
	head := sb.pcs[0]
	// The head already counted toward Stats.Blocks at its first entry;
	// the superblock is a retranslation, not a new block.
	s.seen = true
	e.cache.put(head, s)
	for _, l := range old.incoming {
		l.to = s
	}
	s.incoming = old.incoming
	old.incoming = nil
	if e.sbIndex == nil {
		e.sbIndex = map[uint32][]*tblock{}
	}
	for _, pc := range sb.pcs {
		e.sbIndex[pc] = append(e.sbIndex[pc], s)
	}
	if !s.smcDone {
		e.initSMCMetaSB(s)
	}
}

// teardownSB removes a superblock completely: the head cache entry (if
// the superblock still owns it), every chained link in and out, and its
// sbIndex entries. The head's next dispatch demand-translates a plain
// basic block again. Idempotent via sb.dead (a trace covering k pcs is
// indexed k times).
func (e *Engine) teardownSB(s *tblock) {
	sb := s.sb
	if sb == nil || sb.dead {
		return
	}
	sb.dead = true
	// Hand the trace's TraceBudget claim back: every installed superblock
	// holds exactly one (formSuperblock, finishSBResult or the warm
	// restore), and sb.dead makes this refund fire once. Without it,
	// invalidation-heavy guests (SMC) would leak the budget and stop
	// re-forming traces that are still profitable after retranslation.
	e.sbSpent--
	head := sb.pcs[0]
	if cur, ok := e.cache.get(head); ok && cur == s {
		e.cache.remove(head)
	}
	for _, l := range s.incoming {
		l.to = nil
	}
	s.incoming = nil
	for i := range s.links {
		s.links[i].to = nil
	}
	for _, pc := range sb.pcs {
		list := e.sbIndex[pc]
		for i, x := range list {
			if x == s {
				list[i] = list[len(list)-1]
				list = list[:len(list)-1]
				break
			}
		}
		if len(list) == 0 {
			delete(e.sbIndex, pc)
		} else {
			e.sbIndex[pc] = list
		}
	}
	if obs.On() {
		e.met.traceInvalidations.Inc()
	}
}

// sbStub is one deferred side-exit: a label bound after the final
// terminator, the seam index it reports in OffSBExit, and the off-trace
// pc it exits to.
type sbStub struct {
	label  int
	seam   int
	target uint32
}

// translateSuperblock retranslates the trace as one host block through
// the normal lowering pipeline: shared prologue, per-constituent bodies
// and seams, final terminator, deferred side-exit stubs, cross-block
// dead flag-store elimination, backend Finalize. blocks holds the
// constituents' decoded instructions (from their cached per-block
// translations — nothing is re-fetched or re-decoded) and tx the
// caller's arena; like translate, the function reads only those and the
// rule store, so it is safe off the Run goroutine with a private arena.
func (tr *translator) translateSuperblock(pcs []uint32, blocks [][]guest.Inst, tx *txctx) (*tblock, error) {
	if blocks == nil {
		return nil, fmt.Errorf("dbt: trace constituents not cached")
	}
	k := len(pcs)

	// Plan every constituent against the trace-wide register mapping.
	// The binding arena must stay alive through emission of all blocks,
	// so the whole trace is one txctx reset (one translation unit).
	tx.reset()
	tx.fetch = tx.fetch[:0]
	for _, insts := range blocks {
		tx.fetch = append(tx.fetch, insts...)
		tx.bps = append(tx.bps, tr.planBlock(insts, tx, nil))
	}
	tr.allocRegs(tx.fetch, &tx.regs)
	for i := range blocks {
		tr.finishPlan(&tx.bps[i], blocks[i], &tx.regs)
	}

	tr.emitPrologue(tx)
	sb := &sbMeta{
		pcs:        pcs,
		insts:      blocks,
		cumGuest:   make([]uint64, k+1),
		cumCovered: make([]uint64, k+1),
		cumSeq:     make([]uint64, k+1),
		uncovered:  make([][]guest.Op, k),
	}
	var stubs []sbStub
	covered, seq := uint64(0), uint64(0)
	for i := range blocks {
		insts := blocks[i]
		bp := tx.bps[i]
		u0 := len(tx.uncovered)
		em, err := tr.emitBody(tx, pcs[i], insts, bp.plans, nil)
		if err != nil {
			return nil, fmt.Errorf("trace block %d @%#x: %w", i, pcs[i], err)
		}
		n := len(insts)
		term := insts[n-1]
		termPC := pcs[i] + uint32((n-1)*guest.InstBytes)
		bcov := em.covered
		var termCovered bool
		if i == k-1 {
			termCovered, err = tr.emitTerminator(tx, term, termPC, bp.plans, bp.termRule)
		} else {
			termCovered, err = tr.emitSeam(tx, term, termPC, pcs[i+1], bp.plans, bp.termRule, i, &stubs)
		}
		if err != nil {
			return nil, fmt.Errorf("trace block %d @%#x terminator %q: %w", i, pcs[i], term, err)
		}
		// Same terminator coverage accounting as translate, per
		// constituent, so superblock coverage matches per-block coverage
		// for identical execution paths.
		if !termCovered && tr.opt.ManualABI && manualTerminatorCovered(term) {
			termCovered = true
		}
		if termCovered {
			if bp.termRule == nil {
				bcov++
			}
		} else {
			tx.uncovered = append(tx.uncovered, term.Op)
			if bp.termRule != nil {
				bcov--
			}
		}
		covered += bcov
		seq += em.seq
		sb.cumGuest[i+1] = sb.cumGuest[i] + uint64(n)
		sb.cumCovered[i+1] = covered
		sb.cumSeq[i+1] = seq
		sb.uncovered[i] = own(tx.uncovered[u0:])
	}

	// Deferred side-exit stubs: report the seam, store mapped registers,
	// exit to the off-trace pc. Execution resumes in the regular cache.
	a := &tx.asm
	for _, st := range stubs {
		a.Bind(st.label)
		a.SetCat(host.CatControl)
		a.Emit(host.I(host.MOVL, host.Mem(host.EBP, env.OffSBExit), host.Imm(int32(st.seam))))
		a.SetCat(host.CatCompute)
		tr.exitTo(tx, st.target)
	}

	// Cross-block optimization: NZCV stores a later constituent provably
	// overwrites are dead — the optimization per-block translation can
	// never perform, because a basic block must leave the architectural
	// flag words correct at its exit.
	if insts, labels, removed := trace.ElideDeadFlagStores(a.Insts(), a.Labels(), host.EBP, isGuestFlagOff); removed > 0 {
		a.SetProgram(insts, labels)
		sb.elided = removed
	}

	hb, err := tr.be.Finalize(a)
	if err != nil {
		return nil, err
	}
	hb = tr.finishBlock(hb)

	used := own(tx.used)
	return &tblock{
		hb:     hb,
		insts:  blocks[0],
		nGuest: sb.cumGuest[k],
		links:  sbLinks(stubs, pcs, blocks),
		rules:  used,
		// Seams delegate or consume flags across block boundaries and
		// the elision pass removes interior materializations, so the
		// CPUState NZCV words are not exact at every exit; the shadow
		// verifier compares registers and memory only.
		flagsExact: false,
		sb:         sb,
	}, nil
}

// emitSeam ends a non-final constituent: the on-trace direction falls
// through into the next block's body, the off-trace direction (if any)
// branches to a deferred side-exit stub. Reports whether the guest
// branch counts as rule-covered (same meaning as emitTerminator).
func (tr *translator) emitSeam(tx *txctx, term guest.Inst, termPC, next uint32, plans []iplan, termRule *iplan, seam int, stubs *[]sbStub) (bool, error) {
	a := &tx.asm
	fall := termPC + guest.InstBytes
	switch term.Op {
	case guest.B:
		target := fall + uint32(term.Ops[0].Imm)*guest.InstBytes
		if term.Cond == guest.AL || target == fall {
			if next != target {
				return false, fmt.Errorf("trace follows %#x but branch goes to %#x", next, target)
			}
			// Unconditional: the branch vanishes entirely — no code.
			return false, nil
		}
		var off uint32     // the off-trace pc
		var wantTaken bool // on-trace means the guest branch is taken
		switch next {
		case target:
			off, wantTaken = fall, true
		case fall:
			off, wantTaken = target, false
		default:
			return false, fmt.Errorf("trace follows %#x, not a successor of the branch", next)
		}
		lbl := a.NewLabel()
		*stubs = append(*stubs, sbStub{label: lbl, seam: seam, target: off})
		jcc := func(hc host.Cond) {
			// hc jumps when the guest branch is taken; the stub is the
			// off-trace direction.
			if wantTaken {
				hc = negCond(hc)
			}
			a.SetCat(host.CatControl)
			a.Emit(host.Jcc(hc, lbl))
			a.SetCat(host.CatCompute)
		}
		delegatedFrom := -1
		for i := range plans {
			if plans[i].delegated {
				delegatedFrom = i
			}
		}
		switch {
		case termRule != nil:
			jcc(termRule.tmpl.HCond)
			return true, nil
		case delegatedFrom >= 0:
			hc, ok := core.DelegateCond(plans[delegatedFrom].tmpl.Flags, term.Cond)
			if !ok {
				return false, fmt.Errorf("delegation planned but condition unmappable")
			}
			jcc(hc)
			return true, nil
		default:
			start := a.Len()
			g := &tx.g
			g.Reset()
			v := g.EvalCond(term.Cond)
			br := tcg.Brnz // off-trace when the condition holds (next == fall)
			if wantTaken {
				br = tcg.Brz // off-trace when it does not (next == target)
			}
			g.Insts = append(g.Insts, tcg.Inst{Op: br, A: v, Label: lbl, Dst: -1})
			if err := tr.lowerIR(tx, g); err != nil {
				return false, err
			}
			retag(a, start, host.CatControl)
			return false, nil
		}

	case guest.BL:
		target := fall + uint32(term.Ops[0].Imm)*guest.InstBytes
		if next != target {
			return false, fmt.Errorf("trace follows %#x but call goes to %#x", next, target)
		}
		a.SetCat(host.CatControl)
		if hr, ok := tx.regs.get(guest.LR); ok {
			a.Emit(host.I(host.MOVL, host.R(hr), host.Imm(int32(fall))))
		} else {
			a.Emit(host.I(host.MOVL, host.Mem(host.EBP, env.OffReg(int(guest.LR))), host.Imm(int32(fall))))
		}
		a.SetCat(host.CatCompute)
		return false, nil
	}
	return false, fmt.Errorf("dbt: unsupported trace seam terminator %q", term)
}

// sbLinks builds the superblock's direct-exit slots: every side-exit
// target plus the final terminator's static successors, deduplicated —
// so superblock exits chain exactly like basic-block exits.
func sbLinks(stubs []sbStub, pcs []uint32, blocks [][]guest.Inst) []blockLink {
	var out []blockLink
	add := func(t uint32) {
		for i := range out {
			if out[i].target == t {
				return
			}
		}
		out = append(out, blockLink{target: t})
	}
	for _, s := range stubs {
		add(s.target)
	}
	k := len(pcs)
	var buf [2]blockLink
	for _, l := range directLinks(pcs[k-1], blocks[k-1], &buf) {
		add(l.target)
	}
	return out
}

// isGuestFlagOff reports whether a CPUState offset holds one of the
// guest NZCV words (the slots the cross-block elision pass may treat as
// dead-until-overwritten).
func isGuestFlagOff(off int32) bool {
	switch off {
	case env.OffN, env.OffZ, env.OffC, env.OffV:
		return true
	}
	return false
}

// negCond returns the complementary host condition.
func negCond(c host.Cond) host.Cond {
	switch c {
	case host.E:
		return host.NE
	case host.NE:
		return host.E
	case host.S:
		return host.NS
	case host.NS:
		return host.S
	case host.O:
		return host.NO
	case host.NO:
		return host.O
	case host.B:
		return host.AE
	case host.AE:
		return host.B
	case host.BE:
		return host.A
	case host.A:
		return host.BE
	case host.L:
		return host.GE
	case host.GE:
		return host.L
	case host.LE:
		return host.G
	case host.G:
		return host.LE
	}
	return c
}
