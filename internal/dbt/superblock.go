package dbt

import (
	"errors"
	"fmt"

	"paramdbt/internal/env"
	"paramdbt/internal/guest"
	"paramdbt/internal/host"
	"paramdbt/internal/obs"
	"paramdbt/internal/trace"
)

// This file is the mechanism half of hot-trace superblocks (the policy
// half — trace growth and cross-block dead flag-store elimination —
// lives in internal/trace). A block whose entry count crosses
// Config.HotThreshold is grown into a trace along its hottest recorded
// direct-link edges and retranslated as ONE unit of several segments,
// through the same translateUnit a basic block goes through:
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
// it with the full-trace marker (k-1 for k segments) before execution
// and each side-exit stub overwrites it with its seam index, so after
// execution slot+1 is exactly the number of segments that ran, and the
// last of them carries the execution's cumulative counts (see seg).

// traceMaxBlocks caps trace growth in basic blocks (the NET family's
// usual 8-16 range; blocks here are short).
const traceMaxBlocks = 8

// sbMaxTries bounds formation attempts per head: each failure doubles
// the hotness bar (threshold << tries), and after sbMaxTries failures
// the head stops counting entirely.
const sbMaxTries = 4

// maybeSuperblock is the formation trigger, called on every entry to a
// non-superblock translation while HotThreshold is set: count the
// entry, and at the (backoff-scaled) threshold grow a trace and
// translate it on the spot. Returns the block to execute — the new
// superblock when formation succeeded, tb unchanged otherwise.
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
	sbtb := e.formSuperblock(pc, tb)
	if sbtb == nil {
		tb.hot = 0
		tb.sbTries++
		return tb
	}
	return sbtb
}

// growTrace walks the chaining profile from head and returns the trace
// pcs (nil/short when no trace forms: cold edges, indirect terminator).
func (e *Engine) growTrace(head uint32) []uint32 {
	return trace.Grow(head, traceMaxBlocks, func(pc uint32) []trace.Succ {
		tb, ok := e.cache[pc]
		if !ok || len(tb.segs) > 1 || len(tb.links) == 0 {
			return nil
		}
		out := make([]trace.Succ, len(tb.links))
		for i := range tb.links {
			out[i] = trace.Succ{PC: tb.links[i].target, Hits: tb.links[i].hits}
		}
		return out
	})
}

// formSuperblock grows the trace at head and installs it as a
// superblock. Nil when no trace forms (cold edges, indirect terminator,
// banned head) or installTrace fails — the caller backs off.
func (e *Engine) formSuperblock(head uint32, htb *tblock) *tblock {
	if e.sbBan[head] {
		htb.sbTries = sbMaxTries
		return nil
	}
	pcs := e.growTrace(head)
	if len(pcs) < 2 {
		return nil
	}
	tb := e.installTrace(pcs, htb)
	if tb != nil {
		e.met.tracesFormed.Inc()
	}
	return tb
}

// installTrace translates the trace pcs as one unit and installs it over
// its head's basic block htb: the superblock becomes the head pc's cache
// entry and every chained link that entered htb is repointed at it, so
// chained predecessors flow into the superblock without retranslation.
// The segments reuse the decoded instructions of the constituents'
// cached translations, so nothing is re-fetched or re-decoded; nil when
// one is not cached or translation fails. A panic in trace translation
// (e.g. a corrupted rule template) costs only the trace: it is absorbed
// and counted into dbt.sb_builder_panics, and the head keeps executing
// its per-block translations.
func (e *Engine) installTrace(pcs []uint32, htb *tblock) *tblock {
	s := &tblock{}
	s.segs = make([]seg, len(pcs))
	for i, pc := range pcs {
		c, ok := e.cache[pc]
		if !ok {
			return nil
		}
		s.segs[i] = seg{pc: pc, insts: c.segs[0].insts}
	}
	_, err := recoverTranslate(pcs[0], func() (*tblock, error) {
		return e.tr.translateUnit(s, &e.tx, nil, nil)
	})
	if errors.Is(err, ErrTranslatorPanic) {
		e.met.sbBuilderPanics.Inc()
	}
	if err != nil {
		return nil
	}
	e.install(s)
	for _, l := range htb.incoming {
		l.to = s
	}
	s.incoming = htb.incoming
	htb.incoming = nil
	if e.sbIndex == nil {
		e.sbIndex = map[uint32][]*tblock{}
	}
	for _, pc := range pcs {
		e.sbIndex[pc] = append(e.sbIndex[pc], s)
	}
	e.sbSpent++
	return s
}

// teardownSB removes a superblock completely: the head cache entry (if
// the superblock still owns it), every chained link in and out, and its
// sbIndex entries. The head's next dispatch demand-translates a plain
// basic block again. Idempotent via s.dead (a trace covering k pcs is
// indexed k times).
func (e *Engine) teardownSB(s *tblock) {
	if s.dead {
		return
	}
	s.dead = true
	// Hand the trace's TraceBudget claim back: every installed superblock
	// holds exactly one (installTrace), and s.dead makes this refund fire
	// once. Without it, invalidation-heavy guests (SMC) would leak the
	// budget and stop re-forming traces that are still profitable after
	// retranslation.
	e.sbSpent--
	head := s.segs[0].pc
	if e.cache[head] == s {
		delete(e.cache, head)
	}
	s.unlink()
	for _, sg := range s.segs {
		pc := sg.pc
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

// finishTrace completes a trace's host code after its final
// terminator: the deferred side-exit stubs — report the seam, store
// mapped registers, exit to the off-trace pc, so execution resumes in the
// regular cache — then the cross-block optimization: NZCV stores a later
// segment provably overwrites are dead. That is the optimization
// per-block translation can never perform, because a basic block must
// leave the architectural flag words correct at its exit.
func (tr *translator) finishTrace(tx *txctx, stubs []sbStub) {
	a := &tx.asm
	for _, st := range stubs {
		a.Bind(st.label)
		a.SetCat(host.CatControl)
		a.Emit(host.I(host.MOVL, host.Mem(host.EBP, env.OffSBExit), host.Imm(int32(st.seam))))
		a.SetCat(host.CatCompute)
		tr.exitTo(tx, st.target)
	}
	if insts, labels, removed := trace.ElideDeadFlagStores(a.Insts(), a.Labels(), host.EBP, isGuestFlagOff); removed > 0 {
		a.SetProgram(insts, labels)
	}
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
		// The stub is the off-trace direction: jump there when the guest
		// branch is taken, or — when the trace follows the taken
		// direction — when it is not.
		return tr.emitCondJump(tx, term.Cond, plans, termRule, lbl, wantTaken)

	case guest.BL:
		target := fall + uint32(term.Ops[0].Imm)*guest.InstBytes
		if next != target {
			return false, fmt.Errorf("trace follows %#x but call goes to %#x", next, target)
		}
		tr.emitLink(tx, fall)
		return false, nil
	}
	return false, fmt.Errorf("dbt: unsupported trace seam terminator %q", term)
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
