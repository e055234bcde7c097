package dbt

import (
	"errors"
	"fmt"

	"paramdbt/internal/guest"
	"paramdbt/internal/mem"
	"paramdbt/internal/obs"
)

// This file is the engine half of self-modifying-code (SMC) safety; the
// store-side tracking lives in internal/mem/track.go and the design in
// docs/ROBUSTNESS.md "Self-modifying code". The invariant it maintains:
// no host code translated from guest bytes that have since been
// overwritten ever executes past the overwriting store.
//
// Mechanism, in dispatch-loop order:
//
//   - registration: every unit that reaches the cache has the pages its
//     guest bytes live on registered with the write tracker
//     (Engine.install), so guest stores there are recorded.
//   - the fence: before following a chain link or dispatching, the loop
//     drains the tracker's dirty pages and invalidates every cached
//     translation overlapping one (smcFence) — Engine.Invalidate
//     unpatches its chain links. The very next dispatch retranslates
//     from the current bytes.
//   - the self case: a store inside the executing translation's own
//     guest bytes cannot wait for the fence — the stale host code is
//     already running. The tracker's armed undo journal and self-range
//     detection flag the execution (SMCSelfHit); smcSelfAbort then rolls
//     every store of that execution back and replays the block on the
//     reference interpreter from its entry, decoding each instruction
//     from live memory, stopping precisely after the first instruction
//     that stores into a tracked page. Execution resumes through the
//     dispatcher, which retranslates from the new bytes.
//
// Translated host code is straight-line per execution (no backward
// branches; loops re-enter through the dispatcher), so letting the
// stale block run to its exit before aborting is safe: every store it
// makes is journaled and undone, and the replay re-derives the true
// architectural state. A host execution error after a self hit is
// treated the same way — the stale tail's effects are discarded either
// way.

// instHasStore marks the guest opcodes that write memory; units
// containing none skip journal arming entirely.
func instHasStore(in guest.Inst) bool {
	switch in.Op {
	case guest.STR, guest.STRB, guest.FSTR, guest.PUSH:
		return true
	}
	return false
}

// smcOverlaps reports whether the unit's guest bytes touch any of the
// dirty pages.
func smcOverlaps(tb *tblock, pages map[uint32]bool) bool {
	r := tb.ranges[0]
	for k := r[0] >> mem.PageBits; k <= (r[1]-1)>>mem.PageBits; k++ {
		if pages[k] {
			return true
		}
	}
	return false
}

// smcFence drains the tracker's dirty pages and invalidates every
// cached translation overlapping one. Returns the number of
// translations invalidated (0 when nothing was dirty). Must run on the
// Run goroutine before the next chain-follow or dispatch.
func (e *Engine) smcFence() int {
	pages := e.Mem.TakeDirtyPages()
	if len(pages) == 0 {
		return 0
	}
	// A shared translation service's prototypes were built from the code
	// image this tenant registered at attach time, and that image just
	// changed: detach and translate locally from here on.
	e.svc, e.tnt = nil, nil
	set := make(map[uint32]bool, len(pages))
	for _, k := range pages {
		set[k] = true
	}
	var pcs []uint32
	for pc, tb := range e.cache {
		if smcOverlaps(tb, set) {
			pcs = append(pcs, pc)
		}
	}
	for _, pc := range pcs {
		e.Invalidate(pc)
	}
	// Every translation overlapping the dirty pages is gone; the pages
	// return to the untracked fast path until retranslation re-registers
	// them.
	for _, k := range pages {
		e.Mem.UntrackPage(k)
	}
	e.met.smcInvalidations.Add(uint64(len(pcs)))
	if e.Cfg.Trace != nil {
		for _, pc := range pcs {
			e.Cfg.Trace.Record(obs.EvInvalidate, pc)
		}
	}
	return len(pcs)
}

// smcSelfAbort recovers from a translation that stored into its own
// guest bytes: roll back every store of the aborted execution, replay
// on the reference interpreter from the entry pc over live memory —
// decoding each instruction fresh, so bytes the replay itself rewrites
// take effect at their next fetch — and stop precisely after the first
// instruction that stores into a tracked page (the architectural
// precise-exit point). The caller resumes dispatch at the returned pc
// with the chain broken; the fence run here has already invalidated
// every translation the store overlapped, including the aborted one.
// Returns the resume pc (HaltPC if the replay halted) and the guest
// instructions retired by the replay.
func (e *Engine) smcSelfAbort(pc uint32) (uint32, uint64, error) {
	e.Mem.RollbackJournal() // also disarms: replay stores are authoritative
	e.Mem.ClearDirty()      // rolled-back stores left no real dirt
	codeDirty := func(guest.Inst) bool { return e.Mem.CodeDirty() }
	// The faulting store re-occurs within the same straight-line path, so
	// the replay is capped at the longest possible block plus slack for
	// conditional skips.
	next, n, err := e.interpLive(pc, maxBlockInsts+8, "smc replay", codeDirty)
	if errors.Is(err, errInterpCap) {
		err = fmt.Errorf("dbt: smc replay from pc=%#x retired %d insts without reaching the faulting store", pc, n)
	}
	if err != nil {
		return 0, n, err
	}
	e.met.smcSelfAborts.Inc()
	e.met.guestInsts.Add(n)
	if e.Cfg.Trace != nil {
		e.Cfg.Trace.Record(obs.EvFallback, pc)
	}
	e.smcFence()
	return next, n, nil
}
