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
//   - registration: every translation that reaches the cache has the
//     pages its guest bytes live on registered with the write tracker
//     (initSMCMeta, installSB), so guest stores there are recorded.
//   - the fence: before following a chain link or dispatching, the loop
//     drains the tracker's dirty pages and invalidates every cached
//     translation overlapping one (smcFence) — Engine.Invalidate tears
//     down covering superblocks through sbIndex, unpatches chain links,
//     bumps cacheGen so in-flight superblock results are discarded, and
//     closes the background pool. The very next dispatch retranslates from
//     the current bytes.
//   - the self case: a store inside the executing translation's own
//     guest ranges cannot wait for the fence — the stale host code is
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

// smcStores marks the guest opcodes that write memory; translations
// containing none skip journal arming entirely.
func instHasStore(in guest.Inst) bool {
	switch in.Op {
	case guest.STR, guest.STRB, guest.FSTR, guest.PUSH:
		return true
	}
	return false
}

// initSMCMeta computes a translation's SMC metadata — whether it
// contains guest stores, and the guest address ranges it was decoded
// from — and registers its pages with the write tracker. Called on the
// Run goroutine the first time a translation is seen by the dispatcher
// (which also covers blocks inserted by speculative workers: they are
// only ever entered through a dispatch or a chain link patched after
// one).
func (e *Engine) initSMCMeta(pc uint32, tb *tblock) {
	lo, hi := pc, pc+uint32(tb.nGuest)*guest.InstBytes
	tb.smcRanges = [][2]uint32{{lo, hi}}
	for _, in := range tb.insts {
		if instHasStore(in) {
			tb.hasStores = true
			break
		}
	}
	e.Mem.TrackRange(lo, hi)
	tb.smcDone = true
}

// initSMCMetaSB is initSMCMeta for a superblock: one range per
// constituent (traces need not be address-contiguous).
func (e *Engine) initSMCMetaSB(tb *tblock) {
	sb := tb.sb
	tb.smcRanges = make([][2]uint32, len(sb.pcs))
	for i, hpc := range sb.pcs {
		lo, hi := hpc, hpc+uint32(len(sb.insts[i]))*guest.InstBytes
		tb.smcRanges[i] = [2]uint32{lo, hi}
		e.Mem.TrackRange(lo, hi)
		if tb.hasStores {
			continue
		}
		for _, in := range sb.insts[i] {
			if instHasStore(in) {
				tb.hasStores = true
				break
			}
		}
	}
	tb.smcDone = true
}

// smcOverlaps reports whether the translation's guest ranges touch any
// of the dirty pages.
func smcOverlaps(tb *tblock, pages map[uint32]bool) bool {
	for _, r := range tb.smcRanges {
		for k := r[0] >> mem.PageBits; k <= (r[1]-1)>>mem.PageBits; k++ {
			if pages[k] {
				return true
			}
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
	// Speculative jobs translate from a snapshot of the code image taken
	// when the Run started; the first guest code write makes it
	// permanently stale. Demote to demand-only translation for the rest
	// of the run (closing the pool waits out in-flight jobs, so the cache
	// scan below sees every worker insert; superblock formation restarts
	// the pool on its next submission).
	if e.specCode != nil {
		e.closeBackground()
		e.specCode = nil
	}
	// Same staleness argument detaches a shared translation service:
	// its prototypes were built from the code image this tenant
	// registered at attach time, and that image just changed.
	e.svc, e.tnt = nil, nil
	set := make(map[uint32]bool, len(pages))
	for _, k := range pages {
		set[k] = true
	}
	var pcs []uint32
	e.cache.each(func(pc uint32, tb *tblock) {
		if tb.smcDone && smcOverlaps(tb, set) {
			pcs = append(pcs, pc)
		} else if !tb.smcDone {
			// A worker-inserted translation the dispatcher has not seen
			// yet: its ranges are unknown here and its snapshot may predate
			// the write — drop it rather than reason about it.
			pcs = append(pcs, pc)
		}
	})
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

// smcReplayCap bounds the interpreter replay of an aborted execution:
// the faulting store re-occurs within the same straight-line path, so
// the cap is the translation's own length (per constituent for a
// superblock) plus slack for conditional skips.
func smcReplayCap(tb *tblock) uint64 {
	n := uint64(maxBlockInsts)
	if tb.sb != nil {
		n *= uint64(len(tb.sb.pcs))
	}
	return n + 8
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
func (e *Engine) smcSelfAbort(tb *tblock, pc uint32) (uint32, uint64, error) {
	e.Mem.RollbackJournal() // also disarms: replay stores are authoritative
	e.Mem.ClearDirty()      // rolled-back stores left no real dirt
	codeDirty := func(guest.Inst) bool { return e.Mem.CodeDirty() }
	next, n, err := e.interpLive(pc, smcReplayCap(tb), "smc replay", codeDirty)
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

// codePoker is the optional fault-injection extension for deterministic
// SMC campaigns: when Config.Faults also implements it, the dispatch
// loop asks before every dispatch ordinal for guest code writes to
// apply (on the Run goroutine, through the tracked store path — so the
// pokes exercise exactly the fence machinery a guest store does).
// faultinject.Injector implements it structurally.
type codePoker interface {
	// CodePokes returns the (addr, word) stores to apply before dispatch
	// ordinal n (1-based). Must be a pure function of n for determinism.
	CodePokes(n uint64) [][2]uint32
}
