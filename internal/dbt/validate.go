package dbt

import (
	"paramdbt/internal/analysis"
	"paramdbt/internal/backend"
	"paramdbt/internal/guest"
	"paramdbt/internal/host"
)

// finishBlock runs the post-Finalize optimization/validation stage on
// one translated unit. When Config.Peephole is set and the backend
// implements backend.Optimizer, the peephole-optimized stream is
// installed exactly when analysis.ValidateRewrite proves it equivalent
// to the finalized stream it was optimized from; anything else keeps the
// finalized stream and bumps dbt.validate_fallbacks. The finalized
// stream carries the trust every x86 block carries — the rule audit at
// admission plus shadow sampling — so proving the rewrite is what the
// optimization owes, and it is cheap: the pass only deletes
// flag-transparent moves, which lift to the identical expression DAG.
// When Config.Validate is "all", the installed stream (optimized or
// not) is also validated against the guest block, so every unit's
// guest verdict lands in the analysis.validate_* counters. The dbt.*
// verdict counters live on the translator's owner's registry — the
// engine's for local translations, the Service's for shared prototypes.
//
// Validation never fails a translation: a verdict other than proved
// only suppresses optimization. The unoptimized stream remains covered
// by the shadow-verification layer, which is what the refuted path's
// "demonstrably falls back" acceptance criterion leans on. pcs and
// blocks are the unit's constituents, one for a basic block.
func (tr *translator) finishBlock(hb *host.Block, pcs []uint32, blocks [][]guest.Inst, flagsExact bool) *host.Block {
	if !tr.opt.Peephole && !tr.opt.validateAll {
		return hb
	}
	segs := make([]analysis.GuestSeg, len(pcs))
	for i := range segs {
		segs[i] = analysis.GuestSeg{PC: pcs[i], Insts: blocks[i]}
	}
	installed := hb
	if opt, ok := tr.be.(backend.Optimizer); ok && tr.opt.Peephole {
		ob, st, err := opt.OptimizeBlock(hb)
		if err == nil && st.Deleted() > 0 {
			if tr.mutateOpt != nil {
				if nb := tr.mutateOpt(ob); nb != nil {
					ob = nb
				}
			}
			if tr.report(analysis.ValidateRewrite(hb, ob), segs) {
				installed = ob
			}
		}
	}
	if tr.opt.validateAll {
		opts := analysis.ValidateOpts{CheckFlags: flagsExact, HaltPC: HaltPC}
		tr.report(analysis.ValidateBlock(segs, installed, opts), segs)
	}
	return installed
}

// report stamps a validation report with backend context, feeds it to
// Config.ValidateHook when installed, and counts the verdict
// (dbt.blocks_validated when proved, which it reports, else
// dbt.validate_fallbacks).
func (tr *translator) report(rep *analysis.BlockReport, segs []analysis.GuestSeg) bool {
	rep.Backend = tr.be.Name()
	rep.PC = segs[0].PC
	if tr.validateHook != nil {
		tr.validateHook(rep)
	}
	if rep.Verdict == analysis.VerdictProved {
		tr.validated.Inc()
		return true
	}
	tr.fallbacks.Inc()
	return false
}
