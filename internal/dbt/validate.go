package dbt

import (
	"paramdbt/internal/analysis"
	"paramdbt/internal/backend"
	"paramdbt/internal/host"
)

// finishBlock runs the post-Finalize optimization/validation stage on
// one translated unit: when Config.Peephole is set and the backend
// implements backend.Optimizer, the peephole-optimized stream is
// installed only if the translation validator proves it equivalent to
// the guest segments (anything else falls back to the finalized stream
// and bumps dbt.validate_fallbacks); when Config.Validate is "all",
// the installed stream itself is validated too, so every block's
// verdict lands in the analysis.validate_* counters. The dbt.* verdict
// counters live on the translator's owner's registry — the engine's for
// local translations, the Service's for shared prototypes.
//
// Validation never fails a translation: an inconclusive or refuted
// verdict only suppresses optimization. The unoptimized stream remains
// covered by the shadow-verification layer, which is what the refuted
// path's "demonstrably falls back" acceptance criterion leans on.
func (tr *translator) finishBlock(hb *host.Block, segs []analysis.GuestSeg, flagsExact bool) *host.Block {
	if !tr.opt.Peephole && !tr.opt.validateAll {
		return hb
	}
	opts := analysis.ValidateOpts{CheckFlags: flagsExact, HaltPC: HaltPC}
	if opt, ok := tr.be.(backend.Optimizer); ok && tr.opt.Peephole {
		ob, st, err := opt.OptimizeBlock(hb)
		if err == nil && st.Deleted() > 0 {
			if tr.mutateOpt != nil {
				if nb := tr.mutateOpt(ob); nb != nil {
					ob = nb
				}
			}
			if tr.validate(segs, ob, opts) {
				return ob // proved: no second verdict for the same unit
			}
		}
	}
	if tr.opt.validateAll {
		tr.validate(segs, hb, opts)
	}
	return hb
}

// validate runs the block validator, stamps the report with backend
// context, feeds it to Config.ValidateHook when installed, and counts
// the verdict (dbt.blocks_validated when proved, which it reports, else
// dbt.validate_fallbacks).
func (tr *translator) validate(segs []analysis.GuestSeg, hb *host.Block, opts analysis.ValidateOpts) bool {
	rep := analysis.ValidateBlock(tr.be, segs, hb, opts)
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
