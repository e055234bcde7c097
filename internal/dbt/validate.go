package dbt

import (
	"paramdbt/internal/analysis"
	"paramdbt/internal/backend"
	"paramdbt/internal/host"
)

// finishBlock runs the post-Finalize optimization stage on one
// translated unit. When Config.Peephole is set and the backend
// implements backend.Optimizer, the peephole-optimized stream is
// installed exactly when analysis.ValidateRewrite proves it equivalent
// to the finalized stream it was optimized from; anything else keeps the
// finalized stream and bumps dbt.validate_fallbacks. The finalized
// stream carries the trust every x86 block carries — the rule audit at
// admission plus shadow sampling — so proving the rewrite is what the
// optimization owes, and it is cheap: the pass only deletes
// flag-transparent moves, which lift to the identical expression DAG.
// The dbt.* verdict counters live on the translator's owner's registry —
// the engine's for local translations, the Service's for shared
// prototypes. Guest-vs-host validation is not on this path: it is the
// offline audit over Engine.Translations (internal/exp.Audit).
//
// Validation never fails a translation: a verdict other than proved
// only suppresses optimization. The unoptimized stream remains covered
// by the shadow-verification layer, which is what the refuted path's
// "demonstrably falls back" acceptance criterion leans on.
func (tr *translator) finishBlock(hb *host.Block) *host.Block {
	opt, ok := tr.be.(backend.Optimizer)
	if !ok || !tr.opt.Peephole {
		return hb
	}
	ob, st, err := opt.OptimizeBlock(hb)
	if err != nil || st.Deleted() == 0 {
		return hb
	}
	if analysis.ValidateRewrite(hb, ob).Verdict != analysis.VerdictProved {
		tr.fallbacks.Inc()
		return hb
	}
	tr.validated.Inc()
	return ob
}
