package dbt

import (
	"testing"

	"paramdbt/internal/analysis"
	"paramdbt/internal/core"
	"paramdbt/internal/rule"
)

// TestStaticAuditBlocksCorruptRule is the admission-side acceptance
// scenario: a rule corrupted in the store (the fault-injection
// corruption shadow verification catches dynamically) is instead caught
// by the static auditor before any guarded execution — the audit yields
// a confirmed-witness unsound verdict, quarantine is applied from the
// report, and the subsequent fully-shadowed run sees zero divergences
// because the broken rule never runs.
func TestStaticAuditBlocksCorruptRule(t *testing.T) {
	c := compileT(t, testProgram())
	want := interpret(t, c)
	_, learned := learnRules(t, testProgram(), core.Config{Opcode: true, AddrMode: true})
	bad := corruptUsedAddRule(t, c, learned)

	// Rebuild the store from the (now corrupted) template table — the
	// admission scenario: rules arrive from persistence with the
	// corruption already baked in, and the audit runs before execution.
	par := rule.NewStore()
	for _, tm := range learned.All() {
		par.Add(tm)
	}

	rep := analysis.AuditStore(par)
	if rep.Unsound == 0 {
		t.Fatal("audit found no unsound rules in a store with a corrupted template")
	}
	var badRep *analysis.RuleReport
	for i := range rep.Rules {
		if rep.Rules[i].Fingerprint == bad.Fingerprint() {
			badRep = &rep.Rules[i]
		}
	}
	if badRep == nil {
		t.Fatalf("corrupted rule %v missing from the audit report", bad)
	}
	if badRep.Verdict != analysis.VerdictUnsound {
		t.Fatalf("corrupted rule audited %s, want unsound", badRep.Verdict)
	}
	if badRep.Witness == nil || !badRep.Witness.Confirmed {
		t.Fatalf("unsound verdict lacks a confirmed witness: %+v", badRep.Witness)
	}

	// Admission gating: quarantine every unsound rule from the report,
	// before the engine executes anything.
	if n := par.ApplyQuarantine(rep.UnsoundEntries()); n == 0 {
		t.Fatal("ApplyQuarantine demoted nothing")
	}
	if !par.IsQuarantined(bad) {
		t.Fatalf("corrupted rule %v not quarantined by the audit", bad)
	}

	// With the broken rule gated out, a fully shadow-verified run is
	// clean: correct final state and zero divergences.
	got, stats := runProgram(t, c, Config{Rules: par, DelegateFlags: true, ShadowRate: 1})
	sameResult(t, want, got, "audit-gated run")
	if stats.ShadowChecks == 0 {
		t.Fatal("ShadowRate=1 recorded no shadow checks")
	}
	if stats.Divergences != 0 || stats.QuarantinedRules != 0 {
		t.Fatalf("audit-gated run still diverged: %d divergences, %d quarantined at runtime",
			stats.Divergences, stats.QuarantinedRules)
	}
}
