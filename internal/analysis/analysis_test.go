package analysis

import (
	"strings"
	"testing"

	"paramdbt/internal/guard/faultinject"
	"paramdbt/internal/guest"
	"paramdbt/internal/host"
	"paramdbt/internal/rule"
	"paramdbt/internal/symexec"
)

func addRMW() *rule.Template {
	return &rule.Template{
		Guest:  []rule.GPat{{Op: guest.ADD, Args: []rule.Arg{rule.RegArg(0), rule.RegArg(0), rule.RegArg(1)}}},
		Host:   []rule.HPat{{Op: host.ADDL, Dst: rule.RegArg(0), Src: rule.RegArg(1)}},
		Params: []rule.ParamKind{rule.PReg, rule.PReg},
	}
}

func addImm() *rule.Template {
	return &rule.Template{
		Guest:  []rule.GPat{{Op: guest.ADD, Args: []rule.Arg{rule.RegArg(0), rule.RegArg(0), rule.ImmArg(1)}}},
		Host:   []rule.HPat{{Op: host.ADDL, Dst: rule.RegArg(0), Src: rule.ImmArg(1)}},
		Params: []rule.ParamKind{rule.PReg, rule.PImm},
	}
}

func strImm() *rule.Template {
	return &rule.Template{
		Guest:  []rule.GPat{{Op: guest.STR, Args: []rule.Arg{rule.RegArg(0), rule.MemDispArg(1, 2)}}},
		Host:   []rule.HPat{{Op: host.MOVL, Dst: rule.MemDispArg(1, 2), Src: rule.RegArg(0)}},
		Params: []rule.ParamKind{rule.PReg, rule.PReg, rule.PImm},
	}
}

func mustVerify(t *testing.T, tm *rule.Template) *rule.Template {
	t.Helper()
	if res, ok := rule.Verify(tm); !ok {
		t.Fatalf("Verify(%s) rejected: %s", tm, res.Reason)
	}
	return tm
}

func TestAuditSoundTemplates(t *testing.T) {
	for _, tm := range []*rule.Template{addRMW(), addImm(), strImm()} {
		mustVerify(t, tm)
		rep := AuditRule(tm)
		if rep.Verdict != VerdictSound {
			t.Errorf("%s: verdict %s (%s), want sound", tm, rep.Verdict, rep.Reason)
		}
		if rep.Checks == 0 {
			t.Errorf("%s: no checks decided", tm)
		}
	}
}

// TestAuditWholeDomain: the parametric-immediate rule must be audited
// symbolically — structural proof over the shared "i1" symbol — not by
// re-sampling a handful of instantiations.
func TestAuditWholeDomain(t *testing.T) {
	tm := mustVerify(t, addImm())
	rep := AuditRule(tm)
	if rep.Verdict != VerdictSound {
		t.Fatalf("verdict %s (%s)", rep.Verdict, rep.Reason)
	}
	if rep.Proof != ProofStructural {
		t.Fatalf("proof %s, want structural (symbolic immediate lift)", rep.Proof)
	}
	if rep.Swept != 0 {
		t.Fatalf("structural proof should not sweep, swept %d points", rep.Swept)
	}
}

// TestAuditCorruptedRule reuses the fault injector's template
// corruption (ADDL -> SUBL): the audit must refute the rule with a
// witness symexec confirms.
func TestAuditCorruptedRule(t *testing.T) {
	for _, mk := range []func() *rule.Template{addRMW, addImm} {
		tm := mustVerify(t, mk())
		if !faultinject.CorruptTemplate(tm) {
			t.Fatal("template not corruptible")
		}
		rep := AuditRule(tm)
		if rep.Verdict != VerdictUnsound {
			t.Fatalf("%s: corrupted rule verdict %s (%s), want unsound", tm, rep.Verdict, rep.Reason)
		}
		w := rep.Witness
		if w == nil || !w.Confirmed {
			t.Fatalf("%s: unsound without confirmed witness: %+v", tm, w)
		}
		// Independently replay the witness instantiation through the
		// symbolic verifier.
		immOf := func(p int) int32 {
			if v, ok := w.Imms[p]; ok {
				return v
			}
			return 1
		}
		gseq, hseq, binds, scratch, err := rule.Concretize(tm, immOf)
		if err != nil {
			t.Fatal(err)
		}
		if res := symexec.CheckEquiv(gseq, hseq, binds, scratch); res.Equivalent {
			t.Fatalf("%s: symexec accepts the witness instantiation", tm)
		}
	}
}

// TestAuditFlagClaimCorruption flips a verified rule's claimed C
// correspondence. CheckEquiv treats flag correspondence as informative,
// so only the auditor can catch this — via the claimed-flag check pair
// and the flag-contradiction confirmation path.
func TestAuditFlagClaimCorruption(t *testing.T) {
	tm := &rule.Template{
		Guest:  []rule.GPat{{Op: guest.SUB, S: true, Args: []rule.Arg{rule.RegArg(0), rule.RegArg(0), rule.RegArg(1)}}},
		Host:   []rule.HPat{{Op: host.SUBL, Dst: rule.RegArg(0), Src: rule.RegArg(1)}},
		Params: []rule.ParamKind{rule.PReg, rule.PReg},
	}
	mustVerify(t, tm)
	if !tm.Flags.CInverted {
		t.Fatalf("subs should verify CInverted, got %+v", tm.Flags)
	}
	rep := AuditRule(tm)
	if rep.Verdict != VerdictSound {
		t.Fatalf("honest claim audited %s (%s)", rep.Verdict, rep.Reason)
	}
	// Corrupt the claim: pretend CF matches C directly.
	tm.Flags.CInverted = false
	tm.Flags.CMatch = true
	rep = AuditRule(tm)
	if rep.Verdict != VerdictUnsound {
		t.Fatalf("corrupted flag claim audited %s (%s)", rep.Verdict, rep.Reason)
	}
	if rep.Witness == nil || !rep.Witness.Confirmed {
		t.Fatalf("no confirmed witness for flag-claim corruption: %+v", rep.Witness)
	}
	if !strings.Contains(rep.Witness.Check, "C==CF") {
		t.Fatalf("witness check = %q, want the C claim", rep.Witness.Check)
	}
}

// TestAuditFlagFixtures reuses the symexec flag fixtures: each
// fixture's rule shape audits sound with its true correspondence and
// unsound once the C claim is flipped.
func TestAuditFlagFixtures(t *testing.T) {
	templates := map[string]*rule.Template{
		"cmp-borrow-inverted": {
			Guest:  []rule.GPat{{Op: guest.CMP, Args: []rule.Arg{rule.RegArg(0), rule.RegArg(1)}}},
			Host:   []rule.HPat{{Op: host.CMPL, Dst: rule.RegArg(0), Src: rule.RegArg(1)}},
			Params: []rule.ParamKind{rule.PReg, rule.PReg},
		},
		"subs-borrow-inverted": {
			Guest:  []rule.GPat{{Op: guest.SUB, S: true, Args: []rule.Arg{rule.RegArg(0), rule.RegArg(0), rule.RegArg(1)}}},
			Host:   []rule.HPat{{Op: host.SUBL, Dst: rule.RegArg(0), Src: rule.RegArg(1)}},
			Params: []rule.ParamKind{rule.PReg, rule.PReg},
		},
		"adds-carry-matches": {
			Guest:  []rule.GPat{{Op: guest.ADD, S: true, Args: []rule.Arg{rule.RegArg(0), rule.RegArg(0), rule.RegArg(1)}}},
			Host:   []rule.HPat{{Op: host.ADDL, Dst: rule.RegArg(0), Src: rule.RegArg(1)}},
			Params: []rule.ParamKind{rule.PReg, rule.PReg},
		},
		"cmn-carry-matches": {
			Guest: []rule.GPat{{Op: guest.CMN, Args: []rule.Arg{rule.RegArg(0), rule.RegArg(1)}}},
			Host: []rule.HPat{
				{Op: host.MOVL, Dst: rule.ScratchArg(0), Src: rule.RegArg(0)},
				{Op: host.ADDL, Dst: rule.ScratchArg(0), Src: rule.RegArg(1)},
			},
			Params:   []rule.ParamKind{rule.PReg, rule.PReg},
			NScratch: 1,
		},
	}
	for _, fx := range symexec.FlagFixtures {
		tm, ok := templates[fx.Name]
		if !ok {
			t.Fatalf("no template for fixture %s", fx.Name)
		}
		t.Run(fx.Name, func(t *testing.T) {
			mustVerify(t, tm)
			if tm.Flags != fx.Want {
				t.Fatalf("verified correspondence %+v, fixture wants %+v", tm.Flags, fx.Want)
			}
			if rep := AuditRule(tm); rep.Verdict != VerdictSound {
				t.Fatalf("honest fixture rule audited %s (%s)", rep.Verdict, rep.Reason)
			}
			// Flip the C-claim direction (the borrow asymmetry).
			tm.Flags.CMatch, tm.Flags.CInverted = tm.Flags.CInverted, tm.Flags.CMatch
			rep := AuditRule(tm)
			if rep.Verdict != VerdictUnsound || rep.Witness == nil || !rep.Witness.Confirmed {
				t.Fatalf("flipped C claim audited %s (witness %+v)", rep.Verdict, rep.Witness)
			}
			// The witness machine state must reproduce the divergence in
			// the fixture's own concrete terms: guest C and host CF agree
			// or invert opposite to the corrupted claim.
			vec := symexec.FlagVector{A: rep.Witness.Vals["g0"], B: rep.Witness.Vals["g1"]}
			c, _, err := fx.GuestFlagValues(vec)
			if err != nil {
				t.Fatal(err)
			}
			cf, _, err := fx.HostFlagValues(vec)
			if err != nil {
				t.Fatal(err)
			}
			if tm.Flags.CMatch && c == cf {
				t.Fatalf("witness (a=%#x b=%#x) does not expose the flipped CMatch claim: C=%d CF=%d", vec.A, vec.B, c, cf)
			}
		})
	}
}

func TestAuditStoreAndQuarantine(t *testing.T) {
	s := rule.NewStore()
	good := mustVerify(t, addRMW())
	goodImm := mustVerify(t, addImm())
	bad := mustVerify(t, strImm())
	// Corrupt after verification, as the fault injector does to a live
	// store... strImm has no corruptible op; corrupt a fresh addRMW on a
	// distinct guest shape instead.
	bad = mustVerify(t, &rule.Template{
		Guest:  []rule.GPat{{Op: guest.EOR, Args: []rule.Arg{rule.RegArg(0), rule.RegArg(0), rule.RegArg(1)}}},
		Host:   []rule.HPat{{Op: host.XORL, Dst: rule.RegArg(0), Src: rule.RegArg(1)}},
		Params: []rule.ParamKind{rule.PReg, rule.PReg},
	})
	if !faultinject.CorruptTemplate(bad) { // XORL -> ANDL
		t.Fatal("not corruptible")
	}
	for _, tm := range []*rule.Template{good, goodImm, bad} {
		if !s.Add(tm) {
			t.Fatal("store add failed")
		}
	}

	rep := AuditStore(s)
	if rep.Total != 3 || rep.Unsound != 1 || rep.Sound != 2 {
		t.Fatalf("store audit: %+v", rep)
	}
	entries := rep.UnsoundEntries()
	if len(entries) != 1 || entries[0].Fingerprint != bad.Fingerprint() {
		t.Fatalf("unsound entries: %+v", entries)
	}
	n := s.ApplyQuarantine(entries)
	if n != 1 {
		t.Fatalf("ApplyQuarantine = %d", n)
	}
	if !s.IsQuarantined(bad) {
		t.Fatal("corrupted rule not quarantined")
	}
	if s.IsQuarantined(good) || s.IsQuarantined(goodImm) {
		t.Fatal("sound rule quarantined")
	}
}

func TestGate(t *testing.T) {
	good := mustVerify(t, addImm())
	if ok, reason := Gate(good); !ok {
		t.Fatalf("gate rejected sound rule: %s", reason)
	}
	bad := mustVerify(t, addRMW())
	faultinject.CorruptTemplate(bad)
	if ok, _ := Gate(bad); ok {
		t.Fatal("gate admitted corrupted rule")
	}
}

func TestDataflowClobber(t *testing.T) {
	// Host writes p1, whose guest register the pattern never writes.
	tm := &rule.Template{
		Guest: []rule.GPat{{Op: guest.MOV, Args: []rule.Arg{rule.RegArg(0), rule.RegArg(1)}}},
		Host: []rule.HPat{
			{Op: host.MOVL, Dst: rule.RegArg(0), Src: rule.RegArg(1)},
			{Op: host.MOVL, Dst: rule.RegArg(1), Src: rule.FixedImmArg(0)},
		},
		Params: []rule.ParamKind{rule.PReg, rule.PReg},
	}
	rep := AuditRule(tm)
	if rep.Verdict != VerdictUnsound {
		t.Fatalf("clobbering rule verdict %s (%s)", rep.Verdict, rep.Reason)
	}
	var found bool
	for _, f := range rep.Findings {
		if f.Pass == "clobber" && f.Severity == SevError {
			found = true
		}
	}
	if !found {
		t.Fatalf("no clobber finding: %+v", rep.Findings)
	}
}

func TestDataflowScratchAndDeadWrite(t *testing.T) {
	// First write p0 from an uninitialized scratch, then overwrite it
	// with the real value: semantically sound, but two findings.
	tm := &rule.Template{
		Guest: []rule.GPat{{Op: guest.MOV, Args: []rule.Arg{rule.RegArg(0), rule.RegArg(1)}}},
		Host: []rule.HPat{
			{Op: host.MOVL, Dst: rule.RegArg(0), Src: rule.ScratchArg(0)},
			{Op: host.MOVL, Dst: rule.RegArg(0), Src: rule.RegArg(1)},
		},
		Params:   []rule.ParamKind{rule.PReg, rule.PReg},
		NScratch: 1,
	}
	rep := AuditRule(tm)
	if rep.Verdict != VerdictSound {
		t.Fatalf("dead-scratch rule verdict %s (%s)", rep.Verdict, rep.Reason)
	}
	var scratchWarn bool
	for _, f := range rep.Findings {
		if f.Pass == "scratch" && f.Severity == SevWarn {
			scratchWarn = true
		}
	}
	if !scratchWarn {
		t.Fatalf("missing scratch finding: %+v", rep.Findings)
	}
}

func TestDataflowEflagsLiveness(t *testing.T) {
	// ADC consumes CF before anything defines it.
	tm := &rule.Template{
		Guest:  []rule.GPat{{Op: guest.ADC, Args: []rule.Arg{rule.RegArg(0), rule.RegArg(0), rule.RegArg(1)}}},
		Host:   []rule.HPat{{Op: host.ADCL, Dst: rule.RegArg(0), Src: rule.RegArg(1)}},
		Params: []rule.ParamKind{rule.PReg, rule.PReg},
	}
	rep := AuditRule(tm)
	var gWarn, hWarn bool
	for _, f := range rep.Findings {
		if f.Pass == "nzcv-liveness" {
			gWarn = true
		}
		if f.Pass == "eflags-liveness" {
			hWarn = true
		}
	}
	if !gWarn || !hWarn {
		t.Fatalf("liveness findings missing (guest=%v host=%v): %+v", gWarn, hWarn, rep.Findings)
	}
	// Entry flags are unsynchronized symbols; the verdict engine must
	// find the witness (fc=0, hc=1 style).
	if rep.Verdict != VerdictUnsound {
		t.Fatalf("entry-flag rule verdict %s (%s)", rep.Verdict, rep.Reason)
	}
}

func TestDefUseChains(t *testing.T) {
	hseq := []host.Inst{
		host.I(host.MOVL, host.R(2), host.R(0)), // def r2
		host.I(host.ADDL, host.R(2), host.R(1)), // use+def r2
		host.I(host.MOVL, host.R(0), host.R(2)), // use r2, def r0
	}
	chains := DefUseChains(hseq)
	if len(chains) != 3 {
		t.Fatalf("chains = %+v", chains)
	}
	if chains[0].Reg != 2 || len(chains[0].Uses) != 1 || chains[0].Uses[0] != 1 {
		t.Fatalf("first def of r2: %+v", chains[0])
	}
	if chains[1].Reg != 2 || len(chains[1].Uses) != 1 || chains[1].Uses[0] != 2 {
		t.Fatalf("second def of r2: %+v", chains[1])
	}
	if chains[2].Reg != 0 || len(chains[2].Uses) != 0 {
		t.Fatalf("def of r0: %+v", chains[2])
	}
}

func TestAuditReportShape(t *testing.T) {
	tm := mustVerify(t, addImm())
	rep := AuditRule(tm)
	if rep.Fingerprint == "" || rep.Rule == "" || rep.Origin == "" {
		t.Fatalf("report identity incomplete: %+v", rep)
	}
}
