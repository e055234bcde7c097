package dbt

import (
	"bytes"
	"errors"
	"testing"

	"paramdbt/internal/backend"
	"paramdbt/internal/core"
	"paramdbt/internal/env"
	"paramdbt/internal/guard/faultinject"
	"paramdbt/internal/guest"
	"paramdbt/internal/host"
	"paramdbt/internal/mem"
	"paramdbt/internal/minic"
	"paramdbt/internal/rule"
)

// startEngine loads the compiled program into fresh memory, builds an
// engine and installs the initial guest state, returning the engine so
// tests can reach its cache/quarantine internals (unlike runProgram).
func startEngine(t *testing.T, c *minic.Compiled, cfg Config) *Engine {
	t.Helper()
	m := mem.New()
	if _, err := c.LoadGuest(m); err != nil {
		t.Fatal(err)
	}
	e := New(m, cfg)
	init := &guest.State{Mem: m}
	init.R[guest.SP] = env.StackTop
	e.SetGuestState(init)
	return e
}

// corruptUsedAddRule runs the program once faultlessly, then corrupts a
// rule the run actually used whose host code contains an ADDL — the
// loop accumulator in testProgram adds nonzero values every iteration,
// so flipping it to SUBL guarantees an observable divergence.
func corruptUsedAddRule(t *testing.T, c *minic.Compiled, par *rule.Store) *rule.Template {
	t.Helper()
	warm := startEngine(t, c, Config{Rules: par, DelegateFlags: true})
	if _, err := warm.Run(env.CodeBase, 100_000_000); err != nil {
		t.Fatal(err)
	}
	for _, tm := range warm.CachedRuleTemplates() {
		for _, h := range tm.Host {
			if h.Op == host.ADDL {
				if !faultinject.CorruptTemplate(tm) {
					t.Fatalf("rule with ADDL reported uncorruptible: %v", tm)
				}
				return tm
			}
		}
	}
	t.Fatal("no executed rule with an ADDL host op")
	return nil
}

// TestShadowCleanRun verifies the zero-divergence baseline: with every
// block execution shadow-verified and no faults, the verifier agrees
// with the translated code everywhere and quarantines nothing.
func TestShadowCleanRun(t *testing.T) {
	c := compileT(t, testProgram())
	want := interpret(t, c)
	_, par := learnRules(t, testProgram(), core.Config{Opcode: true, AddrMode: true})
	got, stats := runProgram(t, c, Config{Rules: par, DelegateFlags: true, ShadowRate: 1})
	sameResult(t, want, got, "shadow clean")
	if stats.ShadowChecks == 0 {
		t.Fatal("ShadowRate=1 recorded no shadow checks")
	}
	if stats.Divergences != 0 || stats.QuarantinedRules != 0 {
		t.Fatalf("clean run diverged: %d divergences, %d quarantined",
			stats.Divergences, stats.QuarantinedRules)
	}
	if par.QuarantineLen() != 0 {
		t.Fatalf("clean run quarantined %d rules", par.QuarantineLen())
	}
}

// TestShadowDetectsCorruptRule is the tentpole scenario: a learned rule
// with silently corrupted host semantics must be caught by shadow
// verification, blamed, quarantined, and the run must still finish with
// the interpreter-correct final state.
func TestShadowDetectsCorruptRule(t *testing.T) {
	c := compileT(t, testProgram())
	want := interpret(t, c)
	_, par := learnRules(t, testProgram(), core.Config{Opcode: true, AddrMode: true})
	bad := corruptUsedAddRule(t, c, par)

	e := startEngine(t, c, Config{Rules: par, DelegateFlags: true, ShadowRate: 1})
	stats, err := e.Run(env.CodeBase, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, want, e.GuestState(), "corrupt rule recovered")
	if stats.Divergences == 0 {
		t.Fatal("corrupted rule produced no divergences")
	}
	if stats.QuarantinedRules == 0 || par.QuarantineLen() == 0 {
		t.Fatal("divergence quarantined no rules")
	}
	if !par.IsQuarantined(bad) {
		t.Fatalf("corrupted rule %v not in the quarantine set", bad)
	}
	divs := e.Divergences()
	if len(divs) == 0 {
		t.Fatal("engine retained no divergence records")
	}
	if len(divs[0].Mismatches) == 0 {
		t.Fatalf("divergence record has no mismatches: %v", divs[0])
	}

	// The quarantine survives persistence: a fresh store built from the
	// same table re-demotes the rule via the saved entries.
	entries := par.Quarantined()
	found := false
	for _, q := range entries {
		if q.Fingerprint == bad.Fingerprint() {
			found = true
			if q.Reason == "" {
				t.Fatal("quarantine entry has no reason")
			}
		}
	}
	if !found {
		t.Fatalf("corrupted fingerprint missing from quarantine entries: %+v", entries)
	}
}

// TestQuarantinePersistsAcrossBackends is the cross-backend restart
// scenario: a rule corrupted and quarantined while running under
// backend A must stay quarantined when the persisted rule table and
// quarantine file are reloaded into an engine built for backend B —
// quarantine entries are keyed by backend-neutral rule fingerprints,
// while only retrieval keys are backend-namespaced.
func TestQuarantinePersistsAcrossBackends(t *testing.T) {
	c := compileT(t, testProgram())
	want := interpret(t, c)
	_, par := learnRules(t, testProgram(), core.Config{Opcode: true, AddrMode: true})
	bad := corruptUsedAddRule(t, c, par)

	// Backend A (x86): shadow verification catches the corruption and
	// quarantines the rule.
	ea := startEngine(t, c, Config{
		Rules: par, DelegateFlags: true, ShadowRate: 1,
		Backend: backend.MustLookup("x86"),
	})
	if _, err := ea.Run(env.CodeBase, 100_000_000); err != nil {
		t.Fatal(err)
	}
	if !par.IsQuarantined(bad) {
		t.Fatal("backend A run did not quarantine the corrupted rule")
	}

	// Persist both the table (still holding the corrupted host code) and
	// the quarantine set, exactly what -quarantine-file does.
	var tbuf, qbuf bytes.Buffer
	if err := par.Save(&tbuf); err != nil {
		t.Fatal(err)
	}
	if err := rule.SaveQuarantine(&qbuf, par.Quarantined()); err != nil {
		t.Fatal(err)
	}

	// Restart under backend B (risc) from the persisted state.
	loaded, _, err := rule.LoadGated(bytes.NewReader(tbuf.Bytes()), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := rule.LoadQuarantine(bytes.NewReader(qbuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n := loaded.ApplyQuarantine(entries); n == 0 {
		t.Fatal("persisted quarantine matched no reloaded rules")
	}
	eb := startEngine(t, c, Config{
		Rules: loaded, DelegateFlags: true, ShadowRate: 1,
		Backend: backend.MustLookup("risc"),
	})
	stats, err := eb.Run(env.CodeBase, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, want, eb.GuestState(), "backend B after quarantine reload")
	if stats.Divergences != 0 {
		t.Fatalf("backend B run diverged %d times: the quarantined corrupted rule must stay excluded", stats.Divergences)
	}
	reloadedBad := false
	for _, tm := range loaded.All() {
		if tm.Fingerprint() == bad.Fingerprint() {
			reloadedBad = loaded.IsQuarantined(tm)
		}
	}
	if !reloadedBad {
		t.Fatal("corrupted rule not quarantined in the reloaded backend-B store")
	}
}

// TestTranslatorPanicRecovery checks that injected demand-translation
// panics are absorbed by the guarded retry loop and the run completes
// correctly.
func TestTranslatorPanicRecovery(t *testing.T) {
	c := compileT(t, testProgram())
	want := interpret(t, c)
	_, par := learnRules(t, testProgram(), core.Config{Opcode: true, AddrMode: true})
	inj := faultinject.New(faultinject.Plan{TranslatePanics: 3})
	got, stats := runProgram(t, c, Config{Rules: par, DelegateFlags: true, Faults: inj})
	sameResult(t, want, got, "panic recovery")
	if stats.PanicsRecovered != 3 {
		t.Fatalf("PanicsRecovered = %d, want 3", stats.PanicsRecovered)
	}
	panics, _ := inj.Counts()
	if panics != 3 {
		t.Fatalf("injector reports %d panics, want 3", panics)
	}
}

// TestRunPanicReturnsTypedError drives a panic the guarded translation
// path cannot absorb (a panicking TraceBlock hook, standing in for a
// simulator bug) and checks the satellite contract: Run returns a
// PanicError instead of crashing, the architectural PC is left at the
// faulting block, and the run is resumable from that state.
func TestRunPanicReturnsTypedError(t *testing.T) {
	c := compileT(t, testProgram())
	want := interpret(t, c)
	m := mem.New()
	if _, err := c.LoadGuest(m); err != nil {
		t.Fatal(err)
	}
	blocks := 0
	cfg := Config{TraceBlock: func(pc uint32) {
		blocks++
		if blocks == 3 {
			panic("injected simulator bug")
		}
	}}
	e := New(m, cfg)
	init := &guest.State{Mem: m}
	init.R[guest.SP] = env.StackTop
	e.SetGuestState(init)

	_, err := e.Run(env.CodeBase, 100_000_000)
	if err == nil {
		t.Fatal("Run swallowed the panic")
	}
	if !errors.Is(err, ErrTranslatorPanic) {
		t.Fatalf("error %v is not ErrTranslatorPanic", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T is not *PanicError", err)
	}
	resume := e.GuestState().R[guest.PC]
	if resume != pe.PC {
		t.Fatalf("architectural pc %#x does not match faulting pc %#x", resume, pe.PC)
	}

	// The guest state is consistent at the faulting block boundary:
	// resuming from it completes the program correctly.
	if _, err := e.Run(resume, 100_000_000); err != nil {
		t.Fatalf("resume after panic: %v", err)
	}
	sameResult(t, want, e.GuestState(), "resumed after panic")
}

// TestInterpFallback starves translation entirely (every demand
// translation fails with an injected decode error) and checks the run
// still completes, executed block by block on the reference
// interpreter.
func TestInterpFallback(t *testing.T) {
	c := compileT(t, testProgram())
	want := interpret(t, c)
	_, par := learnRules(t, testProgram(), core.Config{Opcode: true, AddrMode: true})
	inj := faultinject.New(faultinject.Plan{DecodeErrors: 1 << 30})
	got, stats := runProgram(t, c, Config{Rules: par, DelegateFlags: true, Faults: inj})
	sameResult(t, want, got, "interp fallback")
	if stats.InterpFallbacks == 0 {
		t.Fatal("no interpreter fallbacks recorded")
	}
	if stats.GuestExec == 0 {
		t.Fatal("fallback run retired no guest instructions")
	}
}

// TestFaultPlanCanned is the acceptance scenario behind `make
// test-faults`: the canned plan in testdata corrupts a learned rule and
// injects translator panics and decode errors into one run. The run must complete with the
// interpreter-correct final state, the corrupted rule in quarantine,
// at least one recorded divergence and zero unrecovered panics (an
// unrecovered panic surfaces as a Run error).
func TestFaultPlanCanned(t *testing.T) {
	plan, err := faultinject.LoadPlan("testdata/faultplan.json")
	if err != nil {
		t.Fatal(err)
	}
	if plan.CorruptRules < 1 {
		t.Fatalf("canned plan must corrupt at least one rule: %+v", plan)
	}
	c := compileT(t, testProgram())
	want := interpret(t, c)
	_, par := learnRules(t, testProgram(), core.Config{Opcode: true, AddrMode: true})
	bad := corruptUsedAddRule(t, c, par)

	inj := faultinject.New(plan)
	e := startEngine(t, c, Config{
		Rules:         par,
		DelegateFlags: true,
		ShadowRate:    1,
		Faults:        inj,
	})
	stats, err := e.Run(env.CodeBase, 100_000_000)
	if err != nil {
		t.Fatalf("run under fault plan failed: %v", err)
	}
	sameResult(t, want, e.GuestState(), "fault plan")
	if stats.Divergences == 0 {
		t.Fatal("fault plan produced no divergences")
	}
	if !par.IsQuarantined(bad) {
		t.Fatal("corrupted rule not quarantined")
	}
	if stats.PanicsRecovered == 0 && plan.TranslatePanics > 0 {
		t.Fatal("no injected panics were recovered")
	}
	panics, decodes := inj.Counts()
	t.Logf("fault plan injected: %d panics, %d decode errors; stats: %+v",
		panics, decodes, stats)
}

// TestInvalidateUnpatchesAllPredecessors is the chaining-teardown
// satellite: a block reachable over patched links from several
// predecessors must, on invalidation, have every one of those links
// unpatched — a single stale link would chain into freed code. The
// rerun confirms chaining rebuilds (ChainedExits > 0) and results stay
// correct.
func TestInvalidateUnpatchesAllPredecessors(t *testing.T) {
	c := compileT(t, testProgram())
	want := interpret(t, c)
	m := mem.New()
	if _, err := c.LoadGuest(m); err != nil {
		t.Fatal(err)
	}
	e := New(m, Config{})
	init := &guest.State{Mem: m}
	init.R[guest.SP] = env.StackTop
	e.SetGuestState(init)
	if _, err := e.Run(env.CodeBase, 100_000_000); err != nil {
		t.Fatal(err)
	}

	// Pick the block with the most patched incoming links.
	var victim uint32
	most := 0
	for pc, tb := range e.cache {
		n := 0
		for _, l := range tb.incoming {
			if l.to == tb {
				n++
			}
		}
		if n > most {
			most = n
			victim = pc
		}
	}
	if most == 0 {
		t.Fatal("no block has patched incoming links")
	}
	vt, _ := e.cache[victim]

	// Snapshot every link slot in the whole cache that points at the
	// victim — including any the victim's own incoming list might have
	// missed (that would itself be a bug this test should catch).
	var pointing []*blockLink
	for _, tb := range e.cache {
		for i := range tb.links {
			if tb.links[i].to == vt {
				pointing = append(pointing, &tb.links[i])
			}
		}
	}
	if len(pointing) != most {
		t.Fatalf("victim incoming list has %d links, cache scan found %d", most, len(pointing))
	}

	if !e.Invalidate(victim) {
		t.Fatalf("Invalidate(%#x) found nothing", victim)
	}
	for i, l := range pointing {
		if l.to != nil {
			t.Fatalf("predecessor link %d/%d to %#x survived invalidation", i+1, len(pointing), victim)
		}
	}

	init2 := &guest.State{Mem: m}
	init2.R[guest.SP] = env.StackTop
	e.SetGuestState(init2)
	stats, err := e.Run(env.CodeBase, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, want, e.GuestState(), "after multi-predecessor invalidate")
	if stats.ChainedExits == 0 {
		t.Fatal("rerun never chained — links were not rebuilt")
	}
	if _, ok := e.cache[victim]; !ok {
		t.Fatalf("block %#x not retranslated on rerun", victim)
	}
}
