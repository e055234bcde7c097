package dbt

import (
	"fmt"
	"testing"

	"paramdbt/internal/core"
	"paramdbt/internal/env"
	"paramdbt/internal/guest"
	"paramdbt/internal/mem"
)

// These tests cover interpret-first (Config.TranslateFirst unset, the
// default): a block with no translation runs on the reference
// interpreter for its first interpRuns executions and is translated at
// the next one. They run under `make test-smc` — keep the TestTier
// name prefix, it is part of the gate's -run pattern.

// tierRun loads src at CodeBase, runs it under cfg with SP at StackTop
// and every block entry recorded, and returns the halted engine, its
// stats and the entries.
func tierRun(t *testing.T, src string, cfg Config) (*Engine, Stats, []uint32) {
	t.Helper()
	m := mem.New()
	if err := guest.LoadProgram(m, env.CodeBase, guest.MustAssemble(src)); err != nil {
		t.Fatal(err)
	}
	var entries []uint32
	hook := cfg.TraceBlock
	cfg.TraceBlock = func(pc uint32) {
		entries = append(entries, pc)
		if hook != nil {
			hook(pc)
		}
	}
	e := New(m, cfg)
	st := &guest.State{Mem: m}
	st.R[guest.SP] = env.StackTop
	e.SetGuestState(st)
	stats, err := e.Run(env.CodeBase, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	return e, stats, entries
}

// tierOnce is three blocks, each entered exactly once.
const tierOnce = `
	mov r0, #1
	b second
second:
	add r0, r0, #2
	b third
third:
	add r0, r0, #3
	hlt
`

// tierLoop enters its loop block interpRuns+1 times (the entry block
// runs the first iteration), then leaves through a block that stores
// and a halting block, each entered once.
var tierLoop = fmt.Sprintf(`
	mov r1, #0
	mov r4, #%d
	sub r5, sp, #16
loop:
	str r1, [r5, #4]
	add r1, r1, #1
	cmp r1, r4
	blt loop
	str r1, [r5, #8]
	b done
done:
	hlt
`, interpRuns+2)

// The pcs of tierLoop's loop and halting blocks.
const (
	tierLoopPC = env.CodeBase + 3*guest.InstBytes
	tierDonePC = env.CodeBase + 9*guest.InstBytes
)

// TestTierRunOnceTranslatesNothing: a program whose blocks each run
// once is interpreted end to end. It translates nothing, retires what
// the interpreter retires with the interpreter's result, and every
// interpreted entry reaches TraceBlock, Stats.Blocks, Stats.Dispatches
// and dbt.tier_interp_blocks.
func TestTierRunOnceTranslatesNothing(t *testing.T) {
	want := interpAsm(t, tierOnce, nil)
	e, st, entries := tierRun(t, tierOnce, Config{})
	if st.Translations != 0 || len(e.cache) != 0 {
		t.Fatalf("%d translations, %d cached; want none", st.Translations, len(e.cache))
	}
	if st.GuestExec != want.InstCount || e.GuestState().R[guest.R0] != want.R[guest.R0] {
		t.Fatalf("GuestExec %d, r0 %d; the interpreter retired %d with r0 %d",
			st.GuestExec, e.GuestState().R[guest.R0], want.InstCount, want.R[guest.R0])
	}
	if len(entries) != 3 || st.Blocks != 3 || st.Dispatches != 3 || st.RuleCovered != 0 {
		t.Fatalf("%d entries traced, stats %+v; want 3 blocks entered and dispatched once each", len(entries), st)
	}
	if n := e.Metrics().Counter(MetTierInterpBlocks).Value(); n != 3 {
		t.Fatalf("%s = %d, want 3", MetTierInterpBlocks, n)
	}
	if len(e.runs) != 3 {
		t.Fatalf("%d pcs counted, want 3", len(e.runs))
	}
}

// TestTierTranslatesOnThirdRun: the loop block runs interpRuns times on
// the interpreter and is translated exactly once, at its next
// execution, into the code translate-first installs at that pc. Its
// count is reset by the translation, and its entry stays to mark the pc
// entered; Stats.Blocks counts it once.
func TestTierTranslatesOnThirdRun(t *testing.T) {
	_, rules := learnRules(t, testProgram(), core.Config{Opcode: true, AddrMode: true})
	want := interpAsm(t, tierLoop, nil)
	for _, cfg := range []Config{{}, {Rules: rules, DelegateFlags: true}} {
		e, st, entries := tierRun(t, tierLoop, cfg)
		loop := uint32(tierLoopPC)
		if st.Translations != 1 || len(e.cache) != 1 || e.cache[loop] == nil {
			t.Fatalf("%d translations, cache %v; want the loop block at %#x only", st.Translations, e.cache, loop)
		}
		if runs, entered := e.runs[loop]; !entered || runs != 0 {
			t.Fatalf("the translated pc's interpret-first count is %d (entered %v), want 0", runs, entered)
		}
		if st.GuestExec != want.InstCount || e.GuestState().R[guest.R1] != want.R[guest.R1] {
			t.Fatalf("GuestExec %d, r1 %d; the interpreter retired %d with r1 %d",
				st.GuestExec, e.GuestState().R[guest.R1], want.InstCount, want.R[guest.R1])
		}
		// entry, the loop interpRuns+1 times, the store block, done.
		if len(entries) != interpRuns+4 || st.Blocks != 4 {
			t.Fatalf("%d entries traced, %d blocks; want %d and 4", len(entries), st.Blocks, interpRuns+4)
		}
		if n := e.Metrics().Counter(MetTierInterpBlocks).Value(); n != interpRuns+3 {
			t.Fatalf("%s = %d, want %d", MetTierInterpBlocks, n, interpRuns+3)
		}

		cfg.TranslateFirst = true
		ref, _, _ := tierRun(t, tierLoop, cfg)
		got, wantListing := e.cache[loop].hb.Listing(), ref.cache[loop].hb.Listing()
		if got != wantListing {
			t.Fatalf("interpret-first translated\n%s\ntranslate-first\n%s", got, wantListing)
		}
	}
}

// TestTierShadowChecksTranslatedOnly: under ShadowRate 1 only the one
// translated execution is checked; the interpreted ones are their own
// reference.
func TestTierShadowChecksTranslatedOnly(t *testing.T) {
	_, st, _ := tierRun(t, tierLoop, Config{ShadowRate: 1})
	if st.ShadowChecks != 1 || st.Divergences != 0 {
		t.Fatalf("%d shadow checks, %d divergences; want 1 and 0", st.ShadowChecks, st.Divergences)
	}
}

// TestTierInterpretedStoresSkipTheJournal: the translated loop block
// stores, so its execution leaves the undo journal armed. The
// interpreted block after it must disarm before it runs: interpreter
// stores are authoritative and are never journaled.
func TestTierInterpretedStoresSkipTheJournal(t *testing.T) {
	var e *Engine
	journal := -1
	hook := func(pc uint32) {
		if pc == tierDonePC {
			journal = e.Mem.JournalLen()
		}
	}
	m := mem.New()
	if err := guest.LoadProgram(m, env.CodeBase, guest.MustAssemble(tierLoop)); err != nil {
		t.Fatal(err)
	}
	e = New(m, Config{TraceBlock: hook})
	st := &guest.State{Mem: m}
	st.R[guest.SP] = env.StackTop
	e.SetGuestState(st)
	if _, err := e.Run(env.CodeBase, 1<<30); err != nil {
		t.Fatal(err)
	}
	if !e.cache[tierLoopPC].hasStores {
		t.Fatal("the translated loop block does not store")
	}
	if journal != 0 {
		t.Fatalf("journal holds %d entries after the interpreted store block, want 0", journal)
	}
	if e.Mem.Read32(env.StackTop-8) != interpRuns+2 {
		t.Fatalf("the interpreted store wrote %d, want %d", e.Mem.Read32(env.StackTop-8), interpRuns+2)
	}
}

// TestTierServiceTenantsTranslateFirst: a tenant attached to a Service
// translates every block it enters, as with TranslateFirst — its
// translations are shared, so one translation serves every tenant — and
// a second tenant adopts them all. An engine whose attachment is
// refused interprets first like any other.
func TestTierServiceTenantsTranslateFirst(t *testing.T) {
	svc := NewService(ServiceConfig{})
	defer svc.Close()
	first, st1, _ := tierRun(t, tierLoop, Config{Service: svc})
	second, st2, _ := tierRun(t, tierLoop, Config{Service: svc})
	if first.svc == nil || second.svc == nil {
		t.Fatal("tenants did not attach")
	}
	if st1.Translations != 4 || st2.Translations != 0 || len(second.cache) != 4 {
		t.Fatalf("tenant translations %d and %d, second caches %d; want 4, 0 and 4",
			st1.Translations, st2.Translations, len(second.cache))
	}
	for _, e := range []*Engine{first, second} {
		if n := e.Metrics().Counter(MetTierInterpBlocks).Value(); n != 0 {
			t.Fatalf("a tenant interpreted %d blocks", n)
		}
	}
	refused, _, _ := tierRun(t, tierLoop, Config{Service: svc, DelegateFlags: true})
	if refused.svc != nil {
		t.Fatal("a tenant with other codegen knobs attached")
	}
	if n := refused.Metrics().Counter(MetTierInterpBlocks).Value(); n != interpRuns+3 {
		t.Fatalf("the refused tenant interpreted %d blocks, want %d", n, interpRuns+3)
	}
}
