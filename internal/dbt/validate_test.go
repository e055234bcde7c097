package dbt

import (
	"testing"

	"paramdbt/internal/analysis"
	"paramdbt/internal/backend"
	"paramdbt/internal/core"
	"paramdbt/internal/host"
)

// TestPeepholeEndToEnd runs the risc backend with the validator-gated
// peephole under full shadow verification: the result must match the
// interpreter, at least one optimized stream must have been proved and
// installed, and the optimized run must retire fewer host instructions.
func TestPeepholeEndToEnd(t *testing.T) {
	c := compileT(t, testProgram())
	want := interpret(t, c)
	_, rules := learnRules(t, testProgram(), core.Config{Opcode: true, AddrMode: true})
	be := backend.MustLookup("risc")

	e0, _ := runEngine(t, c, Config{Rules: rules, DelegateFlags: true, Backend: be})
	e1, st := runEngine(t, c, Config{Rules: rules, DelegateFlags: true, Backend: be,
		Peephole: true, ShadowRate: 1})
	sameResult(t, want, e1.GuestState(), "peephole")
	if st.Divergences != 0 {
		t.Fatalf("peephole run diverged %d times under shadow rate 1", st.Divergences)
	}
	if st.BlocksValidated == 0 {
		t.Fatal("no optimized stream was proved and installed")
	}
	if e1.CPU.Total() >= e0.CPU.Total() {
		t.Fatalf("peephole did not reduce host instructions: %d -> %d",
			e0.CPU.Total(), e1.CPU.Total())
	}
}

// TestPeepholeInstallsNoFewer pins what the rewrite licence buys on
// testProgram: the peephole installs on at least as many blocks as the
// guest-vs-host licence it replaced did (8 of 9 candidates), and the run
// retires no more host instructions than it did then (594).
func TestPeepholeInstallsNoFewer(t *testing.T) {
	c := compileT(t, testProgram())
	_, rules := learnRules(t, testProgram(), core.Config{Opcode: true, AddrMode: true})
	e, st := runEngine(t, c, Config{Rules: rules, DelegateFlags: true,
		Backend: backend.MustLookup("risc"), Peephole: true, TranslateFirst: true})
	if st.BlocksValidated < 8 {
		t.Fatalf("peephole installed on %d blocks, want at least 8", st.BlocksValidated)
	}
	if got := e.CPU.Total(); got > 594 {
		t.Fatalf("peephole run retired %d host instructions, want at most 594", got)
	}
	t.Logf("installed %d, fell back %d, %d host instructions", st.BlocksValidated, st.ValidateFallbacks, e.CPU.Total())
}

// TestValidateTranslations checks the read path the offline audit
// walks, on both backends: Translations lists exactly the cached units
// in ascending pc order, each with its own guest block, the units prove
// against their guest blocks with none refuted, and the guest result
// matches the interpreter's.
func TestValidateTranslations(t *testing.T) {
	c := compileT(t, hotProgram())
	want := interpret(t, c)
	_, rules := learnRules(t, hotProgram(), core.Config{Opcode: true, AddrMode: true})
	for _, bn := range []string{"x86", "risc"} {
		e, _ := runEngine(t, c, Config{Rules: rules, DelegateFlags: true, Backend: backend.MustLookup(bn)})
		ts := e.Translations()
		sameResult(t, want, e.GuestState(), bn)
		if len(ts) == 0 || len(ts) != len(e.cache) {
			t.Fatalf("%s: %d translations listed, %d cached", bn, len(ts), len(e.cache))
		}
		proved := 0
		for i, tr := range ts {
			if i > 0 && ts[i-1].PC >= tr.PC {
				t.Fatalf("%s: pc %#x listed after %#x", bn, tr.PC, ts[i-1].PC)
			}
			tb, ok := e.cache[tr.PC]
			if !ok || tb.hb != tr.Host {
				t.Fatalf("%s: pc=%#x: listed stream is not the cached one", bn, tr.PC)
			}
			if len(tr.Insts) != len(tb.insts) || tr.FlagsExact != tb.flagsExact {
				t.Fatalf("%s: unit pc=%#x listed with %d of %d instructions, flagsExact %v",
					bn, tr.PC, len(tr.Insts), len(tb.insts), tr.FlagsExact)
			}
			rep := analysis.ValidateBlock(tr.PC, tr.Insts, tr.Host, analysis.ValidateOpts{CheckFlags: tr.FlagsExact, HaltPC: HaltPC})
			switch rep.Verdict {
			case analysis.VerdictProved:
				proved++
			case analysis.VerdictRefuted:
				t.Errorf("%s: refuted unit at pc=%#x: %s", bn, tr.PC, rep.Reason)
			}
		}
		if proved == 0 {
			t.Fatalf("%s: no unit proved", bn)
		}
		t.Logf("%s: %d of %d units proved", bn, proved, len(ts))
	}
}

// brokenPeephole is the risc backend with a broken peephole: every
// stream its optimizer deletes from has every immediate exit target
// bumped, so it exits to the wrong guest pc on whichever path runs —
// the exact bug class translation validation exists to stop.
// (Corrupting just one exit is not enough: that exit may sit on a dead
// path, which the validator correctly proves vacuously equivalent.)
type brokenPeephole struct {
	backend.Backend
	mutated int
}

func (b *brokenPeephole) OptimizeBlock(hb *host.Block) (*host.Block, backend.OptStats, error) {
	ob, st, err := b.Backend.(backend.Optimizer).OptimizeBlock(hb)
	if err != nil || st.Deleted() == 0 {
		return ob, st, err
	}
	insts := append([]host.Inst(nil), ob.Insts...)
	hit := false
	for i := range insts {
		if insts[i].Op == host.ExitTB && insts[i].Dst.Kind == host.KindImm {
			insts[i].Dst.Imm += 4
			hit = true
		}
	}
	if !hit {
		return ob, st, nil
	}
	b.mutated++
	labels := make(map[int]int, len(ob.Labels()))
	for id, idx := range ob.Labels() {
		labels[id] = idx
	}
	return host.NewBlock(insts, labels), st, nil
}

// TestValidatorRejectsBrokenPeephole runs a backend whose peephole
// corrupts every optimized stream and checks the validator is the
// arbiter of what installs: streams whose live paths were broken must
// be rejected (fallbacks recorded), and anything it did prove — a
// mutation can land entirely in dead code, which is genuinely benign —
// must execute without a single divergence under shadow rate 1.
func TestValidatorRejectsBrokenPeephole(t *testing.T) {
	c := compileT(t, testProgram())
	want := interpret(t, c)
	_, rules := learnRules(t, testProgram(), core.Config{Opcode: true, AddrMode: true})
	be := &brokenPeephole{Backend: backend.MustLookup("risc")}
	cfg := Config{Rules: rules, DelegateFlags: true,
		Backend:  be,
		Peephole: true, ShadowRate: 1}
	got, st := runProgram(t, c, cfg)
	sameResult(t, want, got, "broken-peephole")
	if be.mutated == 0 {
		t.Fatal("broken peephole never fired: test exercised nothing")
	}
	if st.ValidateFallbacks == 0 {
		t.Fatal("validator rejected no corrupted stream")
	}
	if st.Divergences != 0 {
		t.Fatalf("a corrupted stream escaped the validator: %d divergences", st.Divergences)
	}
}
