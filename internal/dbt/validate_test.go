package dbt

import (
	"testing"

	"paramdbt/internal/analysis"
	"paramdbt/internal/backend"
	"paramdbt/internal/core"
	"paramdbt/internal/env"
	"paramdbt/internal/guest"
	"paramdbt/internal/host"
	"paramdbt/internal/mem"
	"paramdbt/internal/minic"
)

// runEngine is runProgram plus the engine itself, so validation tests
// can read the host-instruction totals.
func runEngine(t *testing.T, c *minic.Compiled, cfg Config) (*Engine, Stats) {
	t.Helper()
	m := mem.New()
	if _, err := c.LoadGuest(m); err != nil {
		t.Fatal(err)
	}
	e := New(m, cfg)
	init := &guest.State{Mem: m}
	init.R[guest.SP] = env.StackTop
	e.SetGuestState(init)
	stats, err := e.Run(env.CodeBase, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return e, stats
}

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
		Backend: backend.MustLookup("risc"), Peephole: true})
	if st.BlocksValidated < 8 {
		t.Fatalf("peephole installed on %d blocks, want at least 8", st.BlocksValidated)
	}
	if got := e.CPU.Total(); got > 594 {
		t.Fatalf("peephole run retired %d host instructions, want at most 594", got)
	}
	t.Logf("installed %d, fell back %d, %d host instructions", st.BlocksValidated, st.ValidateFallbacks, e.CPU.Total())
}

// TestValidateTranslations checks the read path the offline audit
// walks, on both backends, with basic blocks only and with synchronous
// superblock formation: Translations lists exactly the cached units in
// ascending head-pc order, a superblock contributes every constituent
// and never claims exact flags, the units prove against their guest
// blocks with none refuted, and the guest result matches the
// interpreter's.
func TestValidateTranslations(t *testing.T) {
	c := compileT(t, hotProgram())
	want := interpret(t, c)
	_, rules := learnRules(t, hotProgram(), core.Config{Opcode: true, AddrMode: true})
	for _, bn := range []string{"x86", "risc"} {
		for _, arm := range []struct {
			name string
			cfg  Config
		}{
			{"blocks", Config{}},
			{"superblocks", Config{HotThreshold: 4}},
		} {
			what := bn + "/" + arm.name
			cfg := arm.cfg
			cfg.Rules, cfg.DelegateFlags, cfg.Backend = rules, true, backend.MustLookup(bn)
			e, _ := runEngine(t, c, cfg)
			ts := e.Translations()
			sameResult(t, want, e.GuestState(), what)
			if len(ts) == 0 || len(ts) != len(e.cache) {
				t.Fatalf("%s: %d translations listed, %d cached", what, len(ts), len(e.cache))
			}
			superblocks, proved := 0, 0
			for i, tr := range ts {
				head := tr.Segs[0].PC
				if i > 0 && ts[i-1].Segs[0].PC >= head {
					t.Fatalf("%s: head pc %#x listed after %#x", what, head, ts[i-1].Segs[0].PC)
				}
				tb, ok := e.cache[head]
				if !ok || tb.hb != tr.Host {
					t.Fatalf("%s: pc=%#x: listed stream is not the cached one", what, head)
				}
				if len(tr.Segs) != len(tb.segs) || tr.FlagsExact != tb.flagsExact {
					t.Fatalf("%s: unit pc=%#x listed with %d of %d segments, flagsExact %v",
						what, head, len(tr.Segs), len(tb.segs), tr.FlagsExact)
				}
				for k, seg := range tr.Segs {
					if seg.PC != tb.segs[k].pc || len(seg.Insts) != len(tb.segs[k].insts) {
						t.Fatalf("%s: unit pc=%#x segment %d is %#x, want %#x", what, head, k, seg.PC, tb.segs[k].pc)
					}
				}
				if len(tb.segs) > 1 {
					superblocks++
					if tr.FlagsExact {
						t.Fatalf("%s: superblock pc=%#x listed flags-exact", what, head)
					}
				}
				rep := analysis.ValidateBlock(tr.Segs, tr.Host, analysis.ValidateOpts{CheckFlags: tr.FlagsExact, HaltPC: HaltPC})
				switch rep.Verdict {
				case analysis.VerdictProved:
					proved++
				case analysis.VerdictRefuted:
					t.Errorf("%s: refuted unit at pc=%#x: %s", what, head, rep.Reason)
				}
			}
			if arm.cfg.HotThreshold > 0 && superblocks == 0 {
				t.Fatalf("%s: no superblock formed: the constituent check exercised nothing", what)
			}
			if proved == 0 {
				t.Fatalf("%s: no unit proved", what)
			}
			t.Logf("%s: %d of %d units proved, %d superblocks", what, proved, len(ts), superblocks)
		}
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
