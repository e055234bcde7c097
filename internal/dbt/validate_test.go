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

// TestValidateAllVerdicts runs both backends at Validate:"all" and
// checks every report reaching the hook is stamped and every verdict
// accounted: proved reports match dbt.blocks_validated, nothing is
// refuted, and the guest result is untouched by validation.
func TestValidateAllVerdicts(t *testing.T) {
	c := compileT(t, testProgram())
	want := interpret(t, c)
	_, rules := learnRules(t, testProgram(), core.Config{Opcode: true, AddrMode: true})
	for _, bn := range []string{"x86", "risc"} {
		var proved, other uint64
		cfg := Config{Rules: rules, DelegateFlags: true,
			Backend: backend.MustLookup(bn), Validate: "all",
			ValidateHook: func(rep *analysis.BlockReport) {
				if rep.Backend != bn {
					t.Errorf("report backend %q, want %q", rep.Backend, bn)
				}
				if rep.Verdict == analysis.VerdictProved {
					proved++
				} else {
					other++
					if rep.Verdict == analysis.VerdictRefuted {
						t.Errorf("%s: refuted block at pc=%#x: %s", bn, rep.PC, rep.Reason)
					}
				}
			}}
		got, st := runProgram(t, c, cfg)
		sameResult(t, want, got, bn+"/validate-all")
		if proved == 0 || st.BlocksValidated != proved {
			t.Fatalf("%s: hook saw %d proved, stats %d", bn, proved, st.BlocksValidated)
		}
		if st.ValidateFallbacks != other {
			t.Fatalf("%s: hook saw %d non-proved, stats %d fallbacks", bn, other, st.ValidateFallbacks)
		}
	}
}

// optFaults is a no-op FaultInjector that additionally corrupts every
// peephole-optimized stream: every immediate exit target is bumped so
// the stream exits to the wrong guest pc on whichever path runs — the
// exact bug class translation validation exists to stop. (Corrupting
// just one exit is not enough: that exit may sit on a dead path, which
// the validator correctly proves vacuously equivalent.)
type optFaults struct{ mutated int }

func (f *optFaults) TranslatePanic(uint32) bool  { return false }
func (f *optFaults) DecodeError(uint32) bool     { return false }
func (f *optFaults) DropCacheShard() (int, bool) { return 0, false }
func (f *optFaults) FailSpecWorker() bool        { return false }
func (f *optFaults) MutateOptimized(b *host.Block) *host.Block {
	insts := append([]host.Inst(nil), b.Insts...)
	hit := false
	for i := range insts {
		if insts[i].Op == host.ExitTB && insts[i].Dst.Kind == host.KindImm {
			insts[i].Dst.Imm += 4
			hit = true
		}
	}
	if !hit {
		return nil
	}
	f.mutated++
	labels := make(map[int]int, len(b.Labels()))
	for id, idx := range b.Labels() {
		labels[id] = idx
	}
	return host.NewBlock(insts, labels)
}

// TestValidatorRejectsBrokenPeephole injects a fault that corrupts
// every optimized stream post-peephole and checks the validator is the
// arbiter of what installs: streams whose live paths were broken must
// be rejected (fallbacks recorded), and anything it did prove — a
// mutation can land entirely in dead code, which is genuinely benign —
// must execute without a single divergence under shadow rate 1.
func TestValidatorRejectsBrokenPeephole(t *testing.T) {
	c := compileT(t, testProgram())
	want := interpret(t, c)
	_, rules := learnRules(t, testProgram(), core.Config{Opcode: true, AddrMode: true})
	faults := &optFaults{}
	var proved uint64
	cfg := Config{Rules: rules, DelegateFlags: true,
		Backend:  backend.MustLookup("risc"),
		Peephole: true, ShadowRate: 1, Faults: faults,
		ValidateHook: func(rep *analysis.BlockReport) {
			if rep.Verdict == analysis.VerdictProved {
				proved++
			}
		}}
	got, st := runProgram(t, c, cfg)
	sameResult(t, want, got, "broken-peephole")
	if faults.mutated == 0 {
		t.Fatal("fault injector never fired: test exercised nothing")
	}
	if st.ValidateFallbacks == 0 {
		t.Fatal("validator rejected no corrupted stream")
	}
	if st.BlocksValidated != proved {
		t.Fatalf("stats installed %d, hook proved %d", st.BlocksValidated, proved)
	}
	if st.Divergences != 0 {
		t.Fatalf("a corrupted stream escaped the validator: %d divergences", st.Divergences)
	}
}
