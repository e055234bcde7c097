package dbt

import (
	"errors"
	"testing"

	"paramdbt/internal/core"
	"paramdbt/internal/env"
	"paramdbt/internal/guard"
	"paramdbt/internal/guest"
	"paramdbt/internal/host"
	"paramdbt/internal/mem"
	"paramdbt/internal/minic"
)

// Tests of the journal-based shadow check itself (guard.go): what one
// sampled execution costs, what it does when it cannot verify, and how
// it recovers — by write set, with no image to restore from. The
// whole-run comparison against the old clone-based checker is in
// guard_ref_test.go. Keep the TestShadow name prefix: `make test-faults`
// selects on it.

// sampledExec is one sampled execution of tb as the guarded arm of Run
// performs it: reference pass, translated pass under the journal, check.
func sampledExec(e *Engine, tb *tblock, pc uint32) (uint32, shadowVerdict, error) {
	tb.execs++
	e.shadowBegin(tb, pc)
	res, err := e.CPU.Exec(tb.hb, 1<<20)
	if err != nil {
		return 0, 0, err
	}
	next, v := e.shadowCheck(tb, pc, res.NextPC)
	return next, v, nil
}

// warmShadowEngine runs c to completion at shadow rate 1 and returns
// the engine with the guest state each block was first entered in.
func warmShadowEngine(tb testing.TB, c *minic.Compiled, cfg Config) (*Engine, map[uint32]*guest.State) {
	tb.Helper()
	m := mem.New()
	if _, err := c.LoadGuest(m); err != nil {
		tb.Fatal(err)
	}
	var e *Engine
	entries := map[uint32]*guest.State{}
	cfg.ShadowRate = 1
	cfg.TraceBlock = func(pc uint32) {
		if entries[pc] == nil {
			entries[pc] = e.GuestState()
		}
	}
	e = New(m, cfg)
	init := &guest.State{Mem: m}
	init.R[guest.SP] = env.StackTop
	e.SetGuestState(init)
	st, err := e.Run(env.CodeBase, 100_000_000)
	if err != nil {
		tb.Fatal(err)
	}
	if st.ShadowChecks == 0 || st.Divergences != 0 {
		tb.Fatalf("warm-up: %d checks, %d divergences", st.ShadowChecks, st.Divergences)
	}
	return e, entries
}

// hottestStoringBlock picks the cached basic block with guest stores
// that executed most: testProgram's loop body.
func hottestStoringBlock(tb testing.TB, e *Engine) (uint32, *tblock) {
	tb.Helper()
	var pc uint32
	var best *tblock
	for p, b := range e.cache {
		if len(b.segs) == 1 && b.hasStores && (best == nil || b.execs > best.execs) {
			pc, best = p, b
		}
	}
	if best == nil {
		tb.Fatal("no cached block with guest stores")
	}
	return pc, best
}

// TestShadowCleanCheckAllocatesNothing pins the clean path: a sampled
// execution of a block that stores — reference pass, rollback,
// translated pass, both write sets, compare — makes no allocation once
// the engine's buffers have grown to the block's size.
func TestShadowCleanCheckAllocatesNothing(t *testing.T) {
	c := compileT(t, testProgram())
	_, par := learnRules(t, testProgram(), core.Config{Opcode: true, AddrMode: true})
	e, entries := warmShadowEngine(t, c, Config{Rules: par, DelegateFlags: true})
	pc, tb := hottestStoringBlock(t, e)
	entry := entries[pc]
	run := func() {
		writeGuestState(e.Mem, entry)
		if _, v, err := sampledExec(e, tb, pc); err != nil || v != shadowClean {
			t.Fatalf("sampled execution at %#x: verdict %d, err %v", pc, v, err)
		}
	}
	run()
	if len(e.shadow.refWrites) == 0 || len(e.shadow.gotWrites) == 0 {
		t.Fatalf("block at %#x recorded no stores: %d reference, %d translated",
			pc, len(e.shadow.refWrites), len(e.shadow.gotWrites))
	}
	if n := testing.AllocsPerRun(200, run); n != 0 {
		t.Fatalf("a clean sampled execution allocates %v times", n)
	}
}

// BenchmarkShadowCheck is the cost of one clean sampled execution over
// the same block executed unsampled: ns/op and B/op are per check.
func BenchmarkShadowCheck(b *testing.B) {
	c, err := minic.Compile(testProgram())
	if err != nil {
		b.Fatal(err)
	}
	e, entries := warmShadowEngine(b, c, Config{})
	pc, tb := hottestStoringBlock(b, e)
	entry := entries[pc]
	b.Run("unsampled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			writeGuestState(e.Mem, entry)
			if _, err := e.CPU.Exec(tb.hb, 1<<20); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sampled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			writeGuestState(e.Mem, entry)
			if _, v, err := sampledExec(e, tb, pc); err != nil || v != shadowClean {
				b.Fatalf("verdict %d, err %v", v, err)
			}
		}
	})
}

// TestShadowUnverifiableEarnsNoTrust: when the reference interpreter
// cannot execute a sampled block, the execution was not verified — the
// adaptive rate must neither count it clean (decaying the rate on it)
// nor treat it as an event. The half-life is long enough that every
// clean check still moves the rate, so an unchanged rate means no clean
// check was counted.
func TestShadowUnverifiableEarnsNoTrust(t *testing.T) {
	c := compileT(t, testProgram())
	want := interpret(t, c)
	_, par := learnRules(t, testProgram(), core.Config{Opcode: true, AddrMode: true})
	e := startEngine(t, c, Config{
		Rules: par, DelegateFlags: true,
		ShadowRate: 1, ShadowHalfLife: 1 << 20,
	})
	if _, err := e.Run(env.CodeBase, 100_000_000); err != nil {
		t.Fatal(err)
	}
	rate := e.ShadowRateNow()
	if rate >= 1 {
		t.Fatal("first run earned no clean checks")
	}

	// Poison the decoded guest instructions the reference replays (the
	// host code is untouched and still correct): every reference step now
	// fails as an uninterpretable instruction.
	for _, tb := range e.cache {
		bad := append([]guest.Inst(nil), tb.segs[0].insts...)
		bad[0].Op = guest.Op(0xee)
		tb.segs[0].insts = bad
	}
	init := &guest.State{Mem: e.Mem}
	init.R[guest.SP] = env.StackTop
	e.SetGuestState(init)
	st, err := e.Run(env.CodeBase, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, want, e.GuestState(), "unverifiable rerun")
	if st.ShadowChecks == 0 {
		t.Fatal("second run sampled nothing")
	}
	if st.Divergences != 0 || st.RateSnaps != 0 || st.QuarantinedRules != 0 {
		t.Fatalf("unverifiable checks counted as events: %+v", st)
	}
	if got := e.ShadowRateNow(); got != rate {
		t.Fatalf("rate %v -> %v over unverifiable checks", rate, got)
	}
	if e.Mem.JournalLen() != 0 {
		t.Fatalf("journal left holding %d entries after Run", e.Mem.JournalLen())
	}
}

// TestShadowRecoversByWriteSet: a translation that does nothing at all
// — no register, no store, exit to its own pc — must be reported and
// replaced by exactly the reference interpreter's result, registers and
// memory, with no pre-block copy to restore from. For a superblock the
// recovery also tears the trace down and bans its head.
func TestShadowRecoversByWriteSet(t *testing.T) {
	for _, super := range []bool{false, true} {
		prog, cfg := testProgram(), Config{DelegateFlags: true}
		if super {
			prog, cfg = hotProgram(), hotCfg(cfg)
		}
		c := compileT(t, prog)
		_, cfg.Rules = learnRules(t, prog, core.Config{Opcode: true, AddrMode: true})
		e, entries := warmShadowEngine(t, c, cfg)
		var pc uint32
		var tb *tblock
		if super {
			for p, b := range e.cache {
				if len(b.segs) > 1 && b.hasStores {
					pc, tb = p, b
				}
			}
			if tb == nil {
				t.Fatal("no superblock with guest stores was formed")
			}
		} else {
			pc, tb = hottestStoringBlock(t, e)
		}
		writeGuestState(e.Mem, entries[pc])

		// What the interpreter makes of the block from this state.
		want := entries[pc].WithMem(e.Mem.Clone())
		wantNext := pc
		for j := 0; j < len(tb.segs) && wantNext == tb.segs[j].pc; j++ {
			wantNext, _ = guard.RunReference(want, tb.segs[j].pc, tb.segs[j].insts, HaltPC)
		}
		if len(want.Mem.DiffBelow(e.Mem, env.StateBase, 1)) == 0 {
			t.Fatalf("super=%v: block at %#x stores nothing new from its entry state", super, pc)
		}

		tb.execs++
		e.shadowBegin(tb, pc)
		next, v := e.shadowCheck(tb, pc, pc) // the translated pass never ran
		if v != shadowDiverged || next != wantNext {
			t.Fatalf("super=%v: verdict %d next %#x, want diverged to %#x", super, v, next, wantNext)
		}
		got := e.GuestState()
		want.R[guest.PC], got.R[guest.PC] = 0, 0 // exits are compared as next pcs
		if got.R != want.R || got.F != want.F {
			t.Fatalf("super=%v: recovered registers\n%swant\n%s", super, got.Snapshot(), want.Snapshot())
		}
		if d := want.Mem.DiffBelow(e.Mem, env.StateBase, 1); len(d) > 0 {
			t.Fatalf("super=%v: recovered memory differs from the reference at %#x", super, d[0])
		}
		divs := e.Divergences()
		if len(divs) != 1 || divs[0].PC != pc || len(divs[0].Mismatches) == 0 {
			t.Fatalf("super=%v: divergence log %v", super, divs)
		}
		if e.Mem.JournalLen() != 0 {
			t.Fatalf("super=%v: journal still holds %d entries", super, e.Mem.JournalLen())
		}
		if cur, ok := e.cache[pc]; ok && cur == tb {
			t.Fatalf("super=%v: diverged translation still cached", super)
		}
		if super && (!e.sbBan[pc] || !tb.dead) {
			t.Fatalf("superblock head %#x not banned and torn down", pc)
		}
	}
}

// TestShadowRecoversFromFrameStores: a sampled translation that writes
// wrong values into the guest registers and a spill slot through frame
// stores (the CPUState page on the host CPU's journaled frame path)
// diverges. Recovery must install exactly the reference's registers and
// roll every frame store back with the journal: the spill slot, which
// nothing rewrites, reads its block-entry value again.
func TestShadowRecoversFromFrameStores(t *testing.T) {
	c := compileT(t, testProgram())
	_, par := learnRules(t, testProgram(), core.Config{Opcode: true, AddrMode: true})
	e, entries := warmShadowEngine(t, c, Config{Rules: par, DelegateFlags: true})
	pc, tb := hottestStoringBlock(t, e)
	writeGuestState(e.Mem, entries[pc])
	const spill = env.StateBase + env.OffScratch
	e.Mem.Write32(spill, 0x5151)
	want := entries[pc].WithMem(e.Mem.Clone())
	wantNext, _ := guard.RunReference(want, pc, tb.segs[0].insts, HaltPC)

	// The block's own code behind frame stores of garbage into every
	// guest register slot and the spill slot.
	var pre []host.Inst
	for r := 0; r < guest.NumRegs; r++ {
		pre = append(pre, host.I(host.MOVL, host.Mem(host.EBP, env.OffReg(r)), host.Imm(int32(0xbad0+r))))
	}
	pre = append(pre, host.I(host.MOVL, host.Mem(host.EBP, env.OffScratch), host.R(host.ESP)))
	labels := map[int]int{}
	for id, i := range tb.hb.Labels() {
		labels[id] = i + len(pre)
	}
	tb.hb = host.NewBlock(append(pre, tb.hb.Insts...), labels)
	if !frameStoresGuestSlot(tb.hb) {
		t.Fatal("the corrupted block has no frame store")
	}

	tb.execs++
	e.shadowBegin(tb, pc)
	if f, journal := e.Mem.Frame(env.StateBase); f == nil || !journal {
		t.Fatalf("sampled pass not on the journaled frame path (page %v, journal %v)", f != nil, journal)
	}
	res, err := e.CPU.Exec(tb.hb, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if journaledStateWords(e.Mem) <= guest.NumRegs {
		t.Fatalf("the translated pass journaled %d CPUState words, want the %d frame stores at least", journaledStateWords(e.Mem), guest.NumRegs+1)
	}
	next, v := e.shadowCheck(tb, pc, res.NextPC)
	if v != shadowDiverged || next != wantNext {
		t.Fatalf("verdict %d next %#x, want diverged to %#x", v, next, wantNext)
	}
	got := e.GuestState()
	want.R[guest.PC], got.R[guest.PC] = 0, 0 // exits are compared as next pcs
	if got.R != want.R || got.F != want.F || got.Flags != want.Flags {
		t.Fatalf("recovered registers\n%swant\n%s", got.Snapshot(), want.Snapshot())
	}
	if s := e.Mem.Read32(spill); s != 0x5151 {
		t.Fatalf("spill slot after recovery = %#x, want its block-entry 0x5151", s)
	}
	if d := want.Mem.DiffBelow(e.Mem, env.StateBase, 1); len(d) > 0 {
		t.Fatalf("recovered memory differs from the reference at %#x", d[0])
	}
}

// TestShadowPanicRollsBackSampledBlock: a panic escaping a sampled
// execution after it has already stored must leave memory and registers
// as they were at block entry — from the undo journal now, not from a
// pre-block copy — with the architectural pc at the faulting block. The
// block writes guest registers and flags through frame stores of every
// kind; the rollback covers the whole state page, spill slots included,
// not only the words the restore of shadow.pre rewrites.
func TestShadowPanicRollsBackSampledBlock(t *testing.T) {
	c := compileT(t, testProgram())
	e := startEngine(t, c, Config{ShadowRate: 1})
	tb, err := e.block(env.CodeBase, false)
	if err != nil {
		t.Fatal(err)
	}
	const victim = env.DataBase + 0x100
	const spill = env.StateBase + env.OffScratch
	e.Mem.Write32(victim, 0x1234)
	e.Mem.Write32(spill, 0x5151)
	// Host code that stores into guest data, guest register and flag
	// slots and a spill slot, then faults in the simulator (no such host
	// register).
	tb.hb = host.NewBlock([]host.Inst{
		host.I(host.MOVL, host.Mem(host.EBP, int32(victim)-int32(env.StateBase)), host.Imm(0xbad)),
		host.I(host.MOVL, host.Mem(host.EBP, env.OffReg(0)), host.Imm(0xbad)),
		host.I(host.MOVL, host.Mem(host.EBP, env.OffReg(1)), host.R(host.ESP)),
		host.I(host.ADDL, host.Mem(host.EBP, env.OffReg(2)), host.Imm(5)),
		host.I(host.XORL, host.Mem(host.EBP, env.OffZ), host.Imm(1)),
		host.I(host.SUBL, host.Mem(host.EBP, env.OffScratch), host.R(host.ESP)),
		host.I(host.MOVL, host.R(host.Reg(99)), host.Imm(1)),
	}, nil)
	if !frameStoresGuestSlot(tb.hb) {
		t.Fatal("the block has no frame store")
	}
	if f, _ := e.Mem.Frame(env.StateBase); f == nil {
		t.Fatal("CPUState page not on the frame path")
	}
	before := e.GuestState()
	_, err = e.Run(env.CodeBase, 100_000_000)
	var pe *PanicError
	if !errors.As(err, &pe) || pe.PC != env.CodeBase {
		t.Fatalf("Run returned %v, want a PanicError at the entry block", err)
	}
	if got := e.Mem.Read32(victim); got != 0x1234 {
		t.Fatalf("guest word after the panic = %#x, want the pre-block 0x1234", got)
	}
	if got := e.Mem.Read32(spill); got != 0x5151 {
		t.Fatalf("spill slot after the panic = %#x, want the pre-block 0x5151", got)
	}
	after := e.GuestState()
	before.R[guest.PC] = env.CodeBase
	if after.R != before.R || after.Flags != before.Flags {
		t.Fatalf("registers after the panic\n%swant\n%s", after.Snapshot(), before.Snapshot())
	}
	if e.Mem.JournalLen() != 0 {
		t.Fatalf("journal still holds %d entries", e.Mem.JournalLen())
	}
}
