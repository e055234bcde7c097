package backend

import (
	"testing"

	"paramdbt/internal/env"
	"paramdbt/internal/host"
)

// optimizeT legalizes seq, runs the peephole pass over the result and
// returns both streams. Fails the test unless the pass found something
// to delete — an adversarial case that exercises nothing is a bug in
// the test.
func optimizeT(t *testing.T, seq []host.Inst, wantDeletes bool) (leg, opt []host.Inst) {
	t.Helper()
	leg, _, err := legalize(seq, nil)
	if err != nil {
		t.Fatalf("legalize: %v", err)
	}
	be, _ := Lookup("risc")
	opti, ok := be.(Optimizer)
	if !ok {
		t.Fatal("risc backend does not implement Optimizer")
	}
	ob, st, err := opti.OptimizeBlock(host.NewBlock(leg, nil))
	if err != nil {
		t.Fatalf("OptimizeBlock: %v", err)
	}
	if wantDeletes && st.Deleted() == 0 {
		t.Fatalf("peephole deleted nothing from a %d-inst legalized stream", len(leg))
	}
	return leg, ob.Insts
}

// diffCPUs runs the two streams on identically seeded CPUs and fails on
// any divergence the translation contract forbids: exit pc, flags, the
// pinned EBP/ESP registers, xmm, and all memory outside the
// translator-private CPUState slots. The other general registers are
// scratch — dead at block exit — so the peephole pass may legally skip
// restoring them.
func diffCPUs(t *testing.T, a, b []host.Inst, label string) {
	t.Helper()
	c0, c1 := newTestCPU(), newTestCPU()
	r0, err0 := c0.Exec(host.NewBlock(a, nil), 1000)
	r1, err1 := c1.Exec(host.NewBlock(b, nil), 1000)
	if err0 != nil || err1 != nil {
		t.Fatalf("%s: exec: %v / %v", label, err0, err1)
	}
	if r0.NextPC != r1.NextPC {
		t.Fatalf("%s: next pc %#x vs %#x", label, r0.NextPC, r1.NextPC)
	}
	if c0.Flags != c1.Flags {
		t.Fatalf("%s: flags diverge: %v vs %v", label, c0.Flags, c1.Flags)
	}
	for _, r := range []host.Reg{host.EBP, host.ESP} {
		if c0.R[r] != c1.R[r] {
			t.Fatalf("%s: pinned register %v diverges: %#x vs %#x", label, r, c0.R[r], c1.R[r])
		}
	}
	if c0.X != c1.X {
		t.Fatalf("%s: xmm diverge:\n%v\n%v", label, c0.X, c1.X)
	}
	for off := int32(-64); off < dataOff2+64; off += 4 {
		if privateSlot(off) {
			continue // dead stores here may legitimately be deleted
		}
		addr := envBase + uint32(off)
		if w, g := c0.Mem.Read32(addr), c1.Mem.Read32(addr); w != g {
			t.Fatalf("%s: memory diverges at env%+d: %#x vs %#x", label, off, w, g)
		}
	}
	for addr := stackTop - 16; addr < stackTop; addr += 4 {
		if w, g := c0.Mem.Read32(addr), c1.Mem.Read32(addr); w != g {
			t.Fatalf("%s: stack diverges at %#x: %#x vs %#x", label, addr, w, g)
		}
	}
}

// TestPeepholeSemanticEquivalence is the twin-CPU differential: dense
// memory-destination sequences whose legalization re-saves and
// re-loads the same scratch registers, optimized and raw streams must
// agree on every architectural outcome.
func TestPeepholeSemanticEquivalence(t *testing.T) {
	md := func(off int32) host.Operand { return host.Mem(host.EBP, off) }
	cases := []struct {
		name string
		seq  []host.Inst
	}{
		{"same-slot-chain", []host.Inst{
			host.I(host.ADDL, md(dataOff), host.R(host.ECX)),
			host.I(host.SUBL, md(dataOff), host.R(host.EDX)),
			host.I(host.ADDL, md(dataOff), host.Imm(9)),
		}},
		{"two-slot-interleave", []host.Inst{
			host.I(host.ADDL, md(dataOff), host.R(host.ECX)),
			host.I(host.ADDL, md(dataOff2), host.R(host.ECX)),
			host.I(host.ADCL, md(dataOff), host.Imm(1)),
			host.I(host.SBBL, md(dataOff2), host.R(host.EBX)),
		}},
		{"carry-chain-across-brackets", []host.Inst{
			host.I(host.ADDL, md(dataOff), md(dataOff2)),
			host.I(host.ADCL, host.R(host.EAX), md(dataOff)),
			host.I(host.ADCL, md(dataOff2), host.Imm(0)),
		}},
		{"flag-read-between", []host.Inst{
			host.I(host.CMPL, md(dataOff), host.Imm(5)),
			{Op: host.SETCC, Cond: host.B, Dst: md(dataOff2)},
			host.I(host.ADDL, md(dataOff), md(dataOff2)),
		}},
		{"push-pop-mem-pair", []host.Inst{
			host.I1(host.PUSHL, md(dataOff)),
			host.I1(host.POPL, md(dataOff2)),
			host.I(host.ADDL, md(dataOff2), md(dataOff)),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seq := append(append([]host.Inst{}, tc.seq...), host.Exit(host.Imm(0x1234)))
			leg, opt := optimizeT(t, seq, true)
			diffCPUs(t, leg, opt, tc.name)
		})
	}
}

// TestPeepholeKeepsGuestWords pins the liveness boundary: stores into
// the guest-visible register and NZCV words are the translation's
// semantics, never dead, even when the block exits immediately after
// writing them and nothing reloads them.
func TestPeepholeKeepsGuestWords(t *testing.T) {
	// Hand-built post-legalize stream (risc encodes no imm-to-mem
	// moves): materialize in registers, then store.
	seq := []host.Inst{
		host.I(host.MOVL, host.R(host.EAX), host.Imm(2)),
		host.I(host.MOVL, host.Mem(host.EBP, env.OffReg(3)), host.R(host.EAX)),
		host.I(host.MOVL, host.R(host.EBX), host.Imm(1)),
		host.I(host.MOVL, host.Mem(host.EBP, env.OffN), host.R(host.EBX)),
		host.I(host.MOVL, host.Mem(host.EBP, env.OffC), host.R(host.EBX)),
		// A genuinely dead store into a translator-private save slot,
		// so the pass has something it is allowed to delete.
		host.I(host.MOVL, host.Mem(host.EBP, env.OffLegal0), host.R(host.EBX)),
		host.Exit(host.Imm(0x2000)),
	}
	be, _ := Lookup("risc")
	ob, st, err := be.(Optimizer).OptimizeBlock(host.NewBlock(seq, nil))
	if err != nil {
		t.Fatal(err)
	}
	if st.Deleted() == 0 {
		t.Fatal("dead private-slot store survived: pass exercised nothing")
	}
	keep := map[int32]bool{env.OffReg(3): false, env.OffN: false, env.OffC: false}
	for _, in := range ob.Insts {
		if in.Op == host.MOVL && plainSlot(in.Dst) {
			if _, ok := keep[in.Dst.Disp]; ok {
				keep[in.Dst.Disp] = true
			}
		}
	}
	for disp, survived := range keep {
		if !survived {
			t.Errorf("store to env%+d deleted: guest-visible/engine-read slots must stay", disp)
		}
	}
}

// TestPeepholeAliasInvalidation is the scratch-slot-reuse adversary: a
// store through a non-EBP pointer that aliases a value-numbered
// CPUState slot must invalidate the slot's number, or a later reload
// gets forwarded the stale value.
func TestPeepholeAliasInvalidation(t *testing.T) {
	slotAddr := envBase + uint32(dataOff)
	seq := []host.Inst{
		// ECX := slot; value numbering now knows ECX holds the slot.
		host.I(host.MOVL, host.R(host.ECX), host.Mem(host.EBP, dataOff)),
		// Aliasing store through ESI (same byte address, different base):
		// the slot's value number must die here.
		host.I(host.MOVL, host.R(host.ESI), host.Imm(int32(slotAddr))),
		host.I(host.MOVL, host.R(host.EDX), host.Imm(99)),
		host.I(host.MOVL, host.Mem(host.ESI, 0), host.R(host.EDX)),
		// Reload into ECX: redundant only if the stale number survived.
		host.I(host.MOVL, host.R(host.ECX), host.Mem(host.EBP, dataOff)),
		// Live guest-visible use of the reloaded value.
		host.I(host.MOVL, host.Mem(host.EBP, dataOff2), host.R(host.ECX)),
		host.Exit(host.Imm(0x3000)),
	}
	be, _ := Lookup("risc")
	ob, _, err := be.(Optimizer).OptimizeBlock(host.NewBlock(seq, nil))
	if err != nil {
		t.Fatal(err)
	}
	diffCPUs(t, seq, ob.Insts, "alias")
	c := newTestCPU()
	if _, err := c.Exec(ob, 100); err != nil {
		t.Fatal(err)
	}
	if got := c.Mem.Read32(envBase + uint32(dataOff2)); got != 99 {
		t.Fatalf("optimized stream forwarded a stale slot value: data2=%#x, want 99", got)
	}
}

// TestPeepholeFaultHook checks the fault-injection seam the
// engine-level validator tests lean on: a fault that corrupts the
// optimized stream must flow through OptimizeBlock's output (and
// produce an observably wrong stream — the thing the translation
// validator exists to catch).
func TestPeepholeFaultHook(t *testing.T) {
	seq := []host.Inst{
		host.I(host.ADDL, host.Mem(host.EBP, dataOff), host.R(host.ECX)),
		host.I(host.ADDL, host.Mem(host.EBP, dataOff), host.Imm(5)),
		host.Exit(host.Imm(0x4000)),
	}
	leg, _, err := legalize(seq, nil)
	if err != nil {
		t.Fatal(err)
	}
	peepholeFault = func(insts []host.Inst) []host.Inst {
		out := append([]host.Inst(nil), insts...)
		for i := range out {
			if out[i].Op == host.ADDL && out[i].Src.Kind == host.KindImm {
				out[i].Src.Imm++
				return out
			}
		}
		t.Fatal("fault found no ADDL-imm to corrupt")
		return out
	}
	defer func() { peepholeFault = nil }()
	be, _ := Lookup("risc")
	ob, _, err := be.(Optimizer).OptimizeBlock(host.NewBlock(leg, nil))
	if err != nil {
		t.Fatal(err)
	}
	c0, c1 := newTestCPU(), newTestCPU()
	if _, err := c0.Exec(host.NewBlock(leg, nil), 1000); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Exec(ob, 1000); err != nil {
		t.Fatal(err)
	}
	a := envBase + uint32(dataOff)
	if c0.Mem.Read32(a) == c1.Mem.Read32(a) {
		t.Fatal("injected fault did not change the stream's semantics")
	}
}
