package dbt

import (
	"testing"

	"paramdbt/internal/artifact"
	"paramdbt/internal/core"
	"paramdbt/internal/env"
	"paramdbt/internal/guard/faultinject"
	"paramdbt/internal/guest"
	"paramdbt/internal/host"
	"paramdbt/internal/mem"
	"paramdbt/internal/obs"
	"paramdbt/internal/workload"
)

// These tests cover the self-modifying-code safety layer (smc.go,
// internal/mem/track.go; docs/ROBUSTNESS.md "Self-modifying code").
// They all run under `make test-smc`, including a -race arm — keep the
// TestSMC name prefix, it is the gate's -run pattern.

// runSMC loads prog at CodeBase and runs it under cfg.
func runSMC(t *testing.T, prog []guest.Inst, cfg Config) (*guest.State, Stats) {
	t.Helper()
	m := mem.New()
	if err := guest.LoadProgram(m, env.CodeBase, prog); err != nil {
		t.Fatal(err)
	}
	e := New(m, cfg)
	e.SetGuestState(&guest.State{Mem: m})
	st, err := e.Run(env.CodeBase, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	return e.GuestState(), st
}

func smcProfile(t *testing.T, name string) workload.SMCProfile {
	t.Helper()
	for _, p := range workload.SMCProfiles() {
		if p.Name == name {
			return p
		}
	}
	t.Fatalf("no SMC profile %q", name)
	return workload.SMCProfile{}
}

// TestSMCSelfStorePreciseExit: a block that stores into its own bytes
// must abort at the store — effects up to and including it kept, the
// stale tail never run — and the run must still produce the
// interpreter's result (r0 pinned by workload.TestSMCProfilesInterpret).
func TestSMCSelfStorePreciseExit(t *testing.T) {
	p := smcProfile(t, "smc-patch")
	got, st := runSMC(t, p.Prog, Config{ShadowRate: 1})
	if got.R[guest.R0] != 300 {
		t.Fatalf("r0 = %d, want 300", got.R[guest.R0])
	}
	if st.SMCSelfAborts == 0 {
		t.Fatalf("no self-aborts recorded: %+v", st)
	}
	if st.SMCInvalidations == 0 {
		t.Fatalf("no invalidations recorded: %+v", st)
	}
	if st.Divergences != 0 {
		t.Fatalf("shadow divergences: %+v", st)
	}
}

// TestSMCShadowReferencePassIsInvisible: a sampled execution runs the
// reference interpreter over live memory first. For a block that stores
// into its own code page that pass must leave nothing behind — no self
// hit (the interpreter has no stale host code), no dirty page, the code
// word as it was — so that the translated pass that follows flags the
// self hit and dirties exactly the pages it would have without sampling.
// smcPatchEngine loads smc-patch under cfg, interprets it to the top of
// the iteration that patches — r1 == 99 at the loop head, whose address
// r5 holds: this execution of the loop block rewrites the block's first
// instruction — and installs that state. It returns the engine, the loop
// block's translation, its pc and the entry state.
func smcPatchEngine(t *testing.T, cfg Config) (*Engine, *tblock, uint32, guest.State) {
	t.Helper()
	m := mem.New()
	if err := guest.LoadProgram(m, env.CodeBase, smcProfile(t, "smc-patch").Prog); err != nil {
		t.Fatal(err)
	}
	e := New(m, cfg)
	st := guest.State{Mem: m}
	st.SetPC(env.CodeBase)
	for i := 0; !(st.R[guest.R1] == 99 && st.PCVal() == st.R[guest.R5]); i++ {
		in, err := guest.Decode(m.Read32(st.PCVal()))
		if err == nil {
			err = st.Step(in)
		}
		if err != nil || i > 10_000 {
			t.Fatalf("interpreting to the patch iteration: step %d, %v", i, err)
		}
	}
	e.SetGuestState(&st)
	pc := st.PCVal()
	tb, err := e.block(pc)
	if err != nil || !tb.hasStores {
		t.Fatalf("loop block at %#x: %v (hasStores %v)", pc, err, tb != nil && tb.hasStores)
	}
	return e, tb, pc, st
}

func TestSMCShadowReferencePassIsInvisible(t *testing.T) {
	setup := func(shadow float64) (*Engine, *tblock, uint32, uint32) {
		e, tb, pc, _ := smcPatchEngine(t, Config{ShadowRate: shadow})
		return e, tb, pc, e.Mem.Read32(pc)
	}

	e, tb, pc, word := setup(1)
	tb.execs++
	e.shadowBegin(tb, pc)
	if e.Mem.SMCSelfHit() || e.Mem.CodeDirty() || e.Mem.JournalLen() != 0 || e.Mem.Read32(pc) != word {
		t.Fatalf("reference pass left a trace: self hit %v, dirty %v, journal %d, code word %#x (was %#x)",
			e.Mem.SMCSelfHit(), e.Mem.CodeDirty(), e.Mem.JournalLen(), e.Mem.Read32(pc), word)
	}
	if len(e.shadow.refWrites) != 4 || e.shadow.refWrites[0].Addr != pc {
		t.Fatalf("reference write set %v, want the four bytes at %#x", e.shadow.refWrites, pc)
	}
	if _, err := e.CPU.Exec(tb.hb, 1<<20); err != nil {
		t.Fatal(err)
	}
	if !e.Mem.SMCSelfHit() {
		t.Fatal("sampled translated pass did not flag its self-modifying store")
	}
	sampled := e.Mem.TakeDirtyPages()

	// The same execution, never sampled.
	u, utb, upc, _ := setup(0)
	u.Mem.ArmSMC(utb.hasStores, utb.ranges)
	if _, err := u.CPU.Exec(utb.hb, 1<<20); err != nil {
		t.Fatal(err)
	}
	alone := u.Mem.TakeDirtyPages()
	if !u.Mem.SMCSelfHit() || len(alone) != 1 || alone[0] != upc>>mem.PageBits {
		t.Fatalf("unsampled pass: self hit %v, dirty pages %x", u.Mem.SMCSelfHit(), alone)
	}
	if len(sampled) != len(alone) || sampled[0] != alone[0] {
		t.Fatalf("dirty pages after a sampled execution %x, after the translated pass alone %x", sampled, alone)
	}
}

// frameStoresGuestSlot reports whether hb stores into a guest-register
// slot through a frame operand — base %ebp, no index, an offset below
// the spill area, in a block that never writes %ebp — the stores
// host.NewBlock gives a frame kind.
func frameStoresGuestSlot(hb *host.Block) bool {
	found := false
	for _, in := range hb.Insts {
		d := in.Dst
		if d.Kind == host.KindReg && d.Reg == host.EBP {
			return false
		}
		if d.Kind == host.KindMem && d.Base == host.EBP && d.Scale == 0 && d.Disp >= 0 && d.Disp < env.OffScratch {
			found = true
		}
	}
	return found
}

// journaledStateWords counts the CPUState words the armed journal holds
// an undo entry for.
func journaledStateWords(m *mem.Memory) int {
	n := 0
	for _, w := range m.JournalWrites(nil, 0xFFFF_F000) {
		if w.Addr >= env.StateBase && w.Addr < env.StateBase+env.Size && w.Addr%4 == 0 {
			n++
		}
	}
	return n
}

// TestSMCSelfAbortUndoesFrameStores: the smc-patch loop block writes
// guest registers through frame stores — the CPUState page is on the
// host CPU's frame path — and stores into its own first instruction. The
// abort must roll the frame stores back with the rest of the journal, so
// the replay starts from the block-entry registers and the engine
// resumes with exactly the interpreter's.
func TestSMCSelfAbortUndoesFrameStores(t *testing.T) {
	e, tb, pc, entry := smcPatchEngine(t, Config{})
	if !frameStoresGuestSlot(tb.hb) {
		t.Fatalf("loop block stores no guest register through a frame operand\n%s", tb.hb.Listing())
	}
	// The interpreter's answer: from the entry state up to and including
	// the store into the block's own first word.
	want := entry.WithMem(e.Mem.Clone())
	for word := want.Mem.Read32(pc); want.Mem.Read32(pc) == word; {
		in, err := guest.Decode(want.Mem.Read32(want.PCVal()))
		if err == nil {
			err = want.Step(in)
		}
		if err != nil || want.Halted {
			t.Fatalf("interpreting the patch iteration: %v", err)
		}
	}

	e.Mem.ArmSMC(tb.hasStores, tb.ranges)
	if f, journal := e.Mem.Frame(env.StateBase); f == nil || !journal {
		t.Fatalf("CPUState page not on the journaled frame path (page %v, journal %v)", f != nil, journal)
	}
	if _, err := e.CPU.Exec(tb.hb, 1<<20); err != nil {
		t.Fatal(err)
	}
	if !e.Mem.SMCSelfHit() {
		t.Fatal("the patching execution did not flag its self-modifying store")
	}
	if journaledStateWords(e.Mem) == 0 {
		t.Fatal("the execution journaled no CPUState word")
	}
	next, _, err := e.smcSelfAbort(tb, pc)
	if err != nil {
		t.Fatal(err)
	}
	got := e.GuestState()
	if next != want.PCVal() || got.R != want.R || got.Flags != want.Flags {
		t.Fatalf("resumed at %#x with\n%swant %#x with\n%s", next, got.Snapshot(), want.PCVal(), want.Snapshot())
	}
}

// TestSMCCrossBlockInvalidate: a store into another block's bytes takes
// the fence path (no self-abort) and the stale translation never runs.
func TestSMCCrossBlockInvalidate(t *testing.T) {
	p := smcProfile(t, "smc-cross")
	got, st := runSMC(t, p.Prog, Config{ShadowRate: 1})
	if got.R[guest.R0] != 420 {
		t.Fatalf("r0 = %d, want 420", got.R[guest.R0])
	}
	if st.SMCInvalidations == 0 {
		t.Fatalf("no invalidations recorded: %+v", st)
	}
	if st.SMCSelfAborts != 0 {
		t.Fatalf("cross-block store should not self-abort: %+v", st)
	}
	if st.Divergences != 0 {
		t.Fatalf("shadow divergences: %+v", st)
	}
}

// TestSMCMidSuperblock: the store sits mid-trace and rewrites a later
// instruction of its own superblock; the abort must stop the superblock
// at the store and the re-formed trace must compute the patched result.
func TestSMCMidSuperblock(t *testing.T) {
	p := smcProfile(t, "smc-sbmid")
	got, st := runSMC(t, p.Prog, Config{
		ShadowRate: 1, HotThreshold: p.HotThreshold,
	})
	if got.R[guest.R0] != 1304 {
		t.Fatalf("r0 = %d, want 1304", got.R[guest.R0])
	}
	if st.TracesFormed == 0 {
		t.Fatalf("no superblock formed: %+v", st)
	}
	if st.SMCSelfAborts == 0 {
		t.Fatalf("no self-aborts recorded: %+v", st)
	}
	if st.Divergences != 0 {
		t.Fatalf("shadow divergences: %+v", st)
	}
}

// TestSMCBudgetRefund: with TraceBudget 1, re-forming the loop's
// superblock after the SMC invalidation tears it down is only possible
// if teardown refunds the budget claim. The smc-sbmid loop is hot both
// before and after its iteration-50 patch, so a leak would pin the
// second half to plain blocks.
func TestSMCBudgetRefund(t *testing.T) {
	p := smcProfile(t, "smc-sbmid")
	got, st := runSMC(t, p.Prog, Config{
		ShadowRate: 1, HotThreshold: p.HotThreshold,
		TraceBudget: 1,
	})
	if got.R[guest.R0] != 1304 {
		t.Fatalf("r0 = %d, want 1304", got.R[guest.R0])
	}
	if st.TracesFormed < 2 {
		t.Fatalf("superblock not re-formed after invalidation (TracesFormed = %d): %+v", st.TracesFormed, st)
	}
}

// TestSMCToggleFormation: repeated toggling of one instruction while
// trace formation keeps re-forming the loop. Every toggle must fence
// out the stale translations and superblocks, and the result must
// still be exact.
func TestSMCToggleFormation(t *testing.T) {
	p := smcProfile(t, "smc-toggle")
	got, st := runSMC(t, p.Prog, Config{
		ShadowRate: 1, HotThreshold: p.HotThreshold,
	})
	if got.R[guest.R0] != 597 {
		t.Fatalf("r0 = %d, want 597", got.R[guest.R0])
	}
	if st.SMCInvalidations == 0 || st.TracesFormed == 0 {
		t.Fatalf("no invalidations or no traces recorded: %+v", st)
	}
	if st.Divergences != 0 {
		t.Fatalf("shadow divergences: %+v", st)
	}
}

// TestSMCFaultPokes drives the fence from the outside: a faultinject
// plan rewrites the loop's accumulate instruction at block-entry
// ordinal 12. With NoChain every block boundary passes the dispatcher,
// so ordinals are exact: the setup block plus iteration 1 is entry 1,
// iteration i is entry i, and the poke lands before iteration 12 —
// 11 iterations at +1, 9 at +2.
func TestSMCFaultPokes(t *testing.T) {
	prog := guest.MustAssemble(`
		mov r0, #0
		mov r1, #0
		mov r4, #20
	loop:
		add r0, r0, #1
		add r1, r1, #1
		cmp r1, r4
		blt loop
		hlt
	`)
	patched := guest.MustAssemble("add r0, r0, #2")
	word, err := guest.Encode(patched[0])
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(faultinject.Plan{
		SMCWrites: []faultinject.SMCWrite{
			{Entry: 12, Addr: env.CodeBase + 3*guest.InstBytes, Word: word},
		},
	})
	got, st := runSMC(t, prog, Config{ShadowRate: 1, NoChain: true, Faults: inj})
	if got.R[guest.R0] != 11+9*2 {
		t.Fatalf("r0 = %d, want %d", got.R[guest.R0], 11+9*2)
	}
	if st.SMCInvalidations == 0 {
		t.Fatalf("poke did not invalidate: %+v", st)
	}
	if st.Divergences != 0 {
		t.Fatalf("shadow divergences: %+v", st)
	}
}

// TestSMCBuilderPanicRecovered: a panic inside trace translation must
// cost only the trace. Until the first formation attempt, the hook
// empties the decoded instructions of every block it sees enter, so
// trace translation indexes out of range — the kind of internal
// inconsistency the recover exists to contain — and then restores them.
// Run must absorb the panic (no error), count one dbt.sb_builder_panics,
// go on forming traces and match the interpreter.
func TestSMCBuilderPanicRecovered(t *testing.T) {
	c := compileT(t, hotProgram())
	want := interpret(t, c)
	m := mem.New()
	if _, err := c.LoadGuest(m); err != nil {
		t.Fatal(err)
	}
	var e *Engine
	emptied := map[*tblock][]guest.Inst{}
	hook := func(pc uint32) {
		if emptied == nil {
			return
		}
		if e.met.sbBuilderPanics.Value() > 0 {
			for tb, insts := range emptied {
				tb.segs[0].insts = insts
			}
			emptied = nil
			return
		}
		if tb := e.cache[pc]; tb.segs[0].insts != nil {
			emptied[tb], tb.segs[0].insts = tb.segs[0].insts, nil
		}
	}
	e = New(m, Config{HotThreshold: 2, TraceBlock: hook})
	init := &guest.State{Mem: m}
	init.R[guest.SP] = env.StackTop
	e.SetGuestState(init)
	st, err := e.Run(env.CodeBase, 100_000_000)
	if err != nil {
		t.Fatalf("trace-formation panic aborted the run: %v", err)
	}
	sameResult(t, want, e.GuestState(), "builder panic")
	if st.SBBuilderPanics != 1 || st.TracesFormed == 0 {
		t.Fatalf("SBBuilderPanics = %d, TracesFormed = %d; want 1 and > 0", st.SBBuilderPanics, st.TracesFormed)
	}
}

// TestSMCArtifactPageReject: a manifest whose recorded page digests no
// longer match live guest memory must be rejected outright (not treated
// as a miss), because its translations predate the write tracker and
// the fence can never catch them.
func TestSMCArtifactPageReject(t *testing.T) {
	c := compileT(t, hotProgram())
	_, rules := learnRules(t, hotProgram(), core.Config{Opcode: true, AddrMode: true})
	dir := t.TempDir()

	e1 := newArtEngine(t, c, warmRoundTripCfg(rules, dir))
	if _, err := e1.Run(env.CodeBase, 100_000_000); err != nil {
		t.Fatal(err)
	}

	// Tamper the recorded page sums in place: the payload stays
	// structurally valid and key-addressable, only its claim about the
	// guest image is now false.
	st, err := artifact.Open(dir, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	payload, res := st.Get(artifact.KindBlocks, e1.artKey)
	if res != artifact.Hit {
		t.Fatalf("published manifest not readable (result %d)", res)
	}
	m, err := artifact.DecodeManifest(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Pages) == 0 {
		t.Fatal("published manifest has no page sums")
	}
	m.Pages[0].Sum ^= 0xdeadbeef
	tampered, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(artifact.KindBlocks, e1.artKey, tampered); err != nil {
		t.Fatal(err)
	}

	_, rules2 := learnRules(t, hotProgram(), core.Config{Opcode: true, AddrMode: true})
	e2 := newArtEngine(t, c, warmRoundTripCfg(rules2, dir))
	w := e2.WarmStats()
	if w.Rejects == 0 {
		t.Fatalf("changed-page manifest not rejected: %+v", w)
	}
	if w.Blocks != 0 || w.Traces != 0 {
		t.Fatalf("changed-page manifest partially restored: %+v", w)
	}
	if st2, err := e2.Run(env.CodeBase, 100_000_000); err != nil {
		t.Fatal(err)
	} else if st2.Translations == 0 {
		t.Fatalf("rejecting engine should run cold: %+v", st2)
	}
}

// TestSMCManifestWithoutPagesRejected: a manifest recording blocks but
// no page digests predates the page-checksum scheme (or was stripped);
// restore must refuse it rather than trust unverifiable translations.
func TestSMCManifestWithoutPagesRejected(t *testing.T) {
	e := New(mem.New(), Config{})
	m := &artifact.BlockManifest{Blocks: []uint32{env.CodeBase}}
	if err := e.verifyManifestPages(m); err == nil {
		t.Fatal("manifest with blocks but no page sums verified")
	}
	if err := e.verifyManifestPages(&artifact.BlockManifest{}); err != nil {
		t.Fatalf("empty manifest should verify: %v", err)
	}
}
