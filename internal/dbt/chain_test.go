package dbt

import (
	"fmt"
	"sync"
	"testing"

	"paramdbt/internal/core"
	"paramdbt/internal/env"
	"paramdbt/internal/guest"
	"paramdbt/internal/mem"
	"paramdbt/internal/minic"
	"paramdbt/internal/rule"
)

// runTraced executes a compiled program and returns the halted engine,
// stats, and the pc of every block entered in execution order.
func runTraced(t *testing.T, c *minic.Compiled, cfg Config) (*Engine, Stats, []uint32) {
	t.Helper()
	m := mem.New()
	if _, err := c.LoadGuest(m); err != nil {
		t.Fatal(err)
	}
	var blocks []uint32
	cfg.TraceBlock = func(pc uint32) { blocks = append(blocks, pc) }
	e := New(m, cfg)
	init := &guest.State{Mem: m}
	init.R[guest.SP] = env.StackTop
	e.SetGuestState(init)
	stats, err := e.Run(env.CodeBase, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return e, stats, blocks
}

// expandTrace turns a block-entry trace into a per-instruction guest pc
// trace by decoding each entered block from memory.
func expandTrace(t *testing.T, m *mem.Memory, blocks []uint32) []uint32 {
	t.Helper()
	var pcs []uint32
	var tx txctx
	for _, bpc := range blocks {
		insts, err := tx.fetchBlock(m, bpc)
		if err != nil {
			t.Fatalf("decoding block at %#x: %v", bpc, err)
		}
		for i := range insts {
			pcs = append(pcs, bpc+uint32(i*guest.InstBytes))
		}
	}
	return pcs
}

// interpTrace runs the reference interpreter and records the pc of
// every executed instruction.
func interpTrace(t *testing.T, c *minic.Compiled) []uint32 {
	t.Helper()
	st := guest.NewState()
	if _, err := c.LoadGuest(st.Mem); err != nil {
		t.Fatal(err)
	}
	st.SetPC(env.CodeBase)
	st.R[guest.SP] = env.StackTop
	var pcs []uint32
	for !st.Halted {
		if len(pcs) > 50_000_000 {
			t.Fatal("interpreter trace budget exhausted")
		}
		pc := st.R[guest.PC]
		in, err := guest.Decode(st.Mem.Read32(pc))
		if err != nil {
			t.Fatalf("at pc=%#x: %v", pc, err)
		}
		pcs = append(pcs, pc)
		if err := st.Step(in); err != nil {
			t.Fatalf("at pc=%#x: %v", pc, err)
		}
	}
	return pcs
}

// TestChainingTraceMatchesInterpreter compares chained and unchained
// execution instruction-for-instruction against the guest reference
// interpreter, and checks the chaining counters behave: chained
// execution skips dispatches without changing anything guest-visible.
func TestChainingTraceMatchesInterpreter(t *testing.T) {
	prog := testProgram()
	c := compileT(t, prog)
	_, par := learnRules(t, prog, core.Config{Opcode: true, AddrMode: true})

	want := interpTrace(t, c)

	for _, rules := range []*rule.Store{nil, par} {
		label := "qemu"
		cfg := Config{}
		if rules != nil {
			label = "para"
			cfg = Config{Rules: rules, DelegateFlags: true}
		}
		chE, chStats, chBlocks := runTraced(t, c, cfg)

		uncfg := cfg
		uncfg.NoChain = true
		unE, unStats, unBlocks := runTraced(t, c, uncfg)

		m := mem.New()
		if _, err := c.LoadGuest(m); err != nil {
			t.Fatal(err)
		}
		chTrace := expandTrace(t, m, chBlocks)
		unTrace := expandTrace(t, m, unBlocks)

		for name, got := range map[string][]uint32{"chained": chTrace, "unchained": unTrace} {
			if len(got) != len(want) {
				t.Fatalf("%s/%s: trace length %d, want %d", label, name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s/%s: trace[%d] = %#x, want %#x", label, name, i, got[i], want[i])
				}
			}
		}

		// Guest-visible results identical between chained and unchained.
		chSt, unSt := chE.GuestState(), unE.GuestState()
		if chSt.R[guest.R0] != unSt.R[guest.R0] || chSt.R[guest.SP] != unSt.R[guest.SP] {
			t.Fatalf("%s: chained/unchained final state differs", label)
		}
		if chStats.Coverage() != unStats.Coverage() || chStats.GuestExec != unStats.GuestExec {
			t.Fatalf("%s: chained/unchained stats differ: %+v vs %+v", label, chStats, unStats)
		}

		// Counter behavior: same number of block entries; chaining
		// actually bypassed the dispatcher.
		if unStats.ChainedExits != 0 {
			t.Fatalf("%s: NoChain run recorded %d chained exits", label, unStats.ChainedExits)
		}
		if chStats.Dispatches+chStats.ChainedExits != unStats.Dispatches {
			t.Fatalf("%s: block entries differ: %d+%d chained vs %d unchained",
				label, chStats.Dispatches, chStats.ChainedExits, unStats.Dispatches)
		}
		if chStats.ChainedExits == 0 {
			t.Fatalf("%s: no chained exits on a loopy program", label)
		}
		if chStats.Dispatches >= unStats.Dispatches {
			t.Fatalf("%s: chaining did not reduce dispatches: %d vs %d",
				label, chStats.Dispatches, unStats.Dispatches)
		}
	}
}

// TestConcurrentEnginesRace is the -race stress test: several engines
// run concurrently over one shared rule store.
func TestConcurrentEnginesRace(t *testing.T) {
	prog := testProgram()
	c := compileT(t, prog)
	_, par := learnRules(t, prog, core.Config{Opcode: true, AddrMode: true})

	want, wantStats := runProgram(t, c, Config{Rules: par, DelegateFlags: true})

	const engines = 4
	var wg sync.WaitGroup
	errs := make(chan error, engines)
	for i := 0; i < engines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			m := mem.New()
			if _, err := c.LoadGuest(m); err != nil {
				errs <- err
				return
			}
			e := New(m, Config{Rules: par, DelegateFlags: true})
			init := &guest.State{Mem: m}
			init.R[guest.SP] = env.StackTop
			e.SetGuestState(init)
			stats, err := e.Run(env.CodeBase, 100_000_000)
			if err != nil {
				errs <- err
				return
			}
			got := e.GuestState()
			if got.R[guest.R0] != want.R[guest.R0] || got.R[guest.SP] != want.R[guest.SP] {
				errs <- fmt.Errorf("engine %d: final state diverged", id)
				return
			}
			if stats.GuestExec != wantStats.GuestExec || stats.Coverage() != wantStats.Coverage() {
				errs <- fmt.Errorf("engine %d: stats diverged: %+v vs %+v", id, stats, wantStats)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestInvalidateUnlinks checks chain teardown: invalidating a block
// unpatches every incoming link and forces retranslation on the next
// dispatch, and a rerun still produces correct results.
func TestInvalidateUnlinks(t *testing.T) {
	prog := testProgram()
	c := compileT(t, prog)
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

	// Find a patched link and invalidate its target.
	var victim uint32
	var link *blockLink
	for pc := uint32(env.CodeBase); link == nil && pc < env.CodeBase+65536; pc += guest.InstBytes {
		tb, ok := e.cache[pc]
		if !ok {
			continue
		}
		for i := range tb.links {
			if tb.links[i].to != nil {
				link = &tb.links[i]
				victim = tb.links[i].target
				break
			}
		}
	}
	if link == nil {
		t.Fatal("no patched link found")
	}
	if !e.Invalidate(victim) {
		t.Fatalf("Invalidate(%#x) found nothing", victim)
	}
	if link.to != nil {
		t.Fatalf("incoming link to %#x survived invalidation", victim)
	}
	if _, ok := e.cache[victim]; ok {
		t.Fatalf("block %#x still cached after invalidation", victim)
	}
	if e.Invalidate(victim) {
		t.Fatal("second Invalidate reported a translation")
	}

	// Rerun from a reset guest state: the victim retranslates and links
	// are re-patched; results stay correct.
	init2 := &guest.State{Mem: m}
	init2.R[guest.SP] = env.StackTop
	e.SetGuestState(init2)
	stats, err := e.Run(env.CodeBase, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	got := e.GuestState()
	if got.R[guest.R0] != want.R[guest.R0] {
		t.Fatalf("after invalidate+rerun: r0 = %#x, want %#x", got.R[guest.R0], want.R[guest.R0])
	}
	if stats.Translations == 0 {
		t.Fatal("rerun did not retranslate the invalidated block")
	}
	if _, ok := e.cache[victim]; !ok {
		t.Fatalf("block %#x not retranslated", victim)
	}
}

// TestBlocksCountEachPCOnce pins Stats.Blocks to distinct pcs per
// engine: a rerun after every translation was invalidated retranslates
// (and, interpret-first, reinterprets) the program's blocks, but enters
// no pc the engine had not entered before.
func TestBlocksCountEachPCOnce(t *testing.T) {
	c := compileT(t, testProgram())
	want := interpret(t, c)
	for _, translateFirst := range []bool{true, false} {
		e := startEngine(t, c, Config{TranslateFirst: translateFirst})
		first, err := e.Run(env.CodeBase, 100_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if first.Blocks == 0 {
			t.Fatalf("translateFirst=%v: first run counted no blocks", translateFirst)
		}
		var pcs []uint32
		for pc := range e.cache {
			pcs = append(pcs, pc)
		}
		if len(pcs) == 0 {
			t.Fatalf("translateFirst=%v: nothing translated", translateFirst)
		}
		for _, pc := range pcs {
			e.Invalidate(pc)
		}
		init := &guest.State{Mem: e.Mem}
		init.R[guest.SP] = env.StackTop
		e.SetGuestState(init)
		again, err := e.Run(env.CodeBase, 100_000_000)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, want, e.GuestState(), "rerun after invalidation")
		if again.Translations == 0 {
			t.Fatalf("translateFirst=%v: rerun retranslated nothing", translateFirst)
		}
		if again.Blocks != 0 {
			t.Fatalf("translateFirst=%v: rerun counted %d blocks again (first run %d)", translateFirst, again.Blocks, first.Blocks)
		}
		if live := e.LiveStats().Blocks; live != first.Blocks {
			t.Fatalf("translateFirst=%v: engine counted %d blocks, want %d", translateFirst, live, first.Blocks)
		}
	}
}
