package dbt

import (
	"fmt"
	"maps"
	"runtime"
	"strings"
	"sync"
	"testing"

	"paramdbt/internal/backend"
	"paramdbt/internal/core"
	"paramdbt/internal/env"
	"paramdbt/internal/guest"
	"paramdbt/internal/mem"
	"paramdbt/internal/minic"
	"paramdbt/internal/rule"
)

// hotCfg returns cfg with superblock formation enabled at a threshold
// low enough that the test programs' loops form traces within a run.
func hotCfg(cfg Config) Config {
	cfg.HotThreshold = 2
	return cfg
}

// hotProgram is built for trace formation: its hot loop spans several
// basic blocks (testProgram's loop body is one self-looping block, which
// by design never grows a trace — the cycle closes immediately). The
// if/else makes a conditional seam whose off-trace direction side-exits
// mid-trace on roughly alternating iterations, and the call adds a BL
// seam into the helper, whose indirect return ends trace growth.
func hotProgram() *minic.Program { return hotProgramN(60) }

// hotProgramN is hotProgram with a configurable iteration count.
func hotProgramN(iters int32) *minic.Program {
	helper := &minic.Func{
		Name: "bump", NArgs: 1, NVars: 2,
		Body: []*minic.Stmt{
			minic.Return(minic.B(minic.OpAdd, minic.V(0), minic.C(3))),
		},
	}
	main := &minic.Func{
		Name: "main", NVars: 5,
		Body: []*minic.Stmt{
			minic.Assign(0, minic.C(0)),
			minic.Assign(1, minic.C(iters)),
			minic.Assign(2, minic.C(int32(env.DataBase))),
			minic.While(minic.Cond{Op: minic.CmpNe, L: minic.V(1), R: minic.C(0)}, []*minic.Stmt{
				minic.If(minic.Cond{Op: minic.CmpGt, L: minic.V(0), R: minic.V(1)},
					[]*minic.Stmt{minic.Assign(0, minic.B(minic.OpSub, minic.V(0), minic.V(1)))},
					[]*minic.Stmt{minic.Assign(0, minic.B(minic.OpAdd, minic.V(0), minic.V(1)))}),
				minic.Call(4, 1, minic.V(0)),
				minic.Store(minic.B(minic.OpAdd, minic.V(2), minic.C(8)), minic.V(4)),
				minic.Assign(0, minic.LoadE(minic.B(minic.OpAdd, minic.V(2), minic.C(8)))),
				minic.Assign(1, minic.B(minic.OpSub, minic.V(1), minic.C(1))),
			}),
			minic.Return(minic.V(0)),
		},
	}
	return &minic.Program{Funcs: []*minic.Func{main, helper}}
}

// TestSuperblockTraceMatchesInterpreter is the core correctness check:
// with formation enabled, the per-instruction execution trace —
// reconstructed from the block-entry hook, which reports superblock
// executions constituent by constituent — must match the reference
// interpreter exactly, for both the pure-TCG and the parameterized
// configuration, and traces must actually form and execute. Every
// per-execution statistic — guest instructions, coverage, multi-insn
// rule uses and the emulated-opcode breakdown — must equal the
// unchained run's, side-exited (partial) executions included.
func TestSuperblockTraceMatchesInterpreter(t *testing.T) {
	prog := hotProgram()
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
		sbE, sbStats, sbBlocks := runTraced(t, c, hotCfg(cfg))

		uncfg := cfg
		uncfg.NoChain = true
		unE, unStats, _ := runTraced(t, c, uncfg)

		m := mem.New()
		if _, err := c.LoadGuest(m); err != nil {
			t.Fatal(err)
		}
		got := expandTrace(t, m, sbBlocks)
		if len(got) != len(want) {
			t.Fatalf("%s: superblock trace length %d, want %d", label, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: trace[%d] = %#x, want %#x", label, i, got[i], want[i])
			}
		}

		if sbStats.TracesFormed == 0 || sbStats.SuperblockExecs == 0 {
			t.Fatalf("%s: no superblocks formed/executed: %+v", label, sbStats)
		}
		// Prefix-sum accounting: guest instruction counts must be exact
		// even when runs side-exit partway through a trace.
		if sbStats.GuestExec != uint64(len(want)) {
			t.Fatalf("%s: GuestExec = %d, interpreter retired %d", label, sbStats.GuestExec, len(want))
		}
		if sbStats.SideExits == 0 {
			t.Fatalf("%s: no superblock execution side-exited: %+v", label, sbStats)
		}
		if sbStats.GuestExec != unStats.GuestExec || sbStats.Coverage() != unStats.Coverage() ||
			sbStats.SeqRuleUses != unStats.SeqRuleUses || !maps.Equal(sbE.UncoveredOps(), unE.UncoveredOps()) {
			t.Fatalf("%s: superblock/unchained stats differ: %+v vs %+v", label, sbStats, unStats)
		}
		if sbSt, unSt := sbE.GuestState(), unE.GuestState(); sbSt.R[guest.R0] != unSt.R[guest.R0] || sbSt.R[guest.SP] != unSt.R[guest.SP] {
			t.Fatalf("%s: superblock/unchained final state differs", label)
		}
		if sbStats.SuperblockShare() <= 0 {
			t.Fatalf("%s: zero superblock share with %d executions", label, sbStats.SuperblockExecs)
		}
	}
}

// TestBlockListingSuperblockHead: the listing at a superblock's head
// describes the whole unit — a header with the trace's instruction and
// rule-covered counts, the sums of its constituent basic blocks', and
// the disassembly of every constituent — not just the head block.
func TestBlockListingSuperblockHead(t *testing.T) {
	c := compileT(t, hotProgram())
	_, par := learnRules(t, hotProgram(), core.Config{Opcode: true, AddrMode: true})
	e, _ := runEngine(t, c, hotCfg(Config{Rules: par, DelegateFlags: true}))
	traces := 0
	for head, tb := range e.cache {
		if len(tb.segs) < 2 {
			continue
		}
		traces++
		var insts, covered uint64
		var lines []string
		for _, s := range tb.segs {
			b, err := e.tr.translate(e.Mem, s.pc, &txctx{}, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			insts += b.segs[0].nGuest
			covered += b.segs[0].nCovered
			lines = append(lines, strings.Split(strings.TrimSuffix(guest.Disassemble(s.pc, b.segs[0].insts), "\n"), "\n")...)
		}
		s, err := e.BlockListing(head)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("guest block @%#x (%d insts, %d rule-covered):\n", head, insts, covered); !strings.HasPrefix(s, want) {
			t.Errorf("superblock %#x: listing starts %q, want %q", head, s[:strings.IndexByte(s, '\n')+1], want)
		}
		for _, l := range lines {
			if !strings.Contains(s, l+"\n") {
				t.Errorf("superblock %#x: listing lacks %q", head, l)
			}
		}
	}
	if traces == 0 {
		t.Fatal("no superblock formed")
	}
}

// TestSuperblockShadowCleanRun verifies every superblock execution
// against the reference interpreter (ShadowRate 1) and requires zero
// divergences — the acceptance gate for the cross-block optimizations
// (trace-wide allocation, dead flag-store elision, side-exit stubs).
func TestSuperblockShadowCleanRun(t *testing.T) {
	c := compileT(t, hotProgram())
	want := interpret(t, c)
	_, par := learnRules(t, hotProgram(), core.Config{Opcode: true, AddrMode: true})
	got, stats := runProgram(t, c, hotCfg(Config{Rules: par, DelegateFlags: true, ShadowRate: 1}))
	sameResult(t, want, got, "superblock shadow clean")
	if stats.TracesFormed == 0 || stats.SuperblockExecs == 0 {
		t.Fatalf("no superblocks under shadow: %+v", stats)
	}
	if stats.Divergences != 0 || stats.QuarantinedRules != 0 {
		t.Fatalf("superblock run diverged: %d divergences, %d quarantined",
			stats.Divergences, stats.QuarantinedRules)
	}
	if stats.ShadowChecks == 0 {
		t.Fatal("ShadowRate=1 recorded no shadow checks")
	}
}

// TestSuperblockInvalidateMidTrace is the teardown satellite: an
// Invalidate on a pc in the middle of a trace — not its head — must
// tear the whole superblock down (its host code embeds the invalidated
// block's translation), unpatch chaining in and out, and a rerun must
// retranslate and still produce correct results.
func TestSuperblockInvalidateMidTrace(t *testing.T) {
	c := compileT(t, hotProgram())
	want := interpret(t, c)
	_, par := learnRules(t, hotProgram(), core.Config{Opcode: true, AddrMode: true})
	e := startEngine(t, c, hotCfg(Config{Rules: par, DelegateFlags: true}))
	if _, err := e.Run(env.CodeBase, 100_000_000); err != nil {
		t.Fatal(err)
	}

	// Find a mid-trace pc: covered by a superblock whose head is elsewhere.
	var victim uint32
	var sb *tblock
	for pc, list := range e.sbIndex {
		for _, s := range list {
			if s.segs[0].pc != pc {
				victim, sb = pc, s
				break
			}
		}
		if sb != nil {
			break
		}
	}
	if sb == nil {
		t.Fatal("no multi-block superblock formed")
	}
	head := sb.segs[0].pc

	if !e.Invalidate(victim) {
		t.Fatalf("Invalidate(%#x) found nothing", victim)
	}
	if !sb.dead {
		t.Fatal("covering superblock not torn down")
	}
	if cur, ok := e.cache[head]; ok && cur == sb {
		t.Fatal("superblock still installed at its head after mid-trace invalidate")
	}
	for _, sg := range sb.segs {
		for _, s := range e.sbIndex[sg.pc] {
			if s == sb {
				t.Fatalf("sbIndex[%#x] still references the dead superblock", sg.pc)
			}
		}
	}
	for i := range sb.links {
		if sb.links[i].to != nil {
			t.Fatal("superblock outgoing link survived teardown")
		}
	}

	init := &guest.State{Mem: e.Mem}
	init.R[guest.SP] = env.StackTop
	e.SetGuestState(init)
	stats, err := e.Run(env.CodeBase, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, want, e.GuestState(), "after mid-trace invalidate")
	if stats.GuestExec == 0 {
		t.Fatal("rerun retired nothing")
	}
}

// TestSuperblockQuarantinePurge is the quarantine satellite: demoting a
// rule whose host code a superblock embeds must purge that superblock
// (quarantine-driven retranslation cannot leave stale trace code), and
// the rerun — now translating without the rule — must stay correct.
func TestSuperblockQuarantinePurge(t *testing.T) {
	c := compileT(t, hotProgram())
	want := interpret(t, c)
	_, par := learnRules(t, hotProgram(), core.Config{Opcode: true, AddrMode: true})
	e := startEngine(t, c, hotCfg(Config{Rules: par, DelegateFlags: true}))
	if _, err := e.Run(env.CodeBase, 100_000_000); err != nil {
		t.Fatal(err)
	}

	// Pick a rule some installed superblock was built from.
	var sb *tblock
	for _, list := range e.sbIndex {
		for _, s := range list {
			if len(s.rules) > 0 {
				sb = s
				break
			}
		}
		if sb != nil {
			break
		}
	}
	if sb == nil {
		t.Fatal("no superblock built from any rule")
	}
	bad := sb.rules[0]

	if !par.Quarantine(bad, "test demotion") {
		t.Fatal("rule already quarantined")
	}
	e.purgeRules([]*rule.Template{bad})
	if !sb.dead {
		t.Fatal("superblock using the quarantined rule survived the purge")
	}
	for pc, tb := range e.cache {
		for _, r := range tb.rules {
			if r == bad {
				t.Fatalf("cached block at %#x still uses the quarantined rule", pc)
			}
		}
	}

	init := &guest.State{Mem: e.Mem}
	init.R[guest.SP] = env.StackTop
	e.SetGuestState(init)
	if _, err := e.Run(env.CodeBase, 100_000_000); err != nil {
		t.Fatal(err)
	}
	sameResult(t, want, e.GuestState(), "after quarantine purge")
}

// TestSuperblockBackendSwitch runs the same program with superblocks on
// each registered host backend: formation must work through the shared
// Finalize seam (the risc backend legalizes and remaps labels after the
// elision pass rewrote the program) and results must stay correct.
func TestSuperblockBackendSwitch(t *testing.T) {
	c := compileT(t, hotProgram())
	want := interpret(t, c)
	_, par := learnRules(t, hotProgram(), core.Config{Opcode: true, AddrMode: true})
	for _, name := range []string{"x86", "risc"} {
		got, stats := runProgram(t, c, hotCfg(Config{
			Rules: par, DelegateFlags: true,
			Backend: backend.MustLookup(name),
		}))
		sameResult(t, want, got, "superblocks on "+name)
		if stats.TracesFormed == 0 || stats.SuperblockExecs == 0 {
			t.Fatalf("%s: no superblocks: %+v", name, stats)
		}
	}
}

// TestSuperblockSelfLoopBacksOff pins the formation-failure path:
// testProgram's hot loop is one self-looping block, whose trace closes
// its cycle immediately and never grows past the seed. Formation must
// retry with a geometrically raised bar (the 25-iteration loop funds
// the first few rounds: 2+4+8 entries) and leave execution untouched.
func TestSuperblockSelfLoopBacksOff(t *testing.T) {
	c := compileT(t, testProgram())
	want := interpret(t, c)
	_, par := learnRules(t, testProgram(), core.Config{Opcode: true, AddrMode: true})
	e := startEngine(t, c, hotCfg(Config{Rules: par, DelegateFlags: true}))
	stats, err := e.Run(env.CodeBase, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, want, e.GuestState(), "self-loop backoff")
	if stats.TracesFormed != 0 || stats.SuperblockExecs != 0 {
		t.Fatalf("self-looping block formed a trace: %+v", stats)
	}
	var most uint8
	for _, tb := range e.cache {
		if tb.sbTries > most {
			most = tb.sbTries
		}
	}
	if most < 2 {
		t.Fatalf("formation retried %d times; backoff never re-armed", most)
	}
}

// TestEngineStartsNoGoroutines: every translation the engine makes —
// demand misses and hot-trace superblocks — runs on the goroutine
// driving Run, so no block entry ever sees more goroutines than there
// were before New.
func TestEngineStartsNoGoroutines(t *testing.T) {
	c := compileT(t, hotProgram())
	want := interpret(t, c)
	before := runtime.NumGoroutine()
	most := 0
	got, stats := runProgram(t, c, Config{HotThreshold: 2, TraceBlock: func(uint32) {
		most = max(most, runtime.NumGoroutine())
	}})
	sameResult(t, want, got, "no goroutines")
	if most > before {
		t.Fatalf("%d goroutines during Run, %d before New", most, before)
	}
	if stats.TracesFormed == 0 {
		t.Fatalf("no trace formed: %+v", stats)
	}
}

// TestSuperblockConcurrentEnginesRace is the -race stress for trace
// formation: engines with hot-trace profiling and superblock formation
// run concurrently over one shared rule store.
func TestSuperblockConcurrentEnginesRace(t *testing.T) {
	prog := hotProgramN(500)
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
			e := New(m, Config{Rules: par, DelegateFlags: true, HotThreshold: 2})
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
			if stats.GuestExec != wantStats.GuestExec {
				errs <- fmt.Errorf("engine %d: GuestExec %d, want %d", id, stats.GuestExec, wantStats.GuestExec)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
