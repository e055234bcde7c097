package dbt

import (
	"fmt"
	"sync"
	"testing"
	"time"

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
	// Synchronous formation: these tests assert exact formation timing
	// and post-run cache shape, which the background builder makes
	// schedule-dependent. Async coverage lives in
	// TestSuperblockAsyncFormation and the concurrent-engines race test.
	cfg.SyncTraces = true
	return cfg
}

// hotProgram is built for trace formation: its hot loop spans several
// basic blocks (testProgram's loop body is one self-looping block, which
// by design never grows a trace — the cycle closes immediately). The
// if/else makes a conditional seam whose off-trace direction side-exits
// mid-trace on roughly alternating iterations, and the call adds a BL
// seam into the helper, whose indirect return ends trace growth.
func hotProgram() *minic.Program { return hotProgramN(60) }

// hotProgramN is hotProgram with a configurable iteration count: the
// async tests need the loop to run long enough that the background
// builder always installs its superblock well before the run ends.
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
// configuration, and traces must actually form and execute.
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
		sbSt, sbStats, sbBlocks := runTraced(t, c, hotCfg(cfg))

		uncfg := cfg
		uncfg.NoChain = true
		unSt, unStats, _ := runTraced(t, c, uncfg)

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
		if sbStats.GuestExec != unStats.GuestExec || sbStats.Coverage() != unStats.Coverage() {
			t.Fatalf("%s: superblock/unchained stats differ: %+v vs %+v", label, sbStats, unStats)
		}
		if sbSt.R[guest.R0] != unSt.R[guest.R0] || sbSt.R[guest.SP] != unSt.R[guest.SP] {
			t.Fatalf("%s: superblock/unchained final state differs", label)
		}
		if sbStats.SuperblockShare() <= 0 {
			t.Fatalf("%s: zero superblock share with %d executions", label, sbStats.SuperblockExecs)
		}
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
			if s.sb.pcs[0] != pc {
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
	head := sb.sb.pcs[0]

	if !e.Invalidate(victim) {
		t.Fatalf("Invalidate(%#x) found nothing", victim)
	}
	if !sb.sb.dead {
		t.Fatal("covering superblock not torn down")
	}
	if cur, ok := e.cache.get(head); ok && cur == sb {
		t.Fatal("superblock still installed at its head after mid-trace invalidate")
	}
	for _, pc := range sb.sb.pcs {
		for _, s := range e.sbIndex[pc] {
			if s == sb {
				t.Fatalf("sbIndex[%#x] still references the dead superblock", pc)
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
	if !sb.sb.dead {
		t.Fatal("superblock using the quarantined rule survived the purge")
	}
	e.cache.each(func(pc uint32, tb *tblock) {
		for _, r := range tb.rules {
			if r == bad {
				t.Fatalf("cached block at %#x still uses the quarantined rule", pc)
			}
		}
	})

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
	e.cache.each(func(pc uint32, tb *tblock) {
		if tb.sbTries > most {
			most = tb.sbTries
		}
	})
	if most < 2 {
		t.Fatalf("formation retried %d times; backoff never re-armed", most)
	}
}

// TestSuperblockAsyncFormation covers the default (background) path:
// trace translation runs on the builder goroutine while dispatch keeps
// executing, and the finished superblock is installed at a later
// dispatch. Install timing is schedule-dependent and the install window
// is the run's wall-clock length, which depends on how fast the host
// simulator is and on what else the machine is doing — so the window is
// not sized in guest iterations: the loop is rerun four times longer
// each attempt until a trace was installed and executed, or a wall-clock
// deadline passes. Every attempt, installed or not, must match the
// unchained engine's guest-visible result, retired-instruction count
// and coverage exactly.
func TestSuperblockAsyncFormation(t *testing.T) {
	// 512000 iterations is the longest loop that fits runProgram's host
	// step budget; at the reference simulator speed it runs for about a
	// second, a thousand times a superblock build.
	const firstIters, lastIters = 2000, 512000
	deadline := time.Now().Add(time.Minute)
	for iters := int32(firstIters); ; iters *= 4 {
		prog := hotProgramN(iters)
		c := compileT(t, prog)
		_, par := learnRules(t, prog, core.Config{Opcode: true, AddrMode: true})

		uncfg := Config{Rules: par, DelegateFlags: true, NoChain: true}
		want, wantStats := runProgram(t, c, uncfg)

		async := Config{Rules: par, DelegateFlags: true, HotThreshold: 2}
		got, stats := runProgram(t, c, async)
		sameResult(t, want, got, "async formation")
		if stats.GuestExec != wantStats.GuestExec {
			t.Fatalf("GuestExec = %d, unchained retired %d", stats.GuestExec, wantStats.GuestExec)
		}
		if stats.Coverage() != wantStats.Coverage() {
			t.Fatalf("coverage %f, unchained %f", stats.Coverage(), wantStats.Coverage())
		}
		if stats.TracesFormed > 0 && stats.SuperblockExecs > 0 {
			return
		}
		if iters >= lastIters || time.Now().After(deadline) {
			t.Fatalf("background builder never installed a trace in a %d-iteration run: %+v", iters, stats)
		}
	}
}

// TestSuperblockConcurrentEnginesRace is the -race stress for the new
// machinery: engines with background translation workers, hot-trace
// profiling, and the background superblock builder run concurrently
// over one shared rule store, so edge-hit profiling and install (Run
// goroutine) overlap speculative translation (workers) and trace
// translation (builder goroutine) on each engine.
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
			// Async formation on purpose: no SyncTraces, so the builder
			// goroutine races the dispatch loop under -race here.
			e := New(m, Config{Rules: par, DelegateFlags: true, TranslateWorkers: 2, HotThreshold: 2})
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
