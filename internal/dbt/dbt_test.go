package dbt

import (
	"reflect"
	"runtime"
	"testing"

	"paramdbt/internal/core"
	"paramdbt/internal/env"
	"paramdbt/internal/guest"
	"paramdbt/internal/learn"
	"paramdbt/internal/mem"
	"paramdbt/internal/minic"
	"paramdbt/internal/rule"
)

// runProgram executes a compiled program under the engine and returns
// the final guest state plus stats.
func runProgram(t *testing.T, c *minic.Compiled, cfg Config) (*guest.State, Stats) {
	t.Helper()
	e, stats := runEngine(t, c, cfg)
	return e.GuestState(), stats
}

// runEngine is runProgram returning the halted engine itself, for tests
// that read its host-instruction totals, translations or UncoveredOps.
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

// interpret runs the oracle.
func interpret(t *testing.T, c *minic.Compiled) *guest.State {
	t.Helper()
	st, err := c.RunInterp(50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// sameResult compares the architectural results that survive a program
// (callee-saved conventions mean caller-visible state: r0, sp, memory).
func sameResult(t *testing.T, want, got *guest.State, label string) {
	t.Helper()
	if want.R[guest.R0] != got.R[guest.R0] {
		t.Fatalf("%s: r0 = %#x, want %#x", label, got.R[guest.R0], want.R[guest.R0])
	}
	if want.R[guest.SP] != got.R[guest.SP] {
		t.Fatalf("%s: sp = %#x, want %#x", label, got.R[guest.SP], want.R[guest.SP])
	}
	for i := 0; i < 256; i++ {
		addr := env.DataBase + uint32(i*4)
		if want.Mem.Read32(addr) != got.Mem.Read32(addr) {
			t.Fatalf("%s: data[%#x] = %#x, want %#x", label, addr,
				got.Mem.Read32(addr), want.Mem.Read32(addr))
		}
	}
}

// testProgram builds a program exercising loops, memory, calls, logic
// ops, flag fusion and an uncovered instruction (clz).
func testProgram() *minic.Program {
	helper := &minic.Func{
		Name: "mix", NArgs: 2, NVars: 4,
		Body: []*minic.Stmt{
			minic.Assign(2, minic.B(minic.OpXor, minic.V(0), minic.V(1))),
			minic.Assign(2, minic.B(minic.OpOr, minic.V(2), minic.C(3))),
			minic.Return(minic.B(minic.OpAdd, minic.V(2), minic.V(1))),
		},
	}
	main := &minic.Func{
		Name: "main", NVars: 5,
		Body: []*minic.Stmt{
			minic.Assign(0, minic.C(0)),
			minic.Assign(1, minic.C(25)),
			minic.Assign(2, minic.C(int32(env.DataBase))),
			minic.While(minic.Cond{Op: minic.CmpNe, L: minic.V(1), R: minic.C(0)}, []*minic.Stmt{
				minic.Assign(0, minic.B(minic.OpAdd, minic.V(0), minic.V(1))),
				minic.Store(minic.B(minic.OpAdd, minic.V(2), minic.C(16)), minic.V(0)),
				minic.Assign(3, minic.LoadE(minic.B(minic.OpAdd, minic.V(2), minic.C(16)))),
				minic.Assign(0, minic.B(minic.OpAnd, minic.V(3), minic.C(255))),
				minic.Assign(1, minic.B(minic.OpSub, minic.V(1), minic.C(1))),
			}),
			minic.Call(4, 1, minic.V(0), minic.C(7)),
			minic.Assign(0, minic.U(minic.OpClz, minic.V(4))),
			minic.If(minic.Cond{Op: minic.CmpGt, L: minic.V(0), R: minic.C(10)},
				[]*minic.Stmt{minic.Assign(0, minic.B(minic.OpShl, minic.V(0), minic.C(1)))},
				[]*minic.Stmt{minic.Assign(0, minic.B(minic.OpAdd, minic.V(0), minic.C(100)))}),
			minic.Return(minic.V(0)),
		},
	}
	return &minic.Program{Funcs: []*minic.Func{main, helper}}
}

// hotProgram's hot loop spans several basic blocks (testProgram's loop
// body is one self-looping block): an if/else whose direction alternates
// on roughly every iteration, and a call into a helper whose indirect
// return goes back through the dispatcher.
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

func compileT(t *testing.T, p *minic.Program) *minic.Compiled {
	t.Helper()
	c, err := minic.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// learnRules compiles a training program and learns+parameterizes rules.
func learnRules(t *testing.T, train *minic.Program, cfg core.Config) (*rule.Store, *rule.Store) {
	t.Helper()
	c := compileT(t, train)
	learned := rule.NewStore()
	learn.FromCompiled(c, learned)
	par, _ := core.Parameterize(learned, cfg)
	return learned, par
}

func TestQEMUModeMatchesInterpreter(t *testing.T) {
	c := compileT(t, testProgram())
	want := interpret(t, c)
	got, stats := runProgram(t, c, Config{})
	sameResult(t, want, got, "qemu mode")
	if stats.RuleCovered != 0 {
		t.Fatalf("pure TCG claims coverage: %+v", stats)
	}
	if stats.GuestExec == 0 || stats.Blocks == 0 {
		t.Fatalf("no execution recorded: %+v", stats)
	}
}

func TestRuleModeMatchesInterpreter(t *testing.T) {
	c := compileT(t, testProgram())
	want := interpret(t, c)
	_, par := learnRules(t, testProgram(), core.Config{Opcode: true, AddrMode: true})
	got, stats := runProgram(t, c, Config{Rules: par, DelegateFlags: true})
	sameResult(t, want, got, "para mode")
	if stats.RuleCovered == 0 {
		t.Fatal("parameterized mode covered nothing")
	}
	cov := stats.Coverage()
	if cov < 0.3 || cov > 1.0 {
		t.Fatalf("implausible coverage %.2f", cov)
	}
}

// trainProgram uses only add/sub/mov idioms, so running testProgram
// (xor, or, and, shifts, fused flags) exercises derivation: the
// cross-program setup the paper's leave-one-out evaluation uses.
func trainProgram() *minic.Program {
	main := &minic.Func{
		Name: "main", NVars: 4,
		Body: []*minic.Stmt{
			minic.Assign(0, minic.C(0)),
			minic.Assign(1, minic.C(12)),
			minic.Assign(2, minic.C(int32(env.DataBase))),
			minic.While(minic.Cond{Op: minic.CmpNe, L: minic.V(1), R: minic.C(0)}, []*minic.Stmt{
				minic.Assign(0, minic.B(minic.OpAdd, minic.V(0), minic.V(1))),
				minic.Store(minic.B(minic.OpAdd, minic.V(2), minic.C(4)), minic.V(0)),
				minic.Assign(3, minic.LoadE(minic.B(minic.OpAdd, minic.V(2), minic.C(4)))),
				minic.Assign(0, minic.B(minic.OpAdd, minic.V(3), minic.C(1))),
				minic.Assign(1, minic.B(minic.OpSub, minic.V(1), minic.C(1))),
			}),
			minic.Return(minic.V(0)),
		},
	}
	return &minic.Program{Funcs: []*minic.Func{main}}
}

func TestCoverageOrdering(t *testing.T) {
	// The paper's central result: coverage(w/o para) <= coverage(+opcode)
	// <= coverage(+mode) <= coverage(+flags), and para beats baseline.
	c := compileT(t, testProgram())
	learned, _ := learnRules(t, trainProgram(), core.Config{})
	opOnly, _ := core.Parameterize(learned, core.Config{Opcode: true})
	full, _ := core.Parameterize(learned, core.Config{Opcode: true, AddrMode: true})

	_, sBase := runProgram(t, c, Config{Rules: learned})
	_, sOp := runProgram(t, c, Config{Rules: opOnly})
	_, sMode := runProgram(t, c, Config{Rules: full})
	_, sFlags := runProgram(t, c, Config{Rules: full, DelegateFlags: true})

	covs := []float64{sBase.Coverage(), sOp.Coverage(), sMode.Coverage(), sFlags.Coverage()}
	for i := 1; i < len(covs); i++ {
		if covs[i]+1e-9 < covs[i-1] {
			t.Fatalf("coverage not monotone: %v", covs)
		}
	}
	if covs[3] <= covs[0] {
		t.Fatalf("full parameterization did not improve coverage: %v", covs)
	}
}

func TestPerformanceOrdering(t *testing.T) {
	// Host instructions executed: qemu >= w/o para >= para.
	c := compileT(t, testProgram())
	learned, par := learnRules(t, testProgram(), core.Config{Opcode: true, AddrMode: true})

	run := func(cfg Config) uint64 {
		m := mem.New()
		if _, err := c.LoadGuest(m); err != nil {
			t.Fatal(err)
		}
		e := New(m, cfg)
		init := &guest.State{Mem: m}
		init.R[guest.SP] = env.StackTop
		e.SetGuestState(init)
		if _, err := e.Run(env.CodeBase, 100_000_000); err != nil {
			t.Fatal(err)
		}
		return e.CPU.Total()
	}
	qemu := run(Config{})
	base := run(Config{Rules: learned})
	paraN := run(Config{Rules: par, DelegateFlags: true})
	if !(qemu >= base && base >= paraN) {
		t.Fatalf("host inst counts not ordered: qemu=%d w/o=%d para=%d", qemu, base, paraN)
	}
	if paraN >= qemu {
		t.Fatalf("parameterization did not speed up: qemu=%d para=%d", qemu, paraN)
	}
}

func TestDelegationUsedAndSound(t *testing.T) {
	// A tight countdown loop must run correctly with delegation on; the
	// subs+bne pair is the canonical delegated pattern.
	main := &minic.Func{
		Name: "main", NVars: 2,
		Body: []*minic.Stmt{
			minic.Assign(0, minic.C(0)),
			minic.Assign(1, minic.C(1000)),
			minic.While(minic.Cond{Op: minic.CmpNe, L: minic.V(1), R: minic.C(0)}, []*minic.Stmt{
				minic.Assign(0, minic.B(minic.OpAdd, minic.V(0), minic.V(1))),
				minic.Assign(1, minic.B(minic.OpSub, minic.V(1), minic.C(1))),
			}),
			minic.Return(minic.V(0)),
		},
	}
	p := &minic.Program{Funcs: []*minic.Func{main}}
	c := compileT(t, p)
	want := interpret(t, c)
	_, par := learnRules(t, p, core.Config{Opcode: true, AddrMode: true})

	gotOn, sOn := runProgram(t, c, Config{Rules: par, DelegateFlags: true})
	sameResult(t, want, gotOn, "delegation on")
	gotOff, sOff := runProgram(t, c, Config{Rules: par, DelegateFlags: false})
	sameResult(t, want, gotOff, "delegation off")
	if sOn.Coverage() < sOff.Coverage() {
		t.Fatalf("delegation reduced coverage: on=%.3f off=%.3f", sOn.Coverage(), sOff.Coverage())
	}
}

func TestSignedConditionsViaDelegation(t *testing.T) {
	// Exercise LT/GE delegation paths with negative values.
	main := &minic.Func{
		Name: "main", NVars: 3,
		Body: []*minic.Stmt{
			minic.Assign(0, minic.C(0)),
			minic.Assign(1, minic.C(20)),
			minic.While(minic.Cond{Op: minic.CmpGe, L: minic.V(1), R: minic.C(0)}, []*minic.Stmt{
				minic.Assign(0, minic.B(minic.OpAdd, minic.V(0), minic.C(2))),
				minic.Assign(1, minic.B(minic.OpSub, minic.V(1), minic.C(3))),
			}),
			minic.Return(minic.V(0)),
		},
	}
	p := &minic.Program{Funcs: []*minic.Func{main}}
	c := compileT(t, p)
	want := interpret(t, c)
	_, par := learnRules(t, p, core.Config{Opcode: true, AddrMode: true})
	got, _ := runProgram(t, c, Config{Rules: par, DelegateFlags: true})
	sameResult(t, want, got, "signed conds")
}

func TestCategoryBreakdownPresent(t *testing.T) {
	c := compileT(t, testProgram())
	m := mem.New()
	if _, err := c.LoadGuest(m); err != nil {
		t.Fatal(err)
	}
	_, par := learnRules(t, testProgram(), core.Config{Opcode: true, AddrMode: true})
	e := New(m, Config{Rules: par, DelegateFlags: true})
	init := &guest.State{Mem: m}
	init.R[guest.SP] = env.StackTop
	e.SetGuestState(init)
	if _, err := e.Run(env.CodeBase, 100_000_000); err != nil {
		t.Fatal(err)
	}
	ex := e.CPU.Executed
	if ex[0] == 0 || ex[1] == 0 || ex[2] == 0 {
		t.Fatalf("missing category counts: %v", ex)
	}
}

func TestCodeCacheReuse(t *testing.T) {
	c := compileT(t, testProgram())
	m := mem.New()
	if _, err := c.LoadGuest(m); err != nil {
		t.Fatal(err)
	}
	e := New(m, Config{})
	init := &guest.State{Mem: m}
	init.R[guest.SP] = env.StackTop
	e.SetGuestState(init)
	stats, err := e.Run(env.CodeBase, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	// The 25-iteration loop must not retranslate its body.
	if uint64(stats.Blocks) >= stats.GuestExec/2 {
		t.Fatalf("code cache ineffective: %d blocks for %d guest insts", stats.Blocks, stats.GuestExec)
	}
}

// TestEngineStartsNoGoroutines: every block the engine translates is
// translated on the goroutine driving Run, so no goroutine appears
// while it runs.
func TestEngineStartsNoGoroutines(t *testing.T) {
	c := compileT(t, hotProgram())
	want := interpret(t, c)
	before := runtime.NumGoroutine()
	most := 0
	got, stats := runProgram(t, c, Config{TraceBlock: func(uint32) {
		most = max(most, runtime.NumGoroutine())
	}})
	sameResult(t, want, got, "no goroutines")
	if most > before {
		t.Fatalf("%d goroutines during Run, %d before New", most, before)
	}
	if stats.Translations == 0 {
		t.Fatalf("nothing translated: %+v", stats)
	}
}

// TestBenchOnlyFieldsAreInert pins what the bench's superblock and
// workers4 arms measure: HotThreshold, TraceBudget, SyncTraces and
// TranslateWorkers are ignored, so a run that sets them is the run that
// does not — the same guest result, Stats and installed translations.
func TestBenchOnlyFieldsAreInert(t *testing.T) {
	c := compileT(t, hotProgram())
	run := func(cfg Config) (*guest.State, Stats, []Translation) {
		e, st := runEngine(t, c, cfg)
		return e.GuestState(), st, e.Translations()
	}
	wantState, wantStats, wantTs := run(Config{})
	gotState, gotStats, gotTs := run(Config{HotThreshold: 4, TraceBudget: 12, SyncTraces: true, TranslateWorkers: 4})
	if gotState.R != wantState.R || gotState.Flags != wantState.Flags {
		t.Fatalf("guest state\n%swant\n%s", gotState.Snapshot(), wantState.Snapshot())
	}
	if d := wantState.Mem.DiffBelow(gotState.Mem, env.StateBase, 1); len(d) > 0 {
		t.Fatalf("guest memory differs at %#x", d[0])
	}
	if gotStats != wantStats {
		t.Fatalf("stats\n%+v\nwant\n%+v", gotStats, wantStats)
	}
	if len(gotTs) != len(wantTs) {
		t.Fatalf("%d translations, want %d", len(gotTs), len(wantTs))
	}
	for i, w := range wantTs {
		g := gotTs[i]
		if g.PC != w.PC || !reflect.DeepEqual(g.Insts, w.Insts) || g.FlagsExact != w.FlagsExact || g.Host.Listing() != w.Host.Listing() {
			t.Fatalf("translation %d: pc %#x, want %#x, or its guest block, flags or host code differ", i, g.PC, w.PC)
		}
	}
}
