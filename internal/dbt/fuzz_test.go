package dbt

import (
	"testing"

	"paramdbt/internal/core"
	"paramdbt/internal/env"
	"paramdbt/internal/guest"
	"paramdbt/internal/learn"
	"paramdbt/internal/minic"
	"paramdbt/internal/rule"
	"paramdbt/internal/workload"
)

// TestManualABIReachesFullCoverage checks the §V-B2 extension: with the
// hand-written translations added, coverage approaches 100% and results
// stay correct.
func TestManualABIReachesFullCoverage(t *testing.T) {
	c := compileT(t, testProgram())
	want := interpret(t, c)
	_, par := learnRules(t, trainProgram(), core.Config{Opcode: true, AddrMode: true})

	got, stats := runProgram(t, c, Config{Rules: par, DelegateFlags: true, ManualABI: true})
	sameResult(t, want, got, "manual abi")
	_, plain := runProgram(t, c, Config{Rules: par, DelegateFlags: true})
	if stats.Coverage() <= plain.Coverage() {
		t.Fatalf("manual rules did not raise coverage: %.3f vs %.3f",
			stats.Coverage(), plain.Coverage())
	}
	if stats.Coverage() < 0.98 {
		t.Fatalf("manual coverage below 98%%: %.3f", stats.Coverage())
	}
	// Only the hlt terminator (and nothing ABI-related) may remain.
	for op := range stats.UncoveredOps {
		switch op {
		case guest.HLT:
		case guest.CLZ, guest.MLA, guest.UMLA, guest.PUSH, guest.POP,
			guest.B, guest.BL, guest.BX:
			t.Fatalf("%v still uncovered under ManualABI", op)
		}
	}
}

// TestManualPushPopCorrect pins the hand-written stack recipes against
// the interpreter with values that stress ordering.
func TestManualPushPopCorrect(t *testing.T) {
	main := &minic.Func{
		Name: "main", NVars: 2,
		Body: []*minic.Stmt{
			minic.Call(0, 1, minic.C(11), minic.C(31)),
			minic.Call(1, 1, minic.V(0), minic.C(5)),
			minic.Assign(0, minic.B(minic.OpAdd, minic.V(0), minic.V(1))),
			minic.Return(minic.V(0)),
		},
	}
	callee := &minic.Func{
		Name: "f", NArgs: 2, NVars: 5,
		Body: []*minic.Stmt{
			minic.Assign(2, minic.B(minic.OpMul, minic.V(0), minic.C(3))),
			minic.Assign(3, minic.B(minic.OpXor, minic.V(2), minic.V(1))),
			minic.Assign(4, minic.B(minic.OpSub, minic.V(3), minic.V(0))),
			minic.Return(minic.V(4)),
		},
	}
	c := compileT(t, &minic.Program{Funcs: []*minic.Func{main, callee}})
	want := interpret(t, c)
	got, stats := runProgram(t, c, Config{ManualABI: true})
	sameResult(t, want, got, "manual push/pop")
	if stats.UncoveredOps[guest.PUSH] != 0 || stats.UncoveredOps[guest.POP] != 0 {
		t.Fatal("push/pop still emulated")
	}
}

// TestFuzzDifferential is the system-level fuzz: randomly generated
// workload programs (fresh seeds, never used in training) run under
// every engine configuration and must agree with the interpreter on the
// caller-visible state.
func TestFuzzDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz differential is slow")
	}
	// Train once on the standard suite.
	trainStore := rule.NewStore()
	for _, b := range workload.All(1)[:6] {
		cp, err := minic.Compile(b.Prog)
		if err != nil {
			t.Fatal(err)
		}
		learn.FromCompiled(cp, trainStore)
	}
	par, _ := core.Parameterize(trainStore, core.Config{Opcode: true, AddrMode: true})

	configs := []struct {
		name string
		cfg  Config
	}{
		{"qemu", Config{}},
		{"learned", Config{Rules: trainStore}},
		{"para", Config{Rules: par, DelegateFlags: true}},
		{"para-manual", Config{Rules: par, DelegateFlags: true, ManualABI: true}},
	}

	// Fresh programs: mutate profiles with unseen seeds and op mixes.
	base := workload.Profiles
	for trial := 0; trial < 8; trial++ {
		p := base[trial%len(base)]
		p.Seed = int64(9000 + trial*13)
		p.Name = "fuzz"
		p.Funcs = 3 + trial%3
		p.HotIters = 2 + trial%3
		p.InnerIter = 10 + trial*3
		prog := workload.Generate(p, 1)
		c, err := minic.Compile(prog)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := c.RunInterp(80_000_000)
		if err != nil {
			t.Fatalf("trial %d: interp: %v", trial, err)
		}
		for _, cc := range configs {
			got, _ := runProgram(t, c, cc.cfg)
			if want.R[guest.R0] != got.R[guest.R0] {
				t.Fatalf("trial %d cfg %s: r0 = %#x, want %#x",
					trial, cc.name, got.R[guest.R0], want.R[guest.R0])
			}
			if want.R[guest.SP] != got.R[guest.SP] {
				t.Fatalf("trial %d cfg %s: sp mismatch", trial, cc.name)
			}
			for i := 0; i < 128; i++ {
				addr := env.DataBase + uint32(i*4)
				if want.Mem.Read32(addr) != got.Mem.Read32(addr) {
					t.Fatalf("trial %d cfg %s: data[%#x] mismatch", trial, cc.name, addr)
				}
			}
		}
	}
}
