package minic

import (
	"testing"

	"paramdbt/internal/env"
	"paramdbt/internal/guest"
	"paramdbt/internal/host"
)

// prog1 computes gauss sum 1..n via a loop, then stores the result.
func prog1() *Program {
	// main: v0 = result var (escapes), v1 = i, v2 = base
	main := &Func{
		Name:  "main",
		NVars: 4,
		Body: []*Stmt{
			Assign(0, C(0)),
			Assign(1, C(10)),
			While(Cond{Op: CmpNe, L: V(1), R: C(0)}, []*Stmt{
				Assign(0, B(OpAdd, V(0), V(1))),
				Assign(1, B(OpSub, V(1), C(1))),
			}),
			Assign(2, C(int32(env.DataBase))),
			Store(B(OpAdd, V(2), C(4)), V(0)),
			Return(V(0)),
		},
	}
	return &Program{Funcs: []*Func{main}}
}

func TestCompileAndInterpret(t *testing.T) {
	c, err := Compile(prog1())
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.RunInterp(100000)
	if err != nil {
		t.Fatal(err)
	}
	if st.R[guest.R0] != 55 {
		t.Fatalf("result = %d, want 55", st.R[guest.R0])
	}
	if got := st.Mem.Read32(env.DataBase + 4); got != 55 {
		t.Fatalf("stored = %d, want 55", got)
	}
}

func TestCallsWork(t *testing.T) {
	// f(a,b) = a*2 + b; main: v0 = f(3,4) => 10
	f := &Func{
		Name:  "f",
		NArgs: 2,
		NVars: 3,
		Body: []*Stmt{
			Assign(2, B(OpMul, V(0), C(2))),
			Return(B(OpAdd, V(2), V(1))),
		},
	}
	main := &Func{
		Name:  "main",
		NVars: 1,
		Body: []*Stmt{
			Call(0, 1, C(3), C(4)),
			Return(V(0)),
		},
	}
	c, err := Compile(&Program{Funcs: []*Func{main, f}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.RunInterp(100000)
	if err != nil {
		t.Fatal(err)
	}
	if st.R[guest.R0] != 10 {
		t.Fatalf("f(3,4) = %d, want 10", st.R[guest.R0])
	}
}

func TestIfElse(t *testing.T) {
	main := &Func{
		Name:  "main",
		NVars: 2,
		Body: []*Stmt{
			Assign(1, C(7)),
			If(Cond{Op: CmpGt, L: V(1), R: C(5)},
				[]*Stmt{Assign(0, C(1))},
				[]*Stmt{Assign(0, C(2))}),
			Return(V(0)),
		},
	}
	c, err := Compile(&Program{Funcs: []*Func{main}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.RunInterp(10000)
	if err != nil {
		t.Fatal(err)
	}
	if st.R[guest.R0] != 1 {
		t.Fatalf("if result = %d", st.R[guest.R0])
	}
}

func TestSpilledVariables(t *testing.T) {
	// More variables than local registers forces stack slots on both
	// sides; the program must still compute correctly.
	body := []*Stmt{}
	for v := 0; v < 10; v++ {
		body = append(body, Assign(v, C(int32(v+1))))
	}
	sum := Assign(0, V(0))
	body = append(body, sum)
	for v := 1; v < 10; v++ {
		body = append(body, Assign(0, B(OpAdd, V(0), V(v))))
	}
	body = append(body, Return(V(0)))
	main := &Func{Name: "main", NVars: 10, Body: body}
	c, err := Compile(&Program{Funcs: []*Func{main}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.RunInterp(10000)
	if err != nil {
		t.Fatal(err)
	}
	if st.R[guest.R0] != 55 {
		t.Fatalf("spilled sum = %d, want 55", st.R[guest.R0])
	}
}

func TestOptimizerFoldsAndEliminates(t *testing.T) {
	main := &Func{
		Name:  "main",
		NVars: 4,
		Body: []*Stmt{
			Assign(1, B(OpAdd, C(2), C(3))), // folds to 5
			Assign(2, C(99)),                // dead: v2 never read
			Assign(0, B(OpMul, V(1), C(4))),
			Return(V(0)),
		},
	}
	p := &Program{Funcs: []*Func{main}}
	c, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	if c.Opt.Folded == 0 {
		t.Error("no constant folding recorded")
	}
	if c.Opt.Eliminated == 0 {
		t.Error("dead store not eliminated")
	}
	st, err := c.RunInterp(10000)
	if err != nil {
		t.Fatal(err)
	}
	if st.R[guest.R0] != 20 {
		t.Fatalf("result = %d, want 20", st.R[guest.R0])
	}
}

func TestOptimizerMergesStatements(t *testing.T) {
	// v3 = v1 ^ v2 ; v0 = v3 + 1 with v3 otherwise unused merges.
	main := &Func{
		Name:  "main",
		NVars: 4,
		Body: []*Stmt{
			Assign(1, C(6)),
			Assign(2, C(3)),
			Assign(3, B(OpXor, V(1), V(2))),
			Assign(0, B(OpAdd, V(3), C(1))),
			Return(V(0)),
		},
	}
	c, err := Compile(&Program{Funcs: []*Func{main}})
	if err != nil {
		t.Fatal(err)
	}
	if c.Opt.Merged == 0 {
		t.Error("no statement merging")
	}
	if len(c.Gone) == 0 {
		t.Error("merged statement not marked gone")
	}
	st, err := c.RunInterp(10000)
	if err != nil {
		t.Fatal(err)
	}
	if st.R[guest.R0] != 6 { // (6^3)+1 = 5+1
		t.Fatalf("result = %d, want 6", st.R[guest.R0])
	}
}

func TestFlagFusionEmitsSBit(t *testing.T) {
	c, err := Compile(prog1())
	if err != nil {
		t.Fatal(err)
	}
	foundS := false
	for _, in := range c.GuestInsts {
		if in.S && in.Op == guest.SUB {
			foundS = true
		}
	}
	if !foundS {
		t.Fatal("loop decrement not fused into subs")
	}
	// The host side must have elided the matching compare via Jcc after
	// the subl.
	hf, err := GenHost(c.Funcs[0].Fn, 0)
	if err != nil {
		t.Fatal(err)
	}
	fusedJcc := false
	for i := 1; i < len(hf.Insts); i++ {
		if hf.Insts[i].Op == host.JCC && hf.Insts[i-1].Op == host.SUBL {
			fusedJcc = true
		}
	}
	if !fusedJcc {
		t.Fatal("host compare not elided after subl")
	}
}

func TestLineTablePairsExist(t *testing.T) {
	c, err := Compile(prog1())
	if err != nil {
		t.Fatal(err)
	}
	cf := c.Funcs[0]
	hf, err := GenHost(cf.Fn, 0)
	if err != nil {
		t.Fatal(err)
	}
	pairs := ZipEntries(cf.G.Entries, hf.Entries)
	if len(pairs) == 0 {
		t.Fatal("empty line table")
	}
	for _, p := range pairs {
		if p.G.End <= p.G.Start || p.G.End > len(cf.G.Insts) {
			t.Fatalf("bad guest interval %+v", p)
		}
		if p.H.End <= p.H.Start || p.H.End > len(hf.Insts) {
			t.Fatalf("bad host interval %+v", p)
		}
	}
}

func TestVarLocations(t *testing.T) {
	c, err := Compile(prog1())
	if err != nil {
		t.Fatal(err)
	}
	hf, err := GenHost(c.Funcs[0].Fn, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := c.Funcs[0].G.Locs
	h := hf.Locs
	if !g[0].InReg || g[0].Reg != guest.R4 {
		t.Fatalf("guest v0 loc = %+v", g[0])
	}
	if !h[0].InReg || h[0].Reg != host.EBX {
		t.Fatalf("host v0 loc = %+v", h[0])
	}
	// v3 still fits the host's 4 register homes (ebp included); only v4+
	// spill there, while the guest keeps 6 register homes.
	if !g[3].InReg || !h[3].InReg {
		t.Fatalf("v3 locations: guest %+v host %+v", g[3], h[3])
	}
}

func TestLargeConstantMaterialization(t *testing.T) {
	main := &Func{
		Name:  "main",
		NVars: 1,
		Body: []*Stmt{
			Assign(0, C(0x12345678)),
			Return(V(0)),
		},
	}
	c, err := Compile(&Program{Funcs: []*Func{main}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.RunInterp(10000)
	if err != nil {
		t.Fatal(err)
	}
	if st.R[guest.R0] != 0x12345678 {
		t.Fatalf("const = %#x", st.R[guest.R0])
	}
	// Negative constants use mvn.
	main2 := &Func{
		Name:  "main",
		NVars: 1,
		Body:  []*Stmt{Assign(0, C(-5)), Return(V(0))},
	}
	c2, err := Compile(&Program{Funcs: []*Func{main2}})
	if err != nil {
		t.Fatal(err)
	}
	st2, err := c2.RunInterp(10000)
	if err != nil {
		t.Fatal(err)
	}
	if int32(st2.R[guest.R0]) != -5 {
		t.Fatalf("neg const = %d", int32(st2.R[guest.R0]))
	}
}

func TestAllBinOpsCompileAndRun(t *testing.T) {
	// Each operator applied to fixed values; compare interpreter result
	// with the language's reference semantics.
	for op := BinOp(0); op < BinOp(NumBinOps); op++ {
		l, r := int32(23), int32(3)
		main := &Func{
			Name:  "main",
			NVars: 3,
			Body: []*Stmt{
				Assign(1, C(l)),
				Assign(2, C(r)),
				Assign(0, B(op, V(1), V(2))),
				Return(V(0)),
			},
		}
		c, err := Compile(&Program{Funcs: []*Func{main}})
		if err != nil {
			t.Fatalf("op %v: %v", op, err)
		}
		st, err := c.RunInterp(10000)
		if err != nil {
			t.Fatalf("op %v: %v", op, err)
		}
		want := uint32(evalBin(op, l, r))
		if st.R[guest.R0] != want {
			t.Fatalf("op %v: got %#x, want %#x", op, st.R[guest.R0], want)
		}
	}
}

func TestUnaryOpsCompileAndRun(t *testing.T) {
	cases := []struct {
		op   UnOp
		in   int32
		want uint32
	}{
		{OpNot, 5, ^uint32(5)},
		{OpNeg, 5, uint32(0xfffffffb)},
		{OpClz, 0x00010000, 15},
	}
	for _, cse := range cases {
		main := &Func{
			Name:  "main",
			NVars: 2,
			Body: []*Stmt{
				Assign(1, C(cse.in)),
				Assign(0, U(cse.op, V(1))),
				Return(V(0)),
			},
		}
		c, err := Compile(&Program{Funcs: []*Func{main}})
		if err != nil {
			t.Fatal(err)
		}
		st, err := c.RunInterp(10000)
		if err != nil {
			t.Fatal(err)
		}
		if st.R[guest.R0] != cse.want {
			t.Fatalf("unop %v: got %#x, want %#x", cse.op, st.R[guest.R0], cse.want)
		}
	}
}

func TestByteLoadStore(t *testing.T) {
	main := &Func{
		Name:  "main",
		NVars: 3,
		Body: []*Stmt{
			Assign(1, C(int32(env.DataBase))),
			Assign(2, C(0x1ff)),
			StoreB(B(OpAdd, V(1), C(2)), V(2)),
			Assign(0, LoadB(B(OpAdd, V(1), C(2)))),
			Return(V(0)),
		},
	}
	c, err := Compile(&Program{Funcs: []*Func{main}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.RunInterp(10000)
	if err != nil {
		t.Fatal(err)
	}
	if st.R[guest.R0] != 0xff {
		t.Fatalf("byte round trip = %#x", st.R[guest.R0])
	}
}
