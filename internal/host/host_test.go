package host

import (
	"fmt"
	"testing"
	"testing/quick"

	"paramdbt/internal/mem"
)

func run(t *testing.T, setup func(*CPU), insts ...Inst) *CPU {
	t.Helper()
	c := NewCPU(mem.New())
	if setup != nil {
		setup(c)
	}
	insts = append(insts, Exit(Imm(0)))
	b := NewBlock(insts, map[int]int{})
	if _, err := c.Exec(b, 10000); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestMovAddSub(t *testing.T) {
	c := run(t, nil,
		I(MOVL, R(EAX), Imm(10)),
		I(MOVL, R(ECX), Imm(3)),
		I(ADDL, R(EAX), R(ECX)),
		I(SUBL, R(EAX), Imm(1)),
	)
	if c.R[EAX] != 12 {
		t.Fatalf("eax = %d, want 12", c.R[EAX])
	}
}

func TestSubSetsBorrowCF(t *testing.T) {
	c := run(t, nil,
		I(MOVL, R(EAX), Imm(3)),
		I(CMPL, R(EAX), Imm(5)),
	)
	if !c.Flags.CF {
		t.Fatal("3-5 should set CF (borrow) on x86")
	}
	c = run(t, nil,
		I(MOVL, R(EAX), Imm(5)),
		I(CMPL, R(EAX), Imm(3)),
	)
	if c.Flags.CF {
		t.Fatal("5-3 should clear CF on x86")
	}
}

func TestMemOperands(t *testing.T) {
	c := run(t, func(c *CPU) { c.R[EBX] = 0x4000; c.R[ESI] = 2 },
		I(MOVL, Mem(EBX, 8), Imm(77)),
		I(MOVL, R(EAX), Mem(EBX, 8)),
		I(MOVL, R(EDX), MemIdx(EBX, ESI, 4, 0)), // 0x4000 + 2*4 = 0x4008
		I(LEAL, R(ECX), MemIdx(EBX, ESI, 4, 8)),
	)
	if c.R[EAX] != 77 || c.R[EDX] != 77 {
		t.Fatalf("eax=%d edx=%d", c.R[EAX], c.R[EDX])
	}
	if c.R[ECX] != 0x4010 {
		t.Fatalf("lea = %#x", c.R[ECX])
	}
}

func TestJccLoop(t *testing.T) {
	// sum 1..10
	const lblLoop = 1
	insts := []Inst{
		I(MOVL, R(EAX), Imm(0)),
		I(MOVL, R(ECX), Imm(10)),
		// loop:
		I(ADDL, R(EAX), R(ECX)),
		I(SUBL, R(ECX), Imm(1)),
		Jcc(NE, lblLoop),
		Exit(Imm(0)),
	}
	c := NewCPU(mem.New())
	b := NewBlock(insts, map[int]int{lblLoop: 2})
	if _, err := c.Exec(b, 1000); err != nil {
		t.Fatal(err)
	}
	if c.R[EAX] != 55 {
		t.Fatalf("eax = %d, want 55", c.R[EAX])
	}
}

func TestPushPop(t *testing.T) {
	c := run(t, func(c *CPU) { c.R[ESP] = 0x8000 },
		I(MOVL, R(EAX), Imm(42)),
		I1(PUSHL, R(EAX)),
		I(MOVL, R(EAX), Imm(0)),
		I1(POPL, R(ECX)),
	)
	if c.R[ECX] != 42 || c.R[ESP] != 0x8000 {
		t.Fatalf("ecx=%d esp=%#x", c.R[ECX], c.R[ESP])
	}
}

func TestSetccAndMovzbl(t *testing.T) {
	c := run(t, nil,
		I(MOVL, R(EAX), Imm(5)),
		I(CMPL, R(EAX), Imm(5)),
		Inst{Op: SETCC, Cond: E, Dst: R(EDX)},
	)
	if c.R[EDX] != 1 {
		t.Fatalf("sete = %d", c.R[EDX])
	}
}

func TestByteOps(t *testing.T) {
	c := run(t, func(c *CPU) { c.R[EBX] = 0x5000 },
		I(MOVL, R(EAX), Imm(0x1ff)),
		I(MOVB, Mem(EBX, 0), R(EAX)),
		I(MOVZBL, R(ECX), Mem(EBX, 0)),
	)
	if c.R[ECX] != 0xff {
		t.Fatalf("movzbl = %#x", c.R[ECX])
	}
}

func TestBsrl(t *testing.T) {
	c := run(t, nil,
		I(MOVL, R(EAX), Imm(0x00010000)),
		I(BSRL, R(ECX), R(EAX)),
	)
	if c.R[ECX] != 16 || c.Flags.ZF {
		t.Fatalf("bsrl = %d, zf=%v", c.R[ECX], c.Flags.ZF)
	}
}

func TestShifts(t *testing.T) {
	c := run(t, nil,
		I(MOVL, R(EAX), Imm(-8)),
		I(SARL, R(EAX), Imm(1)),
		I(MOVL, R(ECX), Imm(8)),
		I(SHRL, R(ECX), Imm(2)),
		I(MOVL, R(EDX), Imm(3)),
		I(SHLL, R(EDX), Imm(4)),
	)
	if int32(c.R[EAX]) != -4 || c.R[ECX] != 2 || c.R[EDX] != 48 {
		t.Fatalf("eax=%d ecx=%d edx=%d", int32(c.R[EAX]), c.R[ECX], c.R[EDX])
	}
}

func TestFloatOps(t *testing.T) {
	c := NewCPU(mem.New())
	c.X[1] = 0x3fc00000 // 1.5
	c.X[2] = 0x40100000 // 2.25
	insts := []Inst{
		I(MOVSS, X(0), X(1)),
		I(ADDSS, X(0), X(2)),
		Exit(Imm(0)),
	}
	if _, err := c.Exec(NewBlock(insts, nil), 100); err != nil {
		t.Fatal(err)
	}
	if c.X[0] != 0x40700000 { // 3.75
		t.Fatalf("addss = %#x", c.X[0])
	}
}

func TestCategoryCounting(t *testing.T) {
	c := NewCPU(mem.New())
	insts := []Inst{
		I(MOVL, R(EAX), Imm(1)).WithCat(CatDataTransfer),
		I(ADDL, R(EAX), Imm(1)).WithCat(CatCompute),
		Exit(Imm(0)), // CatControl
	}
	if _, err := c.Exec(NewBlock(insts, nil), 100); err != nil {
		t.Fatal(err)
	}
	if c.Executed[CatCompute] != 1 || c.Executed[CatDataTransfer] != 1 || c.Executed[CatControl] != 1 {
		t.Fatalf("counts = %v", c.Executed)
	}
	if c.Total() != 3 {
		t.Fatalf("total = %d", c.Total())
	}
}

func TestExitTBValue(t *testing.T) {
	c := NewCPU(mem.New())
	c.R[EDI] = 0x1234
	res, err := c.Exec(NewBlock([]Inst{Exit(R(EDI))}, nil), 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.NextPC != 0x1234 {
		t.Fatalf("next pc = %#x", res.NextPC)
	}
}

func TestStepBudget(t *testing.T) {
	const lbl = 1
	c := NewCPU(mem.New())
	b := NewBlock([]Inst{Jmp(lbl)}, map[int]int{lbl: 0})
	if _, err := c.Exec(b, 50); err == nil {
		t.Fatal("want budget error for infinite loop")
	}
}

func TestUnresolvedLabel(t *testing.T) {
	c := NewCPU(mem.New())
	b := NewBlock([]Inst{Jmp(9)}, map[int]int{})
	if _, err := c.Exec(b, 50); err == nil {
		t.Fatal("want unresolved-label error")
	}
}

// Property: host add/sub flag semantics match a reference computation.
func TestAddSubFlagsProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		c := NewCPU(mem.New())
		c.R[EAX] = a
		blk := NewBlock([]Inst{I(ADDL, R(EAX), Imm(int32(b))), Exit(Imm(0))}, nil)
		if _, err := c.Exec(blk, 10); err != nil {
			return false
		}
		sum := a + b
		if c.R[EAX] != sum || c.Flags.ZF != (sum == 0) || c.Flags.SF != (sum>>31 != 0) {
			return false
		}
		if c.Flags.CF != (uint64(a)+uint64(b) > 0xffffffff) {
			return false
		}
		// x86 sub: CF = borrow
		c2 := NewCPU(mem.New())
		c2.R[EAX] = a
		blk2 := NewBlock([]Inst{I(SUBL, R(EAX), Imm(int32(b))), Exit(Imm(0))}, nil)
		if _, err := c2.Exec(blk2, 10); err != nil {
			return false
		}
		return c2.R[EAX] == a-b && c2.Flags.CF == (a < b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAsmLabels(t *testing.T) {
	a := NewAsm()
	a.SetCat(CatCompute)
	l := a.NewLabel()
	a.Emit(I(MOVL, R(EAX), Imm(0)))
	a.Bind(l)
	a.Emit(I(ADDL, R(EAX), Imm(1)))
	a.Emit(I(CMPL, R(EAX), Imm(3)))
	a.Emit(Jcc(NE, l))
	a.SetCat(CatControl)
	a.Emit(Exit(Imm(0)))

	c := NewCPU(mem.New())
	if _, err := c.Exec(a.Block(), 100); err != nil {
		t.Fatal(err)
	}
	if c.R[EAX] != 3 {
		t.Fatalf("eax = %d, want 3", c.R[EAX])
	}
	if c.Executed[CatControl] != 1 {
		t.Fatalf("control count = %d", c.Executed[CatControl])
	}
}

// TestAsmReuse: a Reset assembler starts like a fresh one (label ids,
// category, no label map) but keeps its buffer, and the blocks it built
// earlier own their instructions and labels, so reuse never reaches
// them. Extend tags what an emitter appended straight into the buffer.
func TestAsmReuse(t *testing.T) {
	a := NewAsm()
	emit := func(n int32) *Block {
		a.Reset()
		l := a.NewLabel()
		a.Emit(I(MOVL, R(EAX), Imm(n)))
		a.SetCat(CatControl)
		a.Bind(l)
		a.Emit(Exit(Imm(n)))
		return a.Block()
	}
	first := emit(1)
	want := first.Listing()
	second := emit(2)
	if first.Listing() != want || fmt.Sprint(first.Labels()) != "map[1:1]" {
		t.Fatalf("reuse changed an earlier block:\n%s\nlabels %v", first.Listing(), first.Labels())
	}
	if second.Insts[0].Src.Imm != 2 || second.Insts[0].Cat != CatCompute || fmt.Sprint(second.Labels()) != "map[1:1]" {
		t.Fatalf("reset assembler did not start fresh:\n%s\nlabels %v", second.Listing(), second.Labels())
	}
	if cap(first.Insts) != len(first.Insts) {
		t.Fatalf("block stream has cap %d for %d instructions", cap(first.Insts), len(first.Insts))
	}

	a.Reset()
	if a.Emit(Exit(Imm(0))); a.Block().Labels() != nil {
		t.Fatal("a block that binds no label got a label map")
	}
	a.SetCat(CatDataTransfer)
	a.Extend(append(a.Insts(), I(MOVL, R(EAX), Imm(7)), I(MOVL, R(ECX), Imm(8))))
	if got := a.Insts(); len(got) != 3 || got[0].Cat != CatCompute || got[1].Cat != CatDataTransfer || got[2].Cat != CatDataTransfer {
		t.Fatalf("Extend: %v", got)
	}
}

func TestListingAndStrings(t *testing.T) {
	in := I(ADDL, R(EAX), Imm(5))
	if in.String() != "addl $5, %eax" {
		t.Fatalf("String = %q", in.String())
	}
	j := Jcc(NE, 3)
	if j.String() != "jne .L3" {
		t.Fatalf("jcc = %q", j.String())
	}
	m := I(MOVL, R(EAX), MemIdx(EBX, ESI, 4, 8))
	if m.String() != "movl 8(%ebx,%esi,4), %eax" {
		t.Fatalf("mem = %q", m.String())
	}
	a := NewAsm()
	lbl := a.NewLabel()
	a.Bind(lbl)
	a.Emit(in)
	if a.Block().Listing() == "" {
		t.Fatal("empty listing")
	}
}

func TestAdcSbbChain(t *testing.T) {
	// 64-bit add 0xffffffff + 1 via addl/adcl.
	c := run(t, nil,
		I(MOVL, R(EAX), Imm(-1)),
		I(MOVL, R(EDX), Imm(0)),
		I(ADDL, R(EAX), Imm(1)),
		I(ADCL, R(EDX), Imm(0)),
	)
	if c.R[EAX] != 0 || c.R[EDX] != 1 {
		t.Fatalf("eax=%#x edx=%#x", c.R[EAX], c.R[EDX])
	}
}

func TestNotNeg(t *testing.T) {
	c := run(t, nil,
		I(MOVL, R(EAX), Imm(5)),
		I1(NOTL, R(EAX)),
		I(MOVL, R(ECX), Imm(5)),
		I1(NEGL, R(ECX)),
	)
	if c.R[EAX] != ^uint32(5) || int32(c.R[ECX]) != -5 {
		t.Fatalf("not=%#x neg=%d", c.R[EAX], int32(c.R[ECX]))
	}
}

func TestRorl(t *testing.T) {
	c := run(t, nil,
		I(MOVL, R(EAX), Imm(1)),
		I(RORL, R(EAX), Imm(1)),
	)
	if c.R[EAX] != 0x80000000 {
		t.Fatalf("ror = %#x", c.R[EAX])
	}
}

// TestFrameKindRule pins when NewBlock gives a memory operand a frame
// kind: base %ebp, no index, 0 <= disp <= PageSize-4, and no
// instruction of the block with register %ebp as its Dst.
func TestFrameKindRule(t *testing.T) {
	cases := []struct {
		in    Inst
		frame bool
	}{
		{I(MOVL, R(EAX), Mem(EBP, 0)), true},
		{I(MOVL, Mem(EBP, mem.PageSize-4), R(EAX)), true},
		{I(MOVL, Mem(EBP, 2), Imm(1)), true},
		{I(ADDL, R(EAX), Mem(EBP, 8)), true},
		{I(SUBL, Mem(EBP, 8), R(ECX)), true},
		{I(CMPL, Mem(EBP, 8), Imm(3)), true},
		{I1(NEGL, Mem(EBP, 8)), true},
		{I(MOVL, R(EAX), Mem(EBP, mem.PageSize-3)), false},
		{I(MOVL, R(EAX), Mem(EBP, mem.PageSize)), false},
		{I(MOVL, R(EAX), Mem(EBP, -4)), false},
		{I(MOVL, R(EAX), Mem(ESI, 0)), false},
		{I(MOVL, R(EAX), MemIdx(EBP, ESI, 4, 0)), false},
		{I(LEAL, R(EAX), Mem(EBP, 8)), false},
		{I(MOVZBL, R(EAX), Mem(EBP, 8)), false},
	}
	for _, c := range cases {
		b := NewBlock([]Inst{c.in, Exit(Imm(0))}, nil)
		if got := isFrameKind(b.prog[0].kind()); got != c.frame {
			t.Errorf("%v: frame kind %v, want %v", c.in, got, c.frame)
		}
	}
	for _, w := range []Inst{I(MOVL, R(EBP), Imm(0)), I(ADDL, R(EBP), Imm(4)), I1(POPL, R(EBP)), I(LEAL, R(EBP), Mem(EBP, 4))} {
		b := NewBlock([]Inst{I(MOVL, R(EAX), Mem(EBP, 0)), w, I(MOVL, Mem(EBP, 4), R(EAX)), Exit(Imm(0))}, nil)
		if FrameOps(b) != 0 {
			t.Errorf("block writing %%ebp with %v got frame kinds", w)
		}
	}
}

// TestFrameStoresJournal: a frame store journals one entry per store,
// the entry Write32 makes, so rolling the journal back restores the
// state page; where Frame declines the plain path does the same.
func TestFrameStoresJournal(t *testing.T) {
	const state = 0x0f00_0000
	b := NewBlock([]Inst{
		I(MOVL, Mem(EBP, 0), Imm(1)),
		I(MOVL, Mem(EBP, 4), R(EAX)),
		I(ADDL, Mem(EBP, 0), Imm(2)),
		I(MOVL, Mem(EBP, 0), Imm(3)),
		Exit(Imm(0)),
	}, nil)
	for _, trackState := range []bool{false, true} {
		m := mem.New()
		c := NewCPU(m)
		c.R[EBP], c.R[EAX] = state, 0x55
		m.Write32(state, 0x11)
		m.Write32(state+4, 0x22)
		m.EnableWriteTracking()
		if trackState {
			m.TrackRange(state, state+8)
		}
		if p, _ := m.Frame(state); (p != nil) == trackState {
			t.Fatalf("tracked %v: Frame returned %v", trackState, p)
		}
		m.ArmSMC(true, nil)
		if _, err := c.Exec(b, 100); err != nil {
			t.Fatal(err)
		}
		if m.Read32(state) != 3 || m.Read32(state+4) != 0x55 || m.JournalLen() != 4 {
			t.Fatalf("tracked %v: words %#x %#x, journal %d, want 3 0x55 4", trackState, m.Read32(state), m.Read32(state+4), m.JournalLen())
		}
		if m.CodeDirty() != trackState {
			t.Fatalf("tracked %v: state page dirty %v", trackState, m.CodeDirty())
		}
		m.RollbackJournal()
		if m.Read32(state) != 0x11 || m.Read32(state+4) != 0x22 {
			t.Fatalf("tracked %v: after rollback %#x %#x, want 0x11 0x22", trackState, m.Read32(state), m.Read32(state+4))
		}
	}
}

// BenchmarkExecMicroloop is the benchmark's host.microloop drive: a
// five-instruction backward-JCC loop with one load and one store per
// iteration, run to completion under a budget it never reaches.
func BenchmarkExecMicroloop(b *testing.B) {
	a := NewAsm()
	top := a.NewLabel()
	a.Emit(I(MOVL, R(ECX), Imm(20000)))
	a.Bind(top)
	a.Emit(I(ADDL, R(EAX), Mem(EBP, 0)))
	a.Emit(I(MOVL, Mem(EBP, 4), R(EAX)))
	a.Emit(I(XORL, R(EAX), R(ECX)))
	a.Emit(I(SUBL, R(ECX), Imm(1)))
	a.Emit(Jcc(NE, top))
	a.Emit(Exit(Imm(0)))
	loop := a.Block()
	cpu := NewCPU(mem.New())
	cpu.R[EBP] = 0x0f00_0000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cpu.Exec(loop, 1<<40); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cpu.Total()), "ns/inst")
}

// BenchmarkNewBlock prices pre-decoding on the translate path: a
// 50-instruction block of the translators' usual mix.
func BenchmarkNewBlock(b *testing.B) {
	a := NewAsm()
	l := a.NewLabel()
	for i := 0; i < 8; i++ {
		a.Emit(I(MOVL, R(EAX), Mem(EBP, int32(4*i))))
		a.Emit(I(ADDL, R(EAX), Imm(int32(i))))
		a.Emit(I(MOVL, Mem(EBP, int32(4*i)), R(EAX)))
		a.Emit(I(CMPL, R(EAX), R(ECX)))
		a.Emit(I(MOVZBL, R(EDX), Mem(ESI, 0)))
		a.Emit(I(LEAL, R(EDI), MemIdx(ESI, EDX, 4, 8)))
	}
	a.Emit(Jcc(NE, l))
	a.Bind(l)
	a.Emit(Exit(Imm(0x10000)))
	insts, labels := a.Insts(), a.Labels()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBlock = NewBlock(insts, labels)
	}
}

var sinkBlock *Block
