package symexec

import (
	"math/rand"
	"testing"
	"testing/quick"

	"paramdbt/internal/guest"
	"paramdbt/internal/host"
)

func asm1(t *testing.T, src string) []guest.Inst {
	t.Helper()
	return guest.MustAssemble(src)
}

func TestNormalizeFoldsConstants(t *testing.T) {
	e := Bin(XAdd, Const(2), Bin(XMul, Const(3), Const(4)))
	n := Normalize(e)
	if n.Op != XConst || n.C != 14 {
		t.Fatalf("Normalize = %v", n)
	}
}

func TestNormalizeIdentities(t *testing.T) {
	x := Sym("x")
	cases := []struct {
		in   *Expr
		want *Expr
	}{
		{Bin(XAdd, x, Const(0)), x},
		{Bin(XXor, x, x), Const(0)},
		{Bin(XSub, x, x), Const(0)},
		{Bin(XAnd, x, Const(0xffffffff)), x},
		{Bin(XOr, x, Const(0)), x},
		{Bin(XMul, x, Const(1)), x},
		{Un(XNot, Un(XNot, x)), x},
		{Bin(XShl, x, Const(0)), x},
	}
	for _, c := range cases {
		if got := Normalize(c.in); !StructEqual(got, Normalize(c.want)) {
			t.Errorf("Normalize(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestNormalizeCommutativeOrder(t *testing.T) {
	a := Bin(XAdd, Sym("b"), Sym("a"))
	b := Bin(XAdd, Sym("a"), Sym("b"))
	if !StructEqual(Normalize(a), Normalize(b)) {
		t.Fatal("commutative operands not canonically ordered")
	}
}

// Property: normalization preserves concrete value.
func TestNormalizePreservesValue(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ops := []XOp{XAdd, XSub, XMul, XAnd, XOr, XXor, XShl, XShr, XSar, XEq, XLtU}
	var build func(depth int) *Expr
	build = func(depth int) *Expr {
		if depth == 0 || rng.Intn(3) == 0 {
			if rng.Intn(2) == 0 {
				return Const(rng.Uint32())
			}
			return Sym([]string{"a", "b", "c"}[rng.Intn(3)])
		}
		return Bin(ops[rng.Intn(len(ops))], build(depth-1), build(depth-1))
	}
	for i := 0; i < 500; i++ {
		e := build(4)
		as := &Assignment{Vals: map[string]uint32{"a": rng.Uint32(), "b": rng.Uint32(), "c": rng.Uint32()}, Seed: 1}
		v1, err1 := as.Eval(e)
		v2, err2 := as.Eval(Normalize(e))
		if err1 != nil || err2 != nil {
			t.Fatalf("eval error: %v %v", err1, err2)
		}
		if v1 != v2 {
			t.Fatalf("Normalize changed value of %v: %#x -> %#x", e, v1, v2)
		}
	}
}

func TestUnknownNeverEqual(t *testing.T) {
	u := Unknown("x")
	if StructEqual(u, u) {
		t.Fatal("unknown equal to itself")
	}
	if ok, _ := exprEquiv(u, u, rand.New(rand.NewSource(1))); ok {
		t.Fatal("exprEquiv accepted unknowns")
	}
}

// --- end-to-end rule verification ---

func bind(pairs ...interface{}) []Binding {
	var out []Binding
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, Binding{pairs[i].(guest.Reg), pairs[i+1].(host.Reg)})
	}
	return out
}

func TestAddRuleVerifies(t *testing.T) {
	// add r0, r0, r1  <->  addl %ecx, %eax   (r0=eax, r1=ecx)
	g := asm1(t, "add r0, r0, r1")
	h := []host.Inst{host.I(host.ADDL, host.R(host.EAX), host.R(host.ECX))}
	res := CheckEquiv(g, h, bind(guest.R0, host.EAX, guest.R1, host.ECX), nil)
	if !res.Equivalent {
		t.Fatalf("add rule rejected: %s", res.Reason)
	}
	if res.Method != MethodStructural {
		t.Fatalf("expected structural proof, got %v", res.Method)
	}
}

func TestSubOperandOrderMatters(t *testing.T) {
	// sub r0, r0, r1 vs subl with swapped operands must FAIL: this is
	// the paper's commutativity constraint (§IV-C1).
	g := asm1(t, "sub r0, r0, r1")
	wrong := []host.Inst{
		host.I(host.MOVL, host.R(host.EDX), host.R(host.ECX)),
		host.I(host.SUBL, host.R(host.EDX), host.R(host.EAX)),
		host.I(host.MOVL, host.R(host.EAX), host.R(host.EDX)),
	}
	res := CheckEquiv(g, wrong, bind(guest.R0, host.EAX, guest.R1, host.ECX), []host.Reg{host.EDX})
	if res.Equivalent {
		t.Fatal("swapped sub accepted")
	}
	right := []host.Inst{host.I(host.SUBL, host.R(host.EAX), host.R(host.ECX))}
	res = CheckEquiv(g, right, bind(guest.R0, host.EAX, guest.R1, host.ECX), nil)
	if !res.Equivalent {
		t.Fatalf("correct sub rejected: %s", res.Reason)
	}
}

func TestAddCommutedVerifiesConcretely(t *testing.T) {
	// add r0, r1, r0 implemented as addl %ecx, %eax: operands commuted,
	// equal after normalization.
	g := asm1(t, "add r0, r1, r0")
	h := []host.Inst{host.I(host.ADDL, host.R(host.EAX), host.R(host.ECX))}
	res := CheckEquiv(g, h, bind(guest.R0, host.EAX, guest.R1, host.ECX), nil)
	if !res.Equivalent {
		t.Fatalf("commuted add rejected: %s", res.Reason)
	}
}

func TestBicAdapterVerifies(t *testing.T) {
	// bic r0, r0, r1 <-> movl %ecx,%edx; notl %edx; andl %edx,%eax
	// (the complex-op adapter of paper Fig. 7).
	g := asm1(t, "bic r0, r0, r1")
	h := []host.Inst{
		host.I(host.MOVL, host.R(host.EDX), host.R(host.ECX)),
		host.I1(host.NOTL, host.R(host.EDX)),
		host.I(host.ANDL, host.R(host.EAX), host.R(host.EDX)),
	}
	res := CheckEquiv(g, h, bind(guest.R0, host.EAX, guest.R1, host.ECX), []host.Reg{host.EDX})
	if !res.Equivalent {
		t.Fatalf("bic adapter rejected: %s", res.Reason)
	}
}

func TestScratchClobberPolicy(t *testing.T) {
	// Writing an undeclared host register must be rejected.
	g := asm1(t, "add r0, r0, r1")
	h := []host.Inst{
		host.I(host.MOVL, host.R(host.EDX), host.Imm(0)),
		host.I(host.ADDL, host.R(host.EAX), host.R(host.ECX)),
	}
	res := CheckEquiv(g, h, bind(guest.R0, host.EAX, guest.R1, host.ECX), nil)
	if res.Equivalent {
		t.Fatal("undeclared clobber accepted")
	}
	res = CheckEquiv(g, h, bind(guest.R0, host.EAX, guest.R1, host.ECX), []host.Reg{host.EDX})
	if !res.Equivalent {
		t.Fatalf("declared scratch rejected: %s", res.Reason)
	}
}

func TestLiveGuestValueClobberRejected(t *testing.T) {
	// Host overwrites the register bound to an unwritten guest register.
	g := asm1(t, "add r0, r0, r1")
	h := []host.Inst{
		host.I(host.ADDL, host.R(host.EAX), host.R(host.ECX)),
		host.I(host.MOVL, host.R(host.ECX), host.Imm(0)),
	}
	res := CheckEquiv(g, h, bind(guest.R0, host.EAX, guest.R1, host.ECX), nil)
	if res.Equivalent {
		t.Fatal("live-value clobber accepted")
	}
}

func TestLoadStoreRuleVerifies(t *testing.T) {
	// ldr r0, [r1, #8] <-> movl 8(%ecx), %eax
	g := asm1(t, "ldr r0, [r1, #8]")
	h := []host.Inst{host.I(host.MOVL, host.R(host.EAX), host.Mem(host.ECX, 8))}
	res := CheckEquiv(g, h, bind(guest.R0, host.EAX, guest.R1, host.ECX), nil)
	if !res.Equivalent {
		t.Fatalf("ldr rule rejected: %s", res.Reason)
	}

	// str r0, [r1, #8] <-> movl %eax, 8(%ecx)
	g = asm1(t, "str r0, [r1, #8]")
	h = []host.Inst{host.I(host.MOVL, host.Mem(host.ECX, 8), host.R(host.EAX))}
	res = CheckEquiv(g, h, bind(guest.R0, host.EAX, guest.R1, host.ECX), nil)
	if !res.Equivalent {
		t.Fatalf("str rule rejected: %s", res.Reason)
	}
}

func TestStoreValueMismatchRejected(t *testing.T) {
	g := asm1(t, "str r0, [r1, #8]")
	h := []host.Inst{host.I(host.MOVL, host.Mem(host.ECX, 8), host.R(host.ECX))}
	res := CheckEquiv(g, h, bind(guest.R0, host.EAX, guest.R1, host.ECX), nil)
	if res.Equivalent {
		t.Fatal("wrong store value accepted")
	}
}

func TestStoreCountMismatchRejected(t *testing.T) {
	g := asm1(t, "add r0, r0, r1")
	h := []host.Inst{
		host.I(host.ADDL, host.R(host.EAX), host.R(host.ECX)),
		host.I(host.MOVL, host.Mem(host.ECX, 0), host.R(host.EAX)),
	}
	res := CheckEquiv(g, h, bind(guest.R0, host.EAX, guest.R1, host.ECX), nil)
	if res.Equivalent {
		t.Fatal("extra host store accepted")
	}
}

func TestSequenceRuleLoadModifyStore(t *testing.T) {
	// Multi-instruction rule:
	//   ldr r0, [r1]; add r0, r0, r2; str r0, [r1]
	// <-> movl (%ecx), %eax; addl %edx, %eax; movl %eax, (%ecx)
	g := asm1(t, "ldr r0, [r1]\nadd r0, r0, r2\nstr r0, [r1]")
	h := []host.Inst{
		host.I(host.MOVL, host.R(host.EAX), host.Mem(host.ECX, 0)),
		host.I(host.ADDL, host.R(host.EAX), host.R(host.EDX)),
		host.I(host.MOVL, host.Mem(host.ECX, 0), host.R(host.EAX)),
	}
	res := CheckEquiv(g, h,
		bind(guest.R0, host.EAX, guest.R1, host.ECX, guest.R2, host.EDX), nil)
	if !res.Equivalent {
		t.Fatalf("load-modify-store rule rejected: %s", res.Reason)
	}
}

func TestImmediateRule(t *testing.T) {
	g := asm1(t, "add r0, r0, #5")
	h := []host.Inst{host.I(host.ADDL, host.R(host.EAX), host.Imm(5))}
	res := CheckEquiv(g, h, bind(guest.R0, host.EAX), nil)
	if !res.Equivalent {
		t.Fatalf("imm rule rejected: %s", res.Reason)
	}
	// Wrong immediate must fail.
	h = []host.Inst{host.I(host.ADDL, host.R(host.EAX), host.Imm(6))}
	res = CheckEquiv(g, h, bind(guest.R0, host.EAX), nil)
	if res.Equivalent {
		t.Fatal("wrong immediate accepted")
	}
}

func TestFlagCorrespondenceAdd(t *testing.T) {
	g := asm1(t, "adds r0, r0, r1")
	h := []host.Inst{host.I(host.ADDL, host.R(host.EAX), host.R(host.ECX))}
	res := CheckEquiv(g, h, bind(guest.R0, host.EAX, guest.R1, host.ECX), nil)
	if !res.Equivalent || !res.GuestSetsFlags {
		t.Fatalf("adds: equiv=%v flags=%v (%s)", res.Equivalent, res.GuestSetsFlags, res.Reason)
	}
	if !res.Flags.NZMatch || !res.Flags.CMatch || !res.Flags.VMatch {
		t.Fatalf("adds flag correspondence = %+v", res.Flags)
	}
}

func TestFlagCorrespondenceSubCarryInverted(t *testing.T) {
	// The ARM-C vs x86-CF borrow inversion must be detected.
	g := asm1(t, "subs r0, r0, r1")
	h := []host.Inst{host.I(host.SUBL, host.R(host.EAX), host.R(host.ECX))}
	res := CheckEquiv(g, h, bind(guest.R0, host.EAX, guest.R1, host.ECX), nil)
	if !res.Equivalent {
		t.Fatalf("subs rejected: %s", res.Reason)
	}
	if !res.Flags.NZMatch || res.Flags.CMatch || !res.Flags.CInverted || !res.Flags.VMatch {
		t.Fatalf("subs flag correspondence = %+v", res.Flags)
	}
}

func TestCmpRule(t *testing.T) {
	g := asm1(t, "cmp r0, r1")
	h := []host.Inst{host.I(host.CMPL, host.R(host.EAX), host.R(host.ECX))}
	res := CheckEquiv(g, h, bind(guest.R0, host.EAX, guest.R1, host.ECX), nil)
	if !res.Equivalent || !res.GuestSetsFlags {
		t.Fatalf("cmp: %v (%s)", res.Equivalent, res.Reason)
	}
	if !res.Flags.NZMatch || !res.Flags.CInverted {
		t.Fatalf("cmp flags = %+v", res.Flags)
	}
}

func TestControlFlowRejected(t *testing.T) {
	g := asm1(t, "b #2")
	res := CheckEquiv(g, nil, nil, nil)
	if res.Equivalent || res.Reason == "" {
		t.Fatal("branch verified")
	}
	g2 := asm1(t, "add r0, r0, r1")
	h := []host.Inst{host.Jmp(1)}
	res = CheckEquiv(g2, h, bind(guest.R0, host.EAX, guest.R1, host.ECX), nil)
	if res.Equivalent {
		t.Fatal("host jump verified")
	}
}

func TestMvnViaXor(t *testing.T) {
	// mvn r0, r1 <-> movl %ecx,%eax; xorl $-1,%eax — needs the concrete
	// cross-check (not(x) vs x^0xffffffff is not structurally equal).
	g := asm1(t, "mvn r0, r1")
	h := []host.Inst{
		host.I(host.MOVL, host.R(host.EAX), host.R(host.ECX)),
		host.I(host.XORL, host.R(host.EAX), host.Imm(-1)),
	}
	res := CheckEquiv(g, h, bind(guest.R0, host.EAX, guest.R1, host.ECX), nil)
	if !res.Equivalent {
		t.Fatalf("mvn-via-xor rejected: %s", res.Reason)
	}
}

func TestWrongOpcodeRejected(t *testing.T) {
	g := asm1(t, "add r0, r0, r1")
	h := []host.Inst{host.I(host.XORL, host.R(host.EAX), host.R(host.ECX))}
	res := CheckEquiv(g, h, bind(guest.R0, host.EAX, guest.R1, host.ECX), nil)
	if res.Equivalent {
		t.Fatal("xor-for-add accepted")
	}
}

func TestMulRule(t *testing.T) {
	g := asm1(t, "mul r0, r1, r2")
	h := []host.Inst{
		host.I(host.MOVL, host.R(host.EAX), host.R(host.ECX)),
		host.I(host.IMULL, host.R(host.EAX), host.R(host.EDX)),
	}
	res := CheckEquiv(g, h,
		bind(guest.R0, host.EAX, guest.R1, host.ECX, guest.R2, host.EDX), nil)
	if !res.Equivalent {
		t.Fatalf("mul rejected: %s", res.Reason)
	}
}

func TestClzNotVerifiable(t *testing.T) {
	// clz has no host counterpart without branches; the bsr-based host
	// code is rejected (unknown), reproducing the paper's unlearnable
	// clz.
	g := asm1(t, "clz r0, r1")
	h := []host.Inst{host.I(host.BSRL, host.R(host.EAX), host.R(host.ECX))}
	res := CheckEquiv(g, h, bind(guest.R0, host.EAX, guest.R1, host.ECX), nil)
	if res.Equivalent {
		t.Fatal("bsr-for-clz accepted")
	}
}

// Property: for random ALU ops, the generated "textbook" host translation
// verifies and random wrong translations do not.
func TestRandomALUPairsProperty(t *testing.T) {
	type pair struct {
		gop guest.Op
		hop host.Op
	}
	pairs := []pair{
		{guest.ADD, host.ADDL}, {guest.SUB, host.SUBL}, {guest.AND, host.ANDL},
		{guest.ORR, host.ORL}, {guest.EOR, host.XORL},
	}
	f := func(pi, qi uint8) bool {
		p := pairs[int(pi)%len(pairs)]
		q := pairs[int(qi)%len(pairs)]
		g := []guest.Inst{guest.NewInst(p.gop, guest.RegOp(guest.R0), guest.RegOp(guest.R0), guest.RegOp(guest.R1))}
		h := []host.Inst{host.I(q.hop, host.R(host.EAX), host.R(host.ECX))}
		res := CheckEquiv(g, h, bind(guest.R0, host.EAX, guest.R1, host.ECX), nil)
		return res.Equivalent == (p == q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRsbViaSwappedSub(t *testing.T) {
	g := asm1(t, "rsb r0, r0, r1")
	h := []host.Inst{
		host.I(host.MOVL, host.R(host.EDX), host.R(host.ECX)),
		host.I(host.SUBL, host.R(host.EDX), host.R(host.EAX)),
		host.I(host.MOVL, host.R(host.EAX), host.R(host.EDX)),
	}
	res := CheckEquiv(g, h, bind(guest.R0, host.EAX, guest.R1, host.ECX), []host.Reg{host.EDX})
	if !res.Equivalent {
		t.Fatalf("rsb rejected: %s", res.Reason)
	}
}

func TestLdrbMovzbl(t *testing.T) {
	g := asm1(t, "ldrb r0, [r1, #3]")
	h := []host.Inst{host.I(host.MOVZBL, host.R(host.EAX), host.Mem(host.ECX, 3))}
	res := CheckEquiv(g, h, bind(guest.R0, host.EAX, guest.R1, host.ECX), nil)
	if !res.Equivalent {
		t.Fatalf("ldrb rejected: %s", res.Reason)
	}
}

func TestStrbMovb(t *testing.T) {
	g := asm1(t, "strb r0, [r1, #3]")
	h := []host.Inst{host.I(host.MOVB, host.Mem(host.ECX, 3), host.R(host.EAX))}
	res := CheckEquiv(g, h, bind(guest.R0, host.EAX, guest.R1, host.ECX), nil)
	if !res.Equivalent {
		t.Fatalf("strb rejected: %s", res.Reason)
	}
}

func TestMemIdxAddressing(t *testing.T) {
	g := []guest.Inst{guest.NewInst(guest.LDR, guest.RegOp(guest.R0), guest.MemIdxOp(guest.R1, guest.R2))}
	h := []host.Inst{host.I(host.MOVL, host.R(host.EAX), host.MemIdx(host.ECX, host.EDX, 1, 0))}
	res := CheckEquiv(g, h,
		bind(guest.R0, host.EAX, guest.R1, host.ECX, guest.R2, host.EDX), nil)
	if !res.Equivalent {
		t.Fatalf("reg-offset ldr rejected: %s", res.Reason)
	}
}

// TestHStateFrame pins the frame model: word accesses at constant
// addresses in the frame (through EBP or any register holding a
// constant) read and write its words and stay off the store trace;
// byte and misaligned accesses leave the words unknown; stores outside
// the frame still go to the trace; forks evolve independently.
func TestHStateFrame(t *testing.T) {
	const base = 0x1000
	words := []*Expr{Sym("w0"), Sym("w1"), Sym("w2"), Sym("w3")}
	s := NewHStateFrame(map[host.Reg]*Expr{host.EBP: Const(base)}, base, words)
	steps := []host.Inst{
		host.I(host.MOVL, host.R(host.EAX), host.Mem(host.EBP, 4)),          // eax = w1
		host.I(host.ADDL, host.R(host.EAX), host.Imm(1)),                    // eax = w1+1
		host.I(host.MOVL, host.Mem(host.EBP, 0), host.R(host.EAX)),          // w0 = w1+1
		host.I(host.MOVL, host.R(host.ESI), host.Imm(base+8)),               // esi -> w2
		host.I(host.MOVL, host.Mem(host.ESI, 0), host.R(host.EAX)),          // w2 = w1+1
		host.I(host.MOVL, host.Mem(host.EBX, 0), host.R(host.EAX)),          // outside: trace
		{Op: host.MOVB, Dst: host.Mem(host.EBP, 13), Src: host.R(host.EAX)}, // w3 unknown
	}
	for _, in := range steps {
		if err := s.Step(in); err != nil {
			t.Fatal(err)
		}
	}
	want := Normalize(Bin(XAdd, Sym("w1"), Const(1)))
	for _, w := range []int{0, 2} {
		if got := Normalize(s.FrameWord(w)); !StructEqual(got, want) {
			t.Fatalf("word %d = %v, want %v", w, got, want)
		}
	}
	if s.FrameWord(1) != words[1] || s.FrameWord(3).Op != XUnknown {
		t.Fatalf("words 1, 3 = %v, %v: want w1 untouched and w3 unknown", s.FrameWord(1), s.FrameWord(3))
	}
	if len(s.Stores) != 1 {
		t.Fatalf("store trace %v: want only the store outside the frame", s.Stores)
	}

	f := s.Fork()
	if err := f.Step(host.I(host.MOVL, host.Mem(host.EBP, 4), host.R(host.EBX))); err != nil {
		t.Fatal(err)
	}
	if err := f.Step(host.I(host.MOVL, host.Mem(host.EBX, 4), host.R(host.EBX))); err != nil {
		t.Fatal(err)
	}
	if s.FrameWord(1) != words[1] || len(s.Stores) != 1 || len(f.Stores) != 2 {
		t.Fatal("a fork's stores leaked into its parent")
	}
	if err := s.Step(host.I(host.MOVL, host.R(host.ECX), host.Mem(host.EBP, 2))); err != nil {
		t.Fatal(err)
	}
	if s.R[host.ECX].Op != XUnknown {
		t.Fatalf("misaligned frame read = %v, want unknown", s.R[host.ECX])
	}
}
