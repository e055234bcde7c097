package rule

import (
	"fmt"
	"testing"

	"paramdbt/internal/guest"
	"paramdbt/internal/host"
)

// addTemplate builds "add p0, p1, p2 => movl p1,p0'; addl p2,p0'" in the
// direct two-address style the host codegen produces. For dst==src1
// (the common learned shape) the host side is a single addl.
func addRMWTemplate() *Template {
	return &Template{
		Guest: []GPat{{Op: guest.ADD, Args: []Arg{RegArg(0), RegArg(0), RegArg(1)}}},
		Host: []HPat{
			{Op: host.ADDL, Dst: RegArg(0), Src: RegArg(1)},
		},
		Params: []ParamKind{PReg, PReg},
	}
}

func addImmTemplate() *Template {
	return &Template{
		Guest: []GPat{{Op: guest.ADD, Args: []Arg{RegArg(0), RegArg(0), ImmArg(1)}}},
		Host: []HPat{
			{Op: host.ADDL, Dst: RegArg(0), Src: ImmArg(1)},
		},
		Params: []ParamKind{PReg, PImm},
	}
}

// add3Template is the all-distinct shape needing an auxiliary move.
func add3Template() *Template {
	return &Template{
		Guest: []GPat{{Op: guest.ADD, Args: []Arg{RegArg(0), RegArg(1), RegArg(2)}}},
		Host: []HPat{
			{Op: host.MOVL, Dst: RegArg(0), Src: RegArg(1)},
			{Op: host.ADDL, Dst: RegArg(0), Src: RegArg(2)},
		},
		Params: []ParamKind{PReg, PReg, PReg},
	}
}

func TestMatchBindsParams(t *testing.T) {
	tm := addRMWTemplate()
	in := guest.MustAssemble("add r3, r3, r7")
	b, ok := Match(tm, in)
	if !ok {
		t.Fatal("no match")
	}
	if b.Regs[0] != guest.R3 || b.Regs[1] != guest.R7 {
		t.Fatalf("binding = %v", b.Regs)
	}
}

func TestMatchDependencePattern(t *testing.T) {
	tm := addRMWTemplate() // requires dst == src1
	if _, ok := Match(tm, guest.MustAssemble("add r3, r4, r7")); ok {
		t.Fatal("dst!=src1 matched rmw template")
	}
	tm3 := add3Template() // requires all distinct
	if _, ok := Match(tm3, guest.MustAssemble("add r3, r3, r7")); ok {
		t.Fatal("aliased regs matched all-distinct template (injectivity)")
	}
	if _, ok := Match(tm3, guest.MustAssemble("add r3, r4, r7")); !ok {
		t.Fatal("all-distinct failed to match")
	}
}

func TestMatchRejectsPC(t *testing.T) {
	tm := addRMWTemplate()
	if _, ok := Match(tm, guest.MustAssemble("add pc, pc, r7")); ok {
		t.Fatal("PC bound to a register parameter")
	}
}

func TestMatchRejectsWrongShape(t *testing.T) {
	tm := addRMWTemplate()
	cases := []string{
		"add r3, r3, #5",   // imm operand vs reg slot
		"sub r3, r3, r7",   // wrong opcode
		"adds r3, r3, r7",  // S mismatch
		"addne r3, r3, r7", // conditional
	}
	for _, src := range cases {
		if _, ok := Match(tm, guest.MustAssemble(src)); ok {
			t.Errorf("%q matched", src)
		}
	}
}

func TestMatchImmediateParam(t *testing.T) {
	tm := addImmTemplate()
	b, ok := Match(tm, guest.MustAssemble("add r1, r1, #42"))
	if !ok || b.Imms[1] != 42 {
		t.Fatalf("imm binding: ok=%v imms=%v", ok, b.Imms)
	}
}

func TestMatchFixedImmediate(t *testing.T) {
	tm := &Template{
		Guest:  []GPat{{Op: guest.LSL, Args: []Arg{RegArg(0), RegArg(0), FixedImmArg(2)}}},
		Host:   []HPat{{Op: host.SHLL, Dst: RegArg(0), Src: FixedImmArg(2)}},
		Params: []ParamKind{PReg},
	}
	if _, ok := Match(tm, guest.MustAssemble("lsl r1, r1, #2")); !ok {
		t.Fatal("fixed imm failed to match")
	}
	if _, ok := Match(tm, guest.MustAssemble("lsl r1, r1, #3")); ok {
		t.Fatal("wrong fixed imm matched")
	}
}

func TestInstantiate(t *testing.T) {
	tm := add3Template()
	b, ok := Match(tm, guest.MustAssemble("add r3, r4, r7"))
	if !ok {
		t.Fatal("no match")
	}
	regOf := func(r guest.Reg) (host.Reg, bool) {
		switch r {
		case guest.R3:
			return host.EBX, true
		case guest.R4:
			return host.ESI, true
		case guest.R7:
			return host.EDI, true
		}
		return 0, false
	}
	insts, err := Instantiate(tm, b, regOf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 2 {
		t.Fatalf("got %d insts", len(insts))
	}
	if insts[0].String() != "movl %esi, %ebx" || insts[1].String() != "addl %edi, %ebx" {
		t.Fatalf("instantiated: %v / %v", insts[0], insts[1])
	}
}

func TestInstantiateNeedsResidentRegs(t *testing.T) {
	tm := addRMWTemplate()
	b, _ := Match(tm, guest.MustAssemble("add r3, r3, r7"))
	regOf := func(r guest.Reg) (host.Reg, bool) { return 0, false }
	if _, err := Instantiate(tm, b, regOf, nil); err == nil {
		t.Fatal("instantiation without resident registers succeeded")
	}
}

func TestVerifyAcceptsCorrectTemplates(t *testing.T) {
	for _, tm := range []*Template{addRMWTemplate(), addImmTemplate(), add3Template()} {
		res, ok := Verify(tm)
		if !ok {
			t.Fatalf("Verify(%s) rejected: %s", tm, res.Reason)
		}
	}
}

func TestVerifyRejectsWrongTemplates(t *testing.T) {
	// sub with swapped host operands.
	bad := &Template{
		Guest: []GPat{{Op: guest.SUB, Args: []Arg{RegArg(0), RegArg(0), RegArg(1)}}},
		Host: []HPat{
			{Op: host.MOVL, Dst: ScratchArg(0), Src: RegArg(1)},
			{Op: host.SUBL, Dst: ScratchArg(0), Src: RegArg(0)},
			{Op: host.MOVL, Dst: RegArg(0), Src: ScratchArg(0)},
		},
		Params:   []ParamKind{PReg, PReg},
		NScratch: 1,
	}
	if _, ok := Verify(bad); ok {
		t.Fatal("swapped sub verified")
	}
}

func TestVerifySetsFlagMetadata(t *testing.T) {
	tm := &Template{
		Guest:  []GPat{{Op: guest.SUB, S: true, Args: []Arg{RegArg(0), RegArg(0), RegArg(1)}}},
		Host:   []HPat{{Op: host.SUBL, Dst: RegArg(0), Src: RegArg(1)}},
		Params: []ParamKind{PReg, PReg},
	}
	res, ok := Verify(tm)
	if !ok {
		t.Fatalf("subs rejected: %s", res.Reason)
	}
	if !tm.SetsFlags || tm.FlagSrc != FamSub {
		t.Fatalf("flag metadata: sets=%v fam=%v", tm.SetsFlags, tm.FlagSrc)
	}
	if !tm.Flags.NZMatch || !tm.Flags.CInverted || !tm.Flags.VMatch {
		t.Fatalf("correspondence = %+v", tm.Flags)
	}
}

func TestVerifyImmediateSamples(t *testing.T) {
	// A template that is wrong for some immediates must be rejected:
	// "add p0,p0,#i0 => addl $1,p0" only works for i0==1.
	bad := &Template{
		Guest:  []GPat{{Op: guest.ADD, Args: []Arg{RegArg(0), RegArg(0), ImmArg(1)}}},
		Host:   []HPat{{Op: host.ADDL, Dst: RegArg(0), Src: FixedImmArg(1)}},
		Params: []ParamKind{PReg, PImm},
	}
	if _, ok := Verify(bad); ok {
		t.Fatal("imm-insensitive template verified")
	}
}

func TestStoreAddAndMerge(t *testing.T) {
	s := NewStore()
	if !s.Add(addRMWTemplate()) {
		t.Fatal("first add rejected")
	}
	if s.Add(addRMWTemplate()) {
		t.Fatal("duplicate not merged")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestStoreLookup(t *testing.T) {
	s := NewStore()
	s.Add(addRMWTemplate())
	s.Add(addImmTemplate())
	tm, b, n := s.Lookup(guest.MustAssemble("add r2, r2, #9\nhlt"))
	if tm == nil || n != 1 {
		t.Fatal("lookup failed")
	}
	if b.Imms[1] != 9 {
		t.Fatalf("binding imm = %d", b.Imms[1])
	}
	if tm2, _, _ := s.Lookup(guest.MustAssemble("sub r2, r2, #9")); tm2 != nil {
		t.Fatal("lookup matched wrong opcode")
	}
}

func TestStorePrefersLongerRules(t *testing.T) {
	s := NewStore()
	s.Add(addRMWTemplate())
	// Sequence rule: add p0,p0,p1; add p0,p0,p1 => two addl
	seq := &Template{
		Guest: []GPat{
			{Op: guest.ADD, Args: []Arg{RegArg(0), RegArg(0), RegArg(1)}},
			{Op: guest.ADD, Args: []Arg{RegArg(0), RegArg(0), RegArg(1)}},
		},
		Host: []HPat{
			{Op: host.ADDL, Dst: RegArg(0), Src: RegArg(1)},
			{Op: host.ADDL, Dst: RegArg(0), Src: RegArg(1)},
		},
		Params: []ParamKind{PReg, PReg},
	}
	s.Add(seq)
	prog := guest.MustAssemble("add r1, r1, r2\nadd r1, r1, r2")
	tm, _, n := s.Lookup(prog)
	if tm != seq || n != 2 {
		t.Fatalf("lookup chose len=%d", n)
	}
}

func TestKeyDistinguishesModes(t *testing.T) {
	a := Key(guest.MustAssemble("add r0, r1, r2"))
	b := Key(guest.MustAssemble("add r0, r1, #2"))
	if a == b {
		t.Fatal("reg and imm modes share a key")
	}
	c := Key([]guest.Inst{guest.NewInst(guest.LDR, guest.RegOp(guest.R0), guest.MemOp(guest.R1, 4))})
	d := Key([]guest.Inst{guest.NewInst(guest.LDR, guest.RegOp(guest.R0), guest.MemIdxOp(guest.R1, guest.R2))})
	if c == d {
		t.Fatal("mem sub-modes share a key")
	}
}

func TestTemplateString(t *testing.T) {
	s := addImmTemplate().String()
	if s != "add p0, p0, #i1 => addl #i1, p0" {
		t.Fatalf("String = %q", s)
	}
}

func TestVerifyMemTemplates(t *testing.T) {
	ldr := &Template{
		Guest:  []GPat{{Op: guest.LDR, Args: []Arg{RegArg(0), MemDispArg(1, 2)}}},
		Host:   []HPat{{Op: host.MOVL, Dst: RegArg(0), Src: MemDispArg(1, 2)}},
		Params: []ParamKind{PReg, PReg, PImm},
	}
	if res, ok := Verify(ldr); !ok {
		t.Fatalf("ldr template rejected: %s", res.Reason)
	}
	str := &Template{
		Guest:  []GPat{{Op: guest.STR, Args: []Arg{RegArg(0), MemIdxArg(1, 2)}}},
		Host:   []HPat{{Op: host.MOVL, Dst: MemIdxArg(1, 2), Src: RegArg(0)}},
		Params: []ParamKind{PReg, PReg, PReg},
	}
	if res, ok := Verify(str); !ok {
		t.Fatalf("str template rejected: %s", res.Reason)
	}
}

func TestCountByOrigin(t *testing.T) {
	s := NewStore()
	a := addRMWTemplate()
	a.Origin = OriginLearned
	b := addImmTemplate()
	b.Origin = OriginModeParam
	b.GroupKey = "g1"
	s.Add(a)
	s.Add(b)
	counts := s.CountByOrigin()
	if counts[OriginLearned] != 1 || counts[OriginModeParam] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	if s.GroupCount() != 1 {
		t.Fatalf("GroupCount = %d", s.GroupCount())
	}
}

var sinkInsts []host.Inst

// TestInstantiateAllocations pins the instantiate path: the translator's
// AppendInstantiated writes into a buffer it already has and allocates
// nothing, and InstantiateChecked — which the benchmark's direct drive
// times — allocates exactly its result (a wrapper that let the Binding
// escape would add one, and nearly double the drive's ns per hit).
func TestInstantiateAllocations(t *testing.T) {
	tm := add3Template()
	b := Binding{Regs: make([]guest.Reg, len(tm.Params)), Imms: make([]int32, len(tm.Params))}
	for p := range tm.Params {
		b.Regs[p] = guest.Reg(p)
	}
	regOf := func(r guest.Reg) (host.Reg, bool) { return host.Reg(r), true }
	scratch := []host.Reg{host.EDI, host.ESI}
	check := func(host.Inst) error { return nil }
	if n := testing.AllocsPerRun(100, func() {
		var err error
		if sinkInsts, err = InstantiateChecked(tm, b, regOf, scratch, check); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("InstantiateChecked allocates %v times, want 1", n)
	}
	buf := make([]host.Inst, 0, 16)
	if n := testing.AllocsPerRun(100, func() {
		var err error
		if sinkInsts, err = AppendInstantiated(buf, tm, &b, regOf, scratch, check); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("AppendInstantiated into a large enough buffer allocates %v times, want 0", n)
	}
	want, _ := InstantiateChecked(tm, b, regOf, scratch, check)
	got, _ := AppendInstantiated(buf[:0], tm, &b, regOf, scratch, check)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("AppendInstantiated = %v, InstantiateChecked = %v", got, want)
	}
}
