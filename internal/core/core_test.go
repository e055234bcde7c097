package core

import (
	"math/rand"
	"strings"
	"testing"

	"paramdbt/internal/guest"
	"paramdbt/internal/host"
	"paramdbt/internal/mem"
	"paramdbt/internal/rule"
	"paramdbt/internal/symexec"
)

// learnedAddRule is the canonical learned seed: add p0,p0,p1 => addl.
func learnedAddRule() *rule.Template {
	t := &rule.Template{
		Guest:  []rule.GPat{{Op: guest.ADD, Args: []rule.Arg{rule.RegArg(0), rule.RegArg(0), rule.RegArg(1)}}},
		Host:   []rule.HPat{{Op: host.ADDL, Dst: rule.RegArg(0), Src: rule.RegArg(1)}},
		Params: []rule.ParamKind{rule.PReg, rule.PReg},
		Origin: rule.OriginLearned,
	}
	if _, ok := rule.Verify(t); !ok {
		panic("seed rule does not verify")
	}
	return t
}

func learnedCmpRule() *rule.Template {
	t := &rule.Template{
		Guest:  []rule.GPat{{Op: guest.CMP, Args: []rule.Arg{rule.RegArg(0), rule.RegArg(1)}}},
		Host:   []rule.HPat{{Op: host.CMPL, Dst: rule.RegArg(0), Src: rule.RegArg(1)}},
		Params: []rule.ParamKind{rule.PReg, rule.PReg},
		Origin: rule.OriginLearned,
	}
	if _, ok := rule.Verify(t); !ok {
		panic("cmp seed does not verify")
	}
	return t
}

func seedStore(rules ...*rule.Template) *rule.Store {
	s := rule.NewStore()
	for _, r := range rules {
		s.Add(r)
	}
	return s
}

func TestSubgroupClassification(t *testing.T) {
	if SubgroupOf(guest.ADD, false) != "al3" || SubgroupOf(guest.EOR, false) != "al3" {
		t.Fatal("add/eor not in al3")
	}
	if SubgroupOf(guest.ADD, true) != "al3!" {
		t.Fatal("S variant shares subgroup with non-S")
	}
	if SubgroupOf(guest.MLA, false) != "mulacc" || SubgroupOf(guest.MUL, false) != "mul" {
		t.Fatal("mul/mla subgroups wrong (operand-count formats must split)")
	}
	if SubgroupOf(guest.B, false) != "" || SubgroupOf(guest.PUSH, false) != "" {
		t.Fatal("control/stack ops must be unclassified")
	}
	if SubgroupOf(guest.CLZ, false) != "dp2" {
		t.Fatal("clz not in dp2")
	}
}

func TestOpcodeParameterizationDerivesEor(t *testing.T) {
	// The paper's headline example (Fig. 3): a learned add rule derives
	// the eor rule without eor in the training set.
	out, counts := Parameterize(seedStore(learnedAddRule()), Config{Opcode: true})
	found := false
	for _, tm := range out.All() {
		if tm.GuestLen() == 1 && tm.Guest[0].Op == guest.EOR && tm.Origin != rule.OriginLearned {
			found = true
		}
	}
	if !found {
		t.Fatalf("eor not derived from add; store:\n%s", out.Dump())
	}
	if counts.Instantiated <= counts.Learned {
		t.Fatalf("no expansion: %+v", counts)
	}
}

func TestComplexOpAdapters(t *testing.T) {
	// bic (Fig. 7), rsb and mvn-like derivations must exist and verify.
	out, _ := Parameterize(seedStore(learnedAddRule()), Config{Opcode: true, AddrMode: true})
	wantOps := []guest.Op{guest.BIC, guest.RSB, guest.SUB, guest.ORR, guest.AND, guest.LSL, guest.ROR}
	for _, op := range wantOps {
		found := false
		for _, tm := range out.All() {
			if tm.GuestLen() == 1 && tm.Guest[0].Op == op {
				found = true
			}
		}
		if !found {
			t.Errorf("op %v not derived", op)
		}
	}
}

func TestClzNotDerived(t *testing.T) {
	mov := &rule.Template{
		Guest:  []rule.GPat{{Op: guest.MOV, Args: []rule.Arg{rule.RegArg(0), rule.RegArg(1)}}},
		Host:   []rule.HPat{{Op: host.MOVL, Dst: rule.RegArg(0), Src: rule.RegArg(1)}},
		Params: []rule.ParamKind{rule.PReg, rule.PReg},
		Origin: rule.OriginLearned,
	}
	if _, ok := rule.Verify(mov); !ok {
		t.Fatal("mov seed does not verify")
	}
	out, _ := Parameterize(seedStore(mov), Config{Opcode: true, AddrMode: true})
	for _, tm := range out.All() {
		if tm.GuestLen() == 1 && tm.Guest[0].Op == guest.CLZ {
			t.Fatalf("clz derived despite having no host realization: %q", tm)
		}
		if tm.GuestLen() == 1 && tm.Guest[0].Op == guest.MVN && tm.Origin != rule.OriginLearned {
			return // mvn derived: good
		}
	}
	t.Fatal("mvn not derived from mov")
}

func TestAddressingModeDerivation(t *testing.T) {
	// From a reg-mode add rule, immediate-mode and other dependence
	// shapes must be derived (Figs. 4 and 8).
	out, _ := Parameterize(seedStore(learnedAddRule()), Config{Opcode: true, AddrMode: true})
	var immForm, distinct3, aliased *rule.Template
	for _, tm := range out.All() {
		if tm.GuestLen() != 1 || tm.Guest[0].Op != guest.ADD {
			continue
		}
		sig := shapeSig(tm.Guest[0])
		switch sig {
		case "r0,r0,i,":
			immForm = tm
		case "r0,r1,r2,":
			distinct3 = tm
		case "r0,r1,r0,":
			aliased = tm
		}
	}
	if immForm == nil {
		t.Error("immediate form not derived")
	}
	if distinct3 == nil {
		t.Error("all-distinct shape not derived")
	}
	if aliased == nil {
		t.Error("dst==src2 shape not derived (Fig. 8 case)")
	}
}

func TestDerivedRulesAllVerify(t *testing.T) {
	out, _ := Parameterize(seedStore(learnedAddRule(), learnedCmpRule()), Config{Opcode: true, AddrMode: true})
	for _, tm := range out.All() {
		cp := *tm
		if res, ok := rule.Verify(&cp); !ok {
			t.Fatalf("stored rule fails re-verification: %q: %s", tm, res.Reason)
		}
	}
}

func TestTableIIICountsShape(t *testing.T) {
	out, counts := Parameterize(seedStore(learnedAddRule(), learnedCmpRule()), Config{Opcode: true, AddrMode: true})
	if counts.OpcodeParam > counts.Learned+2 {
		t.Fatalf("opcode-param count should roughly merge: %+v", counts)
	}
	if counts.AddrModeParam > counts.OpcodeParam {
		t.Fatalf("mode-param must not exceed opcode-param: %+v", counts)
	}
	if counts.Instantiated < 5*counts.Learned {
		t.Fatalf("instantiated expansion too small: %+v (store %d)", counts, out.Len())
	}
}

func TestSeqRulesPassThrough(t *testing.T) {
	seq := &rule.Template{
		Guest: []rule.GPat{
			{Op: guest.ADD, Args: []rule.Arg{rule.RegArg(0), rule.RegArg(0), rule.RegArg(1)}},
			{Op: guest.EOR, Args: []rule.Arg{rule.RegArg(0), rule.RegArg(0), rule.RegArg(1)}},
		},
		Host: []rule.HPat{
			{Op: host.ADDL, Dst: rule.RegArg(0), Src: rule.RegArg(1)},
			{Op: host.XORL, Dst: rule.RegArg(0), Src: rule.RegArg(1)},
		},
		Params: []rule.ParamKind{rule.PReg, rule.PReg},
		Origin: rule.OriginLearned,
	}
	if _, ok := rule.Verify(seq); !ok {
		t.Fatal("sequence seed does not verify")
	}
	out, counts := Parameterize(seedStore(seq), Config{Opcode: true, AddrMode: true})
	// Sequence rules are not parameterized (paper §V-D) but survive.
	foundSeq := false
	for _, tm := range out.All() {
		if tm.GuestLen() == 2 {
			foundSeq = true
		}
	}
	if !foundSeq {
		t.Fatal("sequence rule lost")
	}
	if counts.OpcodeParam != 1 { // counted as unparameterizable
		t.Fatalf("sequence rule accounting: %+v", counts)
	}
}

func TestSFlagVariantsDerivedWithinSSubgroup(t *testing.T) {
	subs := &rule.Template{
		Guest:  []rule.GPat{{Op: guest.SUB, S: true, Args: []rule.Arg{rule.RegArg(0), rule.RegArg(0), rule.RegArg(1)}}},
		Host:   []rule.HPat{{Op: host.SUBL, Dst: rule.RegArg(0), Src: rule.RegArg(1)}},
		Params: []rule.ParamKind{rule.PReg, rule.PReg},
		Origin: rule.OriginLearned,
	}
	if _, ok := rule.Verify(subs); !ok {
		t.Fatal("subs seed does not verify")
	}
	out, _ := Parameterize(seedStore(subs), Config{Opcode: true, AddrMode: true})
	var adds, eors *rule.Template
	for _, tm := range out.All() {
		if tm.GuestLen() != 1 || !tm.Guest[0].S {
			continue
		}
		switch tm.Guest[0].Op {
		case guest.ADD:
			adds = tm
		case guest.EOR:
			eors = tm
		}
	}
	if adds == nil || eors == nil {
		t.Fatalf("S-variants not derived (adds=%v eors=%v)", adds != nil, eors != nil)
	}
	if !adds.SetsFlags || !adds.Flags.NZMatch || !adds.Flags.CMatch {
		t.Fatalf("adds flag metadata: %+v", adds.Flags)
	}
	if !eors.SetsFlags || !eors.Flags.NZMatch || eors.Flags.CMatch || eors.Flags.CInverted {
		t.Fatalf("eors flag metadata: %+v", eors.Flags)
	}
	// The derived subs-family delegation uses inverted carry; the logic
	// family has no carry correspondence but materializes fine.
	if !FlagsMaterializable(adds.Flags, false) {
		t.Fatal("adds not materializable")
	}
	if !FlagsMaterializable(eors.Flags, true) {
		t.Fatal("eors not materializable as logic family")
	}
}

// TestDelegationTableSound is the key property test for condition-flag
// delegation: for every guest ALU family, every condition the table
// claims delegable must agree with the architectural flags on random
// values.
func TestDelegationTableSound(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	type fam struct {
		gop  guest.Op
		hop  host.Op
		fc   symexec.FlagCorrespondence
		name string
	}
	fams := []fam{
		{guest.ADD, host.ADDL, symexec.FlagCorrespondence{NZMatch: true, CMatch: true, VMatch: true}, "add"},
		{guest.SUB, host.SUBL, symexec.FlagCorrespondence{NZMatch: true, CInverted: true, VMatch: true}, "sub"},
		{guest.CMP, host.CMPL, symexec.FlagCorrespondence{NZMatch: true, CInverted: true, VMatch: true}, "cmp"},
		{guest.AND, host.ANDL, symexec.FlagCorrespondence{NZMatch: true, VMatch: true}, "and"},
		{guest.EOR, host.XORL, symexec.FlagCorrespondence{NZMatch: true, VMatch: true}, "eor"},
	}
	for _, f := range fams {
		for trial := 0; trial < 2000; trial++ {
			a, b := r.Uint32(), r.Uint32()
			if trial%4 == 0 {
				b = a // boundary: equal operands
			}
			gres, _ := guest.EvalALU(f.gop, a, b, false)

			cpu := host.NewCPU(mem.New())
			cpu.R[host.EAX] = a
			blk := host.NewBlock([]host.Inst{
				host.I(f.hop, host.R(host.EAX), host.Imm(int32(b))),
				host.Exit(host.Imm(0)),
			}, nil)
			if _, err := cpu.Exec(blk, 10); err != nil {
				t.Fatal(err)
			}

			for c := guest.Cond(1); c < guest.NumConds; c++ {
				hc, ok := DelegateCond(f.fc, c)
				if !ok {
					continue
				}
				want := gres.Flags.Eval(c)
				got := cpu.Flags.Eval(hc)
				if want != got {
					t.Fatalf("family %s cond %v: guest=%v host(%v)=%v (a=%#x b=%#x gflags=%v hflags=%v)",
						f.name, c, want, hc, got, a, b, gres.Flags, cpu.Flags)
				}
			}
		}
	}
}

func TestDelegationRefusesUnsound(t *testing.T) {
	// Add family must not delegate HI/LS (no single host condition).
	addFC := symexec.FlagCorrespondence{NZMatch: true, CMatch: true, VMatch: true}
	if _, ok := DelegateCond(addFC, guest.HI); ok {
		t.Fatal("HI delegated for add family")
	}
	// Logic family must not delegate carry conditions.
	logicFC := symexec.FlagCorrespondence{NZMatch: true, VMatch: true}
	for _, c := range []guest.Cond{guest.CS, guest.CC, guest.HI, guest.LS} {
		if _, ok := DelegateCond(logicFC, c); ok {
			t.Fatalf("%v delegated for logic family", c)
		}
	}
}

func TestMulaccHasNoDerivations(t *testing.T) {
	// mla/umla sit in their own subgroup with no learnable seed, so the
	// paper's "cannot be derived" holds structurally.
	out, _ := Parameterize(seedStore(learnedAddRule()), Config{Opcode: true, AddrMode: true})
	for _, tm := range out.All() {
		if tm.GuestLen() == 1 && (tm.Guest[0].Op == guest.MLA || tm.Guest[0].Op == guest.UMLA) {
			t.Fatalf("mla/umla derived: %q", tm)
		}
	}
}

func TestParameterizeIsDeterministic(t *testing.T) {
	a, _ := Parameterize(seedStore(learnedAddRule(), learnedCmpRule()), Config{Opcode: true, AddrMode: true})
	b, _ := Parameterize(seedStore(learnedAddRule(), learnedCmpRule()), Config{Opcode: true, AddrMode: true})
	if a.Dump() != b.Dump() {
		t.Fatal("nondeterministic parameterization")
	}
}

func TestDumpMentionsOrigins(t *testing.T) {
	out, _ := Parameterize(seedStore(learnedAddRule()), Config{Opcode: true, AddrMode: true})
	d := out.Dump()
	if !strings.Contains(d, "opcode-param") || !strings.Contains(d, "mode-param") {
		t.Fatalf("origins missing in dump:\n%s", d)
	}
}
