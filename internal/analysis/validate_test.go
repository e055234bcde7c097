package analysis

import (
	"testing"

	"paramdbt/internal/env"
	"paramdbt/internal/guest"
	"paramdbt/internal/host"
)

const testHaltPC uint32 = 0xffffffff

func slot(r int) host.Operand { return host.Mem(host.EBP, env.OffR0+4*int32(r)) }

// validateT runs the validator over one guest block and a hand-built
// host stream; labels maps block-local jump label ids to instruction
// indices (nil for straight-line streams).
func validateT(gseq []guest.Inst, pc uint32, insts []host.Inst, labels map[int]int) *BlockReport {
	hb := host.NewBlock(insts, labels)
	return ValidateBlock(pc, gseq, hb, ValidateOpts{HaltPC: testHaltPC})
}

// branchTo builds a guest B instruction whose target, placed as the
// (n+1)-th instruction of a block at pc, is the absolute address
// target (the assembler only takes symbolic labels).
func branchTo(pc, target uint32, n int, cond guest.Cond) guest.Inst {
	fall := pc + uint32(n+1)*guest.InstBytes
	in := guest.NewInst(guest.B, guest.ImmOp(int32(target-fall)/int32(guest.InstBytes)))
	in.Cond = cond
	return in
}

// TestValidateBlockProves proves a faithful translation: load, add,
// store back, exit to the halt sentinel.
func TestValidateBlockProves(t *testing.T) {
	rep := validateT(guest.MustAssemble("add r0, r0, r1\nhlt"), 0x1000, []host.Inst{
		host.I(host.MOVL, host.R(host.EAX), slot(0)),
		host.I(host.ADDL, host.R(host.EAX), slot(1)),
		host.I(host.MOVL, slot(0), host.R(host.EAX)),
		host.Exit(host.Imm(-1)),
	}, nil)
	if rep.Verdict != VerdictProved {
		t.Fatalf("verdict %s (%s), want proved", rep.Verdict, rep.Reason)
	}
	if rep.Proof == "" || rep.Paths == 0 || rep.Checks == 0 {
		t.Fatalf("degenerate proved report: %+v", rep)
	}
}

// TestValidateBlockRefutes hands the validator a host stream whose
// arithmetic is wrong on every input: the verdict must be refuted with
// a concretely confirmed witness — never inconclusive, and never a
// silent pass.
func TestValidateBlockRefutes(t *testing.T) {
	rep := validateT(guest.MustAssemble("add r0, r0, r1\nhlt"), 0x1000, []host.Inst{
		host.I(host.MOVL, host.R(host.EAX), slot(0)),
		host.I(host.ADDL, host.R(host.EAX), slot(1)),
		host.I(host.ADDL, host.R(host.EAX), host.Imm(1)), // off by one
		host.I(host.MOVL, slot(0), host.R(host.EAX)),
		host.Exit(host.Imm(-1)),
	}, nil)
	if rep.Verdict != VerdictRefuted {
		t.Fatalf("verdict %s (%s), want refuted", rep.Verdict, rep.Reason)
	}
	if rep.Witness == nil || !rep.Witness.Confirmed {
		t.Fatalf("refuted without a confirmed witness: %+v", rep.Witness)
	}
}

// TestValidateBlockWrongExitTarget hands the validator a stream whose
// constant exit target is off by one instruction: the path matcher
// cannot pair the exits at all, which must surface as a conservative
// inconclusive (the engine falls back), never as a proof.
func TestValidateBlockWrongExitTarget(t *testing.T) {
	gseq := append(guest.MustAssemble("add r0, r0, r1"), branchTo(0x1000, 0x2000, 1, guest.AL))
	rep := validateT(gseq, 0x1000, []host.Inst{
		host.I(host.MOVL, host.R(host.EAX), slot(0)),
		host.I(host.ADDL, host.R(host.EAX), slot(1)),
		host.I(host.MOVL, slot(0), host.R(host.EAX)),
		host.Exit(host.Imm(0x2004)), // wrong branch target
	}, nil)
	if rep.Verdict == VerdictProved {
		t.Fatalf("wrong exit target proved (proof=%s)", rep.Proof)
	}
	if rep.Verdict == VerdictInconclusive && rep.Reason == "" {
		t.Fatal("inconclusive with no reason")
	}
}

// TestValidateBlockRefutesExitPC catches a wrong computed exit pc — a
// register exit pairs structurally, then the pc check must concretely
// refute the off-by-four.
func TestValidateBlockRefutesExitPC(t *testing.T) {
	rep := validateT(guest.MustAssemble("bx lr"), 0x1000, []host.Inst{
		host.I(host.MOVL, host.R(host.EAX), slot(14)),
		host.I(host.ADDL, host.R(host.EAX), host.Imm(4)), // corrupt the target
		host.Exit(host.R(host.EAX)),
	}, nil)
	if rep.Verdict != VerdictRefuted {
		t.Fatalf("verdict %s (%s), want refuted", rep.Verdict, rep.Reason)
	}
	if rep.Witness == nil || !rep.Witness.Confirmed || rep.Witness.Check != "exit" {
		t.Fatalf("want confirmed exit witness, got %+v", rep.Witness)
	}
}

// TestValidateBlockInconclusive feeds a stream using an operation the
// symbolic host evaluator deliberately refuses to model (BSRL): the
// validator must fall to inconclusive — a conservative fallback — and
// must NOT refute a stream it cannot reason about.
func TestValidateBlockInconclusive(t *testing.T) {
	rep := validateT(guest.MustAssemble("clz r0, r1\nhlt"), 0x1000, []host.Inst{
		host.I(host.MOVL, host.R(host.ECX), slot(1)),
		host.I(host.BSRL, host.R(host.EAX), host.R(host.ECX)),
		host.I(host.MOVL, slot(0), host.R(host.EAX)), // not even clz semantics
		host.Exit(host.Imm(-1)),
	}, nil)
	if rep.Verdict != VerdictInconclusive {
		t.Fatalf("verdict %s (%s), want inconclusive", rep.Verdict, rep.Reason)
	}
	if rep.Reason == "" {
		t.Fatal("inconclusive with no reason")
	}
}

// TestValidateBlockConditional proves a two-path translation: guest
// conditional branch against a host compare-and-jump pair.
func TestValidateBlockConditional(t *testing.T) {
	// if (r0 == 0) goto 0x2000 else fall through to 0x1008
	gseq := append(guest.MustAssemble("cmp r0, #0"), branchTo(0x1000, 0x2000, 1, guest.EQ))
	rep := validateT(gseq, 0x1000, []host.Inst{
		host.I(host.CMPL, slot(0), host.Imm(0)),
		host.Jcc(host.E, 1),
		host.Exit(host.Imm(0x1008)),
		host.Exit(host.Imm(0x2000)),
	}, map[int]int{1: 3})
	if rep.Verdict != VerdictProved {
		t.Fatalf("verdict %s (%s), want proved", rep.Verdict, rep.Reason)
	}
	if rep.Paths < 2 {
		t.Fatalf("expected both paths paired, got %d", rep.Paths)
	}
}
