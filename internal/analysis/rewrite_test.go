package analysis

import (
	"testing"

	"paramdbt/internal/backend"
	"paramdbt/internal/env"
	"paramdbt/internal/host"
)

func wantStructural(t *testing.T, what string, rep *BlockReport) {
	t.Helper()
	if rep.Obligation != ObligationRewrite {
		t.Fatalf("%s: obligation %q, want %q", what, rep.Obligation, ObligationRewrite)
	}
	if rep.Verdict != VerdictProved || rep.Proof != ProofStructural {
		t.Fatalf("%s: verdict %s/%s (%s), want proved/structural", what, rep.Verdict, rep.Proof, rep.Reason)
	}
	if rep.Paths == 0 || rep.Checks == 0 {
		t.Fatalf("%s: degenerate proved report: %+v", what, rep)
	}
}

// peepholeT runs the risc peephole over b, failing unless it deleted
// something: a shape it leaves alone exercises nothing.
func peepholeT(t *testing.T, b *host.Block) *host.Block {
	t.Helper()
	ob, st, err := backend.MustLookup("risc").(backend.Optimizer).OptimizeBlock(b)
	if err != nil {
		t.Fatal(err)
	}
	if st.Deleted() == 0 {
		t.Fatalf("peephole deleted nothing from:\n%s", b.Listing())
	}
	return ob
}

// legalizeT finalizes seq on the risc backend: its save / load / op /
// store / restore brackets are what the peephole cleans up.
func legalizeT(t *testing.T, seq []host.Inst) *host.Block {
	t.Helper()
	a := host.NewAsm()
	a.EmitAll(seq...)
	hb, err := backend.MustLookup("risc").Finalize(a)
	if err != nil {
		t.Fatal(err)
	}
	return hb
}

// Test data sits past the CPUState frame, so it is guest-visible memory
// as far as the rewrite contract goes (the same placement as the
// backend's peephole tests).
const (
	rwData  = int32(env.Size) + 64
	rwData2 = rwData + 4
)

// TestValidateRewriteProvesPeepholeShapes proves, structurally, the
// risc peephole's output on the shapes its own tests pin: legalized
// memory-destination chains that re-save and re-load the same scratch
// registers, a flag read between brackets, the slots the pass must
// keep, and the aliasing store that must invalidate a slot's value.
func TestValidateRewriteProvesPeepholeShapes(t *testing.T) {
	md := func(off int32) host.Operand { return host.Mem(host.EBP, off) }
	legalized := []struct {
		name string
		seq  []host.Inst
	}{
		{"same-slot-chain", []host.Inst{
			host.I(host.ADDL, md(rwData), host.R(host.ECX)),
			host.I(host.SUBL, md(rwData), host.R(host.EDX)),
			host.I(host.ADDL, md(rwData), host.Imm(9)),
		}},
		{"two-slot-interleave", []host.Inst{
			host.I(host.ADDL, md(rwData), host.R(host.ECX)),
			host.I(host.ADDL, md(rwData2), host.R(host.ECX)),
			host.I(host.ADCL, md(rwData), host.Imm(1)),
			host.I(host.SBBL, md(rwData2), host.R(host.EBX)),
		}},
		{"carry-chain-across-brackets", []host.Inst{
			host.I(host.ADDL, md(rwData), md(rwData2)),
			host.I(host.ADCL, host.R(host.EAX), md(rwData)),
			host.I(host.ADCL, md(rwData2), host.Imm(0)),
		}},
		{"flag-read-between", []host.Inst{
			host.I(host.CMPL, md(rwData), host.Imm(5)),
			{Op: host.SETCC, Cond: host.B, Dst: md(rwData2)},
			host.I(host.ADDL, md(rwData), md(rwData2)),
		}},
	}
	for _, tc := range legalized {
		seq := append(append([]host.Inst{}, tc.seq...), host.Exit(host.Imm(0x1234)))
		hb := legalizeT(t, seq)
		wantStructural(t, tc.name+"/identity", ValidateRewrite(hb, hb))
		wantStructural(t, tc.name, ValidateRewrite(hb, peepholeT(t, hb)))
	}

	keep := host.NewBlock([]host.Inst{
		host.I(host.MOVL, host.R(host.EAX), host.Imm(2)),
		host.I(host.MOVL, slot(3), host.R(host.EAX)),
		host.I(host.MOVL, host.R(host.EBX), host.Imm(1)),
		host.I(host.MOVL, md(env.OffN), host.R(host.EBX)),
		host.I(host.MOVL, md(env.OffC), host.R(host.EBX)),
		host.I(host.MOVL, md(env.OffLegal0), host.R(host.EBX)), // dead: deleted
		host.Exit(host.Imm(0x2000)),
	}, nil)
	wantStructural(t, "guest-words", ValidateRewrite(keep, peepholeT(t, keep)))

	alias := host.NewBlock(aliasShape(), nil)
	wantStructural(t, "alias", ValidateRewrite(alias, peepholeT(t, alias)))
}

// aliasShape stores through a pointer to a spill slot between two
// reloads of the slot: the second reload is live, and the value
// numbering that would call it redundant must die at the store. The
// reload of r3 after storing it is redundant.
func aliasShape() []host.Inst {
	spill := host.Mem(host.EBP, env.OffSpill(0))
	return []host.Inst{
		host.I(host.MOVL, host.R(host.ECX), spill),
		host.I(host.MOVL, host.R(host.ESI), host.Imm(int32(env.StateBase+uint32(env.OffSpill(0))))),
		host.I(host.MOVL, host.R(host.EDX), host.Imm(99)),
		host.I(host.MOVL, host.Mem(host.ESI, 0), host.R(host.EDX)), // 3 aliases the spill slot
		host.I(host.MOVL, host.R(host.ECX), spill),                 // 4 live reload
		host.I(host.MOVL, slot(3), host.R(host.ECX)),
		host.I(host.MOVL, host.R(host.EAX), slot(3)), // redundant reload
		host.I(host.MOVL, slot(4), host.R(host.EAX)),
		host.Exit(host.Imm(0x3000)),
	}
}

// TestValidateRewriteHostStackUnmodeled pins the one peephole-test
// shape outside the contract: PUSHL/POPL move data through the host
// stack, which the symbolic host evaluator does not model (translated
// code never emits them), so the rewrite stays unproved.
func TestValidateRewriteHostStackUnmodeled(t *testing.T) {
	md := func(off int32) host.Operand { return host.Mem(host.EBP, off) }
	hb := legalizeT(t, []host.Inst{
		host.I1(host.PUSHL, md(rwData)),
		host.I1(host.POPL, md(rwData2)),
		host.I(host.ADDL, md(rwData2), md(rwData)),
		host.Exit(host.Imm(0x1234)),
	})
	rep := ValidateRewrite(hb, peepholeT(t, hb))
	if rep.Verdict != VerdictInconclusive || rep.Reason == "" {
		t.Fatalf("verdict %s (%q), want inconclusive with a reason", rep.Verdict, rep.Reason)
	}
}

// rewriteBase is a two-path stream touching everything
// the rewrite contract covers: guest-register slots (r15 included), a
// live guest load, two ordered guest stores followed by a load through
// one of their addresses, a float-register move (lowered, as tcg lowers
// FMOV, to a load and a store through the CPUState), a flag setter
// feeding both a NZCV word and the branch, a guest-register store only
// one path makes, and two immediate exits.
func rewriteBase() ([]host.Inst, map[int]int) {
	return []host.Inst{
		host.I(host.MOVL, host.R(host.EAX), slot(1)),                            // 0
		host.I(host.MOVL, host.R(host.ESI), slot(4)),                            // 1
		host.I(host.MOVL, host.R(host.ECX), host.Mem(host.EAX, 8)),              // 2 live load
		host.I(host.MOVL, slot(2), host.R(host.ECX)),                            // 3 live slot store
		host.I(host.MOVL, host.Mem(host.EAX, 0), host.R(host.ECX)),              // 4 guest store
		host.I(host.MOVL, host.Mem(host.EAX, 4), host.R(host.ESI)),              // 5 guest store
		host.I(host.MOVL, host.R(host.EDX), host.Mem(host.EAX, 0)),              // 6 guest load
		host.I(host.MOVL, slot(3), host.R(host.EDX)),                            // 7
		host.I(host.MOVL, host.R(host.EBX), host.Mem(host.EBP, env.OffFReg(1))), // 8 f2 = f1
		host.I(host.MOVL, host.Mem(host.EBP, env.OffFReg(2)), host.R(host.EBX)), // 9 float-register store
		host.I(host.MOVL, slot(15), host.R(host.ESI)),                           // 10 r15 store
		host.I(host.CMPL, host.R(host.ECX), host.Imm(0)),                        // 11 flag setter
		{Op: host.SETCC, Cond: host.E, Dst: host.R(host.EDX)},                   // 12
		host.I(host.MOVL, host.Mem(host.EBP, env.OffZ), host.R(host.EDX)),       // 13
		host.Jcc(host.NE, 1),                             // 14
		host.I(host.MOVL, host.R(host.EDX), host.Imm(0)), // 15
		host.I(host.MOVL, slot(5), host.R(host.EDX)),     // 16 one path's store
		host.Exit(host.Imm(0x1000)),                      // 17
		host.Exit(host.Imm(0x2000)),                      // 18 label 1
	}, map[int]int{1: 18}
}

// without deletes instruction i, remapping labels past it.
func without(insts []host.Inst, labels map[int]int, i int) ([]host.Inst, map[int]int) {
	out := append(append([]host.Inst{}, insts[:i]...), insts[i+1:]...)
	nl := map[int]int{}
	for id, at := range labels {
		if at > i {
			at--
		}
		nl[id] = at
	}
	return out, nl
}

// TestValidateRewriteRejectsMutants hands the validator a broken
// "optimization" of rewriteBase per bug class a rewrite could commit.
// None may be proved; the identity rewrite must be, structurally.
func TestValidateRewriteRejectsMutants(t *testing.T) {
	base, labels := rewriteBase()
	before := host.NewBlock(base, labels)
	wantStructural(t, "identity", ValidateRewrite(before, before))

	mutants := map[string]func() ([]host.Inst, map[int]int){
		"deleted live guest-register slot store":  func() ([]host.Inst, map[int]int) { return without(base, labels, 3) },
		"deleted live load":                       func() ([]host.Inst, map[int]int) { return without(base, labels, 2) },
		"deleted float-register store":            func() ([]host.Inst, map[int]int) { return without(base, labels, 9) },
		"deleted r15 store":                       func() ([]host.Inst, map[int]int) { return without(base, labels, 10) },
		"deleted flag setter":                     func() ([]host.Inst, map[int]int) { return without(base, labels, 11) },
		"dropped one path's guest-register store": func() ([]host.Inst, map[int]int) { return without(base, labels, 16) },
		"two guest stores swapped": func() ([]host.Inst, map[int]int) {
			m := append([]host.Inst{}, base...)
			m[4], m[5] = m[5], m[4]
			return m, labels
		},
		"store moved past a guest load": func() ([]host.Inst, map[int]int) {
			m := append([]host.Inst{}, base...)
			m[4], m[5], m[6] = m[5], m[6], m[4]
			return m, labels
		},
		"bumped exit immediate": func() ([]host.Inst, map[int]int) {
			m := append([]host.Inst{}, base...)
			m[17].Dst.Imm += 4
			return m, labels
		},
		"retargeted JCC": func() ([]host.Inst, map[int]int) {
			return base, map[int]int{1: 17}
		},
	}
	alias := aliasShape()
	aliasMutant, _ := without(alias, nil, 4)
	if rep := ValidateRewrite(host.NewBlock(alias, nil), host.NewBlock(aliasMutant, nil)); rep.Verdict == VerdictProved {
		t.Errorf("reload across an aliasing store deleted: proved (%s)", rep.Proof)
	}
	for name, mk := range mutants {
		insts, ls := mk()
		rep := ValidateRewrite(before, host.NewBlock(insts, ls))
		if rep.Verdict == VerdictProved {
			t.Errorf("%s: proved (%s)", name, rep.Proof)
		} else if rep.Reason == "" {
			t.Errorf("%s: %s with no reason", name, rep.Verdict)
		}
	}
}

// TestValidateRewriteRefutesWithReplay checks that a divergence the two
// streams really exhibit comes back refuted with a witness confirmed on
// two host CPUs, not merely inconclusive: the "optimized" stream drops
// a reload that looks redundant but is not, so r4 gets r1's value.
func TestValidateRewriteRefutesWithReplay(t *testing.T) {
	before := []host.Inst{
		host.I(host.MOVL, host.R(host.EAX), slot(1)),
		host.I(host.MOVL, slot(2), host.R(host.EAX)),
		host.I(host.MOVL, host.R(host.EAX), slot(3)),
		host.I(host.MOVL, slot(4), host.R(host.EAX)),
		host.Exit(host.Imm(0x1000)),
	}
	after, _ := without(before, nil, 2)
	rep := ValidateRewrite(host.NewBlock(before, nil), host.NewBlock(after, nil))
	if rep.Verdict != VerdictRefuted || rep.Witness == nil || !rep.Witness.Confirmed || rep.Witness.Check != "r4" {
		t.Fatalf("verdict %s (%s), witness %+v: want a confirmed refutation on r4", rep.Verdict, rep.Reason, rep.Witness)
	}
}

// TestValidateRewriteSkeleton requires both streams to branch alike: a
// rewrite that drops a conditional branch changes the path count, and
// one that flips a condition changes the decisions.
func TestValidateRewriteSkeleton(t *testing.T) {
	base, labels := rewriteBase()
	before := host.NewBlock(base, labels)
	noBranch, nl := without(base, labels, 14)
	if rep := ValidateRewrite(before, host.NewBlock(noBranch, nl)); rep.Verdict == VerdictProved || rep.Paths != 0 {
		t.Fatalf("dropped branch: verdict %s, %d paths (%s)", rep.Verdict, rep.Paths, rep.Reason)
	}
	flipped := append([]host.Inst{}, base...)
	flipped[14].Cond = host.E
	if rep := ValidateRewrite(before, host.NewBlock(flipped, labels)); rep.Verdict == VerdictProved || rep.Paths != 0 {
		t.Fatalf("flipped condition: verdict %s, %d paths (%s)", rep.Verdict, rep.Paths, rep.Reason)
	}
}
