// Package core implements the paper's contribution: rule
// parameterization. Learned translation rules are generalized along the
// opcode dimension (instructions of the same subgroup share one
// parameterized rule) and the addressing-mode dimension (operands
// generalize across register/immediate/memory modes and data-dependence
// shapes), with constraints — commutativity, complex-op auxiliary
// instructions, dependence preservation, PC-use exclusion — enforced by
// re-verifying every derived rule with the symbolic executor, exactly
// as the paper's workflow prescribes (classify → parameterize → verify
// → merge).
package core

import (
	"paramdbt/internal/guest"
	"paramdbt/internal/host"
	"paramdbt/internal/rule"
)

// OpKind is the ISA-independent semantic operation kind; the guest and
// host classification tables meet at this type. This is the manual ISA
// knowledge the paper's classification step takes as input.
type OpKind uint8

// Operation kinds.
const (
	KNone OpKind = iota
	KAdd
	KAdc
	KSub
	KSbc
	KRsb
	KRsc
	KAnd
	KOr
	KXor
	KBic
	KShl
	KShr
	KSar
	KRor
	KMul
	KMov
	KMvn
	KClz
	KCmp
	KCmn
	KTst
	KTeq
	KLoad
	KLoadB
	KStore
	KStoreB
)

// guestKind classifies guest opcodes.
var guestKind = map[guest.Op]OpKind{
	guest.ADD: KAdd, guest.ADC: KAdc, guest.SUB: KSub, guest.SBC: KSbc,
	guest.RSB: KRsb, guest.RSC: KRsc, guest.AND: KAnd, guest.ORR: KOr,
	guest.EOR: KXor, guest.BIC: KBic, guest.LSL: KShl, guest.LSR: KShr,
	guest.ASR: KSar, guest.ROR: KRor, guest.MUL: KMul,
	guest.MOV: KMov, guest.MVN: KMvn, guest.CLZ: KClz,
	guest.CMP: KCmp, guest.CMN: KCmn, guest.TST: KTst, guest.TEQ: KTeq,
	guest.LDR: KLoad, guest.LDRB: KLoadB, guest.STR: KStore, guest.STRB: KStoreB,
}

// Subgroup is one classification bucket: instructions sharing data
// type, encoding format and operation class (paper §IV-A). The S bit
// splits subgroups because flag side effects differ (§IV-B).
type Subgroup struct {
	ID  string
	Ops []guest.Op
}

// GuestSubgroups is the guest ISA classification. Instructions absent
// from every subgroup (b, bl, bx, push, pop, mla, umla and the float
// ops, which the integer workloads never produce rules for) are not
// parameterizable — deliberately including five of the paper's seven
// unlearnable instructions; clz sits in the dp2 subgroup but has no
// host realization, and mla/umla sit alone in a subgroup with no
// learnable member.
var GuestSubgroups = []Subgroup{
	{ID: "al3", Ops: []guest.Op{
		guest.ADD, guest.SUB, guest.RSB, guest.AND, guest.ORR, guest.EOR,
		guest.BIC, guest.LSL, guest.LSR, guest.ASR, guest.ROR,
	}},
	{ID: "mul", Ops: []guest.Op{guest.MUL}},
	{ID: "mulacc", Ops: []guest.Op{guest.MLA, guest.UMLA}},
	{ID: "dp2", Ops: []guest.Op{guest.MOV, guest.MVN, guest.CLZ}},
	{ID: "cmp", Ops: []guest.Op{guest.CMP, guest.CMN, guest.TST, guest.TEQ}},
	{ID: "load", Ops: []guest.Op{guest.LDR, guest.LDRB}},
	{ID: "store", Ops: []guest.Op{guest.STR, guest.STRB}},
}

// SubgroupOf returns the subgroup id for a guest opcode ("" when the
// opcode is unclassified). The S bit suffixes the id: flag-setting
// variants form their own subgroups.
func SubgroupOf(op guest.Op, s bool) string {
	for _, g := range GuestSubgroups {
		for _, o := range g.Ops {
			if o == op {
				if s {
					return g.ID + "!"
				}
				return g.ID
			}
		}
	}
	return ""
}

// subgroupOps returns the members of a (possibly S-suffixed) subgroup.
func subgroupOps(id string) []guest.Op {
	base := id
	if n := len(id); n > 0 && id[n-1] == '!' {
		base = id[:n-1]
	}
	for _, g := range GuestSubgroups {
		if g.ID == base {
			return g.Ops
		}
	}
	return nil
}

// roles extracts the operand-slot roles of a single-instruction guest
// pattern: destination, first source, second source (or the two compare
// operands).
type roles struct {
	dst  rule.Arg
	src1 rule.Arg
	src2 rule.Arg
	n    int
}

func rolesOf(p rule.GPat) (roles, bool) {
	switch len(p.Args) {
	case 2:
		return roles{dst: p.Args[0], src1: p.Args[1], n: 2}, true
	case 3:
		return roles{dst: p.Args[0], src1: p.Args[1], src2: p.Args[2], n: 3}, true
	}
	return roles{}, false
}

// hostRealization synthesizes the host pattern implementing kind k over
// the given role slots. It returns nil when the kind has no host
// realization (clz, carry-in opcodes) — the underivable cases. scratch
// is the index of a free scratch slot the recipe may use.
//
// The recipes are the "auxiliary host instructions" of the paper's
// §IV-C: e.g. deriving bic from the arith/logic subgroup inserts
// movl+notl (Fig. 7), and non-RMW dependence shapes stage through a
// scratch register (Fig. 8). For flag-setting variants whose host
// anchor leaves EFLAGS undefined (shifts with arbitrary counts, moves,
// multiplies), sFlag appends a testl that re-derives N/Z from the
// result; the carry stays uncorresponded, so such rules apply only
// under condition-flag delegation of N/Z conditions.
func hostRealization(k OpKind, r roles, scratch int, sFlag bool) []rule.HPat {
	pats := hostRealizationBase(k, r, scratch)
	if pats == nil {
		return nil
	}
	if sFlag && needsTestFix(k) {
		dst := pats[len(pats)-1].Dst
		pats = append(pats, rule.HPat{Op: host.TESTL, Dst: dst, Src: dst})
	}
	return pats
}

// needsTestFix lists the kinds whose host anchor does not reliably set
// SF/ZF from the result.
func needsTestFix(k OpKind) bool {
	switch k {
	case KShl, KShr, KSar, KRor, KMov, KMvn, KMul:
		return true
	}
	return false
}

func hostRealizationBase(k OpKind, r roles, scratch int) []rule.HPat {
	two := map[OpKind]host.Op{
		KAdd: host.ADDL, KSub: host.SUBL, KAnd: host.ANDL, KOr: host.ORL,
		KXor: host.XORL, KShl: host.SHLL, KShr: host.SHRL, KSar: host.SARL,
		KRor: host.RORL, KMul: host.IMULL,
	}
	sameArg := func(a, b rule.Arg) bool {
		return a.Kind == guest.KindReg && b.Kind == guest.KindReg &&
			a.Param == b.Param && a.Param >= 0
	}
	s := rule.ScratchArg(scratch)
	switch {
	case r.n == 3:
		op, plain := two[k]
		switch {
		case plain && k != KMul && r.src2.Kind == guest.KindImm && sameArg(r.dst, r.src1):
			// op $imm, dst
			return []rule.HPat{{Op: op, Dst: r.dst, Src: r.src2}}
		case plain && sameArgOrImm(r.src2) && sameArg(r.dst, r.src1):
			return []rule.HPat{{Op: op, Dst: r.dst, Src: r.src2}}
		case plain:
			// Staged form, alias-safe for every dependence shape:
			//   movl src1, s; op src2, s; movl s, dst
			src2 := r.src2
			if k == KMul && src2.Kind == guest.KindImm {
				// imull takes register sources in our host ISA style;
				// keep the immediate (the simulator allows it), matching
				// two-address imul reg, imm semantics.
				_ = src2
			}
			return []rule.HPat{
				{Op: host.MOVL, Dst: s, Src: r.src1},
				{Op: op, Dst: s, Src: r.src2},
				{Op: host.MOVL, Dst: r.dst, Src: s},
			}
		case k == KRsb:
			// dst = src2 - src1
			return []rule.HPat{
				{Op: host.MOVL, Dst: s, Src: r.src2},
				{Op: host.SUBL, Dst: s, Src: r.src1},
				{Op: host.MOVL, Dst: r.dst, Src: s},
			}
		case k == KBic:
			// dst = src1 &^ src2: movl src2,s; notl s; andl src1,s; movl s,dst
			return []rule.HPat{
				{Op: host.MOVL, Dst: s, Src: r.src2},
				{Op: host.NOTL, Dst: s, Src: rule.NoArg()},
				{Op: host.ANDL, Dst: s, Src: r.src1},
				{Op: host.MOVL, Dst: r.dst, Src: s},
			}
		}
		return nil
	case r.n == 2:
		switch k {
		case KMov:
			return []rule.HPat{{Op: host.MOVL, Dst: r.dst, Src: r.src1}}
		case KMvn:
			return []rule.HPat{
				{Op: host.MOVL, Dst: r.dst, Src: r.src1},
				{Op: host.NOTL, Dst: r.dst, Src: rule.NoArg()},
			}
		case KCmp:
			return []rule.HPat{{Op: host.CMPL, Dst: r.dst, Src: r.src1}}
		case KTst:
			return []rule.HPat{{Op: host.TESTL, Dst: r.dst, Src: r.src1}}
		case KCmn:
			return []rule.HPat{
				{Op: host.MOVL, Dst: s, Src: r.dst},
				{Op: host.ADDL, Dst: s, Src: r.src1},
			}
		case KTeq:
			return []rule.HPat{
				{Op: host.MOVL, Dst: s, Src: r.dst},
				{Op: host.XORL, Dst: s, Src: r.src1},
			}
		case KLoad:
			return []rule.HPat{{Op: host.MOVL, Dst: r.dst, Src: r.src1}}
		case KLoadB:
			return []rule.HPat{{Op: host.MOVZBL, Dst: r.dst, Src: r.src1}}
		case KStore:
			return []rule.HPat{{Op: host.MOVL, Dst: r.src1, Src: r.dst}}
		case KStoreB:
			return []rule.HPat{{Op: host.MOVB, Dst: r.src1, Src: r.dst}}
		}
		return nil
	}
	return nil
}

// sameArgOrImm: whether the RMW single-instruction form is legal for
// this src2 (register or immediate both work on the host).
func sameArgOrImm(a rule.Arg) bool {
	return a.Kind == guest.KindReg || a.Kind == guest.KindImm
}

// hostRealizationUsesScratch reports whether any slot in pats is the
// scratch slot with index idx.
func hostRealizationUsesScratch(pats []rule.HPat, idx int) bool {
	uses := func(a rule.Arg) bool { return a.Scratch == idx }
	for _, p := range pats {
		if uses(p.Dst) || uses(p.Src) {
			return true
		}
	}
	return false
}
