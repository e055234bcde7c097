package tcg

import (
	"fmt"

	"paramdbt/internal/env"
	"paramdbt/internal/guest"
	"paramdbt/internal/host"
)

// This file keeps the map-based lowering that Lower replaced — temp
// locations and last uses in maps keyed by temp id, the free list a
// growing slice — verbatim but for the names, as the oracle the
// slice-indexed Lower is checked against (TestLowerMatchesMapLowering).

// refBackend lowers an IR sequence into host instructions. Temps are
// register-allocated from a small pool with a last-use scan; temps that
// do not fit spill into the CPUState scratch area. The final pool entry
// is reserved as a staging register for memory-to-memory moves, flag
// tricks and address materialization.
//
// Guest-register accesses go through a mapping provided by the DBT block
// builder: a guest register is either block-allocated to a host register
// or resident in its CPUState slot. Either way, GetReg/SetReg lowering
// is tagged CatDataTransfer — it exists to maintain guest register
// values, which is exactly the paper's Table II "data transfer" column.
type refBackend struct {
	A    *host.Asm
	Map  func(guest.Reg) host.Operand
	pool []host.Reg // assignable temp registers (staging excluded)
	stg  host.Reg   // staging register

	loc     map[int]host.Operand
	lastUse map[int]int
	free    []host.Reg
	spill   int
}

// refLower translates the generator's IR into host instructions. pool must
// contain at least two registers; the last one is reserved for staging.
func refLower(a *host.Asm, g *Gen, mapf func(guest.Reg) host.Operand, pool []host.Reg) error {
	if len(pool) < 2 {
		return fmt.Errorf("tcg: temp pool needs >= 2 registers, got %d", len(pool))
	}
	b := &refBackend{
		A:       a,
		Map:     mapf,
		pool:    pool[:len(pool)-1],
		stg:     pool[len(pool)-1],
		loc:     make(map[int]host.Operand),
		lastUse: make(map[int]int),
	}
	for i, in := range g.Insts {
		for _, v := range []Val{in.A, in.B, in.C} {
			if !v.Const && v.T >= 0 {
				b.lastUse[v.T] = i
			}
		}
	}
	b.free = append(b.free, b.pool...)
	for i, in := range g.Insts {
		if err := b.lower(i, in); err != nil {
			return fmt.Errorf("tcg: lowering %q: %w", in, err)
		}
	}
	return nil
}

// alloc assigns a location to temp t.
func (b *refBackend) alloc(t int) host.Operand {
	if o, ok := b.loc[t]; ok {
		return o
	}
	var o host.Operand
	if len(b.free) > 0 {
		o = host.R(b.free[len(b.free)-1])
		b.free = b.free[:len(b.free)-1]
	} else {
		if b.spill >= env.NumScratch {
			// The scratch area is sized generously; running out means a
			// frontend bug, so fail loudly via an impossible operand.
			panic("tcg: out of spill slots")
		}
		o = host.Mem(host.EBP, env.OffSpill(b.spill))
		b.spill++
	}
	b.loc[t] = o
	return o
}

// release frees temp t's register if i is its last use.
func (b *refBackend) release(t, i int) {
	if b.lastUse[t] != i {
		return
	}
	if o, ok := b.loc[t]; ok && o.Kind == host.KindReg {
		b.free = append(b.free, o.Reg)
	}
	delete(b.loc, t)
}

// val returns the host operand for an IR value.
func (b *refBackend) val(v Val) host.Operand {
	if v.Const {
		return host.Imm(v.C)
	}
	return b.alloc(v.T)
}

// emit appends with the current default category (compute).
func (b *refBackend) emit(in host.Inst) { b.A.Emit(in) }

// move emits a move between arbitrary operands, staging through stg for
// memory-to-memory. It never touches EFLAGS.
func (b *refBackend) move(dst, src host.Operand) {
	if dst == src {
		return
	}
	if dst.Kind == host.KindMem && (src.Kind == host.KindMem) {
		b.emit(host.I(host.MOVL, host.R(b.stg), src))
		b.emit(host.I(host.MOVL, dst, host.R(b.stg)))
		return
	}
	b.emit(host.I(host.MOVL, dst, src))
}

// addrOperand turns an IR address value into a host memory operand,
// staging constants and spilled temps into stg.
func (b *refBackend) addrOperand(a Val, i int) host.Operand {
	if a.Const {
		b.emit(host.I(host.MOVL, host.R(b.stg), host.Imm(a.C)))
		return host.Mem(b.stg, 0)
	}
	o := b.alloc(a.T)
	b.release(a.T, i)
	if o.Kind == host.KindReg {
		return host.Mem(o.Reg, 0)
	}
	b.emit(host.I(host.MOVL, host.R(b.stg), o))
	return host.Mem(b.stg, 0)
}

var refALUOp = map[Op]host.Op{
	Add: host.ADDL, Sub: host.SUBL, And: host.ANDL, Or: host.ORL,
	Xor: host.XORL, Mul: host.IMULL, Shl: host.SHLL, Shr: host.SHRL,
	Sar: host.SARL, Ror: host.RORL,
}

var refCCCond = map[CC]host.Cond{
	CCEq: host.E, CCNe: host.NE, CCLtU: host.B, CCLeU: host.BE,
	CCGtU: host.A, CCGeU: host.AE, CCLtS: host.L, CCGeS: host.GE,
}

// setcc emits "setCC stg; movl stg, dst" reading current EFLAGS.
func (b *refBackend) setcc(c host.Cond, dst host.Operand) {
	b.emit(host.Inst{Op: host.SETCC, Cond: c, Dst: host.R(b.stg)})
	b.emit(host.I(host.MOVL, dst, host.R(b.stg)))
}

// lowerALU handles the common two-address pattern dst = a OP b.
// It guarantees the final emitted host instruction is the ALU op itself
// (so SaveFlags can trust EFLAGS), and that lowering never clobbers b
// before it is read.
func (b *refBackend) lowerALU(i int, in Inst) error {
	aop := b.val(in.A)
	bop := b.val(in.B)
	// Reuse a's register for dst when a dies here; the move disappears.
	var dst host.Operand
	if !in.A.Const && b.lastUse[in.A.T] == i {
		if o, ok := b.loc[in.A.T]; ok && o.Kind == host.KindReg {
			delete(b.loc, in.A.T)
			b.loc[in.Dst] = o
			dst = o
		}
	}
	if dst.Kind == host.KindNone {
		b.release2(in.A, i)
		dst = b.alloc(in.Dst)
		if dst == bop {
			// Cannot happen: b's register is not released until after
			// dst is allocated. Guard anyway rather than clobber b.
			return fmt.Errorf("alu destination aliased second operand")
		}
		b.move(dst, aop)
	}
	b.release2(in.B, i)
	if dst.Kind == host.KindMem && bop.Kind == host.KindMem {
		// mem/mem ALU is illegal on the host; stage b. (stg may have been
		// claimed as dst above only when dst was a register, so it is
		// free here.)
		b.emit(host.I(host.MOVL, host.R(b.stg), bop))
		bop = host.R(b.stg)
	}
	hop, ok := refALUOp[in.Op]
	if !ok {
		return fmt.Errorf("no host op for IR op %d", in.Op)
	}
	b.emit(host.I(hop, dst, bop))
	return nil
}

func (b *refBackend) release2(v Val, i int) {
	if !v.Const && v.T >= 0 {
		b.release(v.T, i)
	}
}

func (b *refBackend) lower(i int, in Inst) error {
	switch in.Op {
	case Nop:
		if in.Label != 0 {
			b.A.Bind(in.Label)
		}

	case Mov:
		aop := b.val(in.A)
		b.release2(in.A, i)
		b.move(b.alloc(in.Dst), aop)

	case GetReg:
		b.A.SetCat(host.CatDataTransfer)
		b.move(b.alloc(in.Dst), b.Map(in.GReg))
		b.A.SetCat(host.CatCompute)

	case SetReg:
		aop := b.val(in.A)
		b.release2(in.A, i)
		b.A.SetCat(host.CatDataTransfer)
		b.move(b.Map(in.GReg), aop)
		b.A.SetCat(host.CatCompute)

	case GetF:
		b.move(b.alloc(in.Dst), flagOff(in.Flag))

	case SetF:
		aop := b.val(in.A)
		b.release2(in.A, i)
		b.move(flagOff(in.Flag), aop)

	case Add, Sub, And, Or, Xor, Mul, Shl, Shr, Sar, Ror:
		return b.lowerALU(i, in)

	case AndNot:
		// dst = a &^ b: stage ^b, then and.
		aop := b.val(in.A)
		bop := b.val(in.B)
		b.release2(in.B, i)
		b.emit(host.I(host.MOVL, host.R(b.stg), bop))
		b.emit(host.I1(host.NOTL, host.R(b.stg)))
		b.release2(in.A, i)
		dst := b.alloc(in.Dst)
		if dst.Kind == host.KindReg && dst.Reg == b.stg {
			return fmt.Errorf("andnot staged into its own destination")
		}
		if dst.Kind == host.KindMem {
			// Spilled destination: park ~b in the slot first, freeing
			// the staging register for a possibly-spilled a.
			b.emit(host.I(host.MOVL, dst, host.R(b.stg)))
			if aop.Kind == host.KindMem {
				b.emit(host.I(host.MOVL, host.R(b.stg), aop))
				aop = host.R(b.stg)
			}
			b.emit(host.I(host.ANDL, dst, aop))
			break
		}
		b.move(dst, aop)
		b.emit(host.I(host.ANDL, dst, host.R(b.stg)))

	case Not, Neg:
		aop := b.val(in.A)
		b.release2(in.A, i)
		dst := b.alloc(in.Dst)
		b.move(dst, aop)
		op := host.NOTL
		if in.Op == Neg {
			op = host.NEGL
		}
		b.emit(host.I1(op, dst))

	case Clz:
		// dst = 32 when a == 0, else 31 - bsr(a).
		aop := b.val(in.A)
		b.release2(in.A, i)
		dst := b.alloc(in.Dst)
		if dst.Kind == host.KindMem {
			return b.clzViaStaging(aop, dst)
		}
		skip := b.A.NewLabel()
		b.emit(host.I(host.MOVL, host.R(b.stg), aop))
		b.emit(host.I(host.MOVL, dst, host.Imm(32)))
		b.emit(host.I(host.BSRL, host.R(b.stg), host.R(b.stg)))
		b.emit(host.Jcc(host.E, skip))
		b.emit(host.I(host.MOVL, dst, host.Imm(31)))
		b.emit(host.I(host.SUBL, dst, host.R(b.stg)))
		b.A.Bind(skip)

	case Adc, Sbb:
		aop := b.val(in.A)
		bop := b.val(in.B)
		cop := b.val(in.C)
		// Release A before allocating dst (dst may reuse a's register);
		// B only afterwards so dst can never alias it.
		b.release2(in.A, i)
		dst := b.alloc(in.Dst)
		b.release2(in.B, i)
		if dst.Kind == host.KindReg && dst.Reg == b.stg {
			return fmt.Errorf("adc/sbb destination aliased staging")
		}
		// Move a into dst first, while the staging register is still
		// free for a possible memory-to-memory move. The carry setup
		// below uses only flag-preserving moves afterwards.
		b.move(dst, aop)
		// Host CF := carry (Adc) or NOT carry (Sbb, ARM carry = no-borrow).
		b.emit(host.I(host.MOVL, host.R(b.stg), cop))
		b.release2(in.C, i)
		if in.Op == Sbb {
			b.emit(host.I(host.XORL, host.R(b.stg), host.Imm(1)))
		}
		b.emit(host.I1(host.NEGL, host.R(b.stg))) // CF = (stg != 0)
		op := host.ADCL
		if in.Op == Sbb {
			op = host.SBBL
		}
		if dst.Kind == host.KindMem && bop.Kind == host.KindMem {
			// Both spilled: borrow a pool register around the ALU. Both
			// operands are EBP-relative slots, so the borrowed register
			// cannot alias them, and every move preserves CF.
			br := b.pool[0]
			b.emit(host.I(host.MOVL, host.Mem(host.EBP, env.OffBorrow), host.R(br)))
			b.emit(host.I(host.MOVL, host.R(br), bop))
			b.emit(host.I(op, dst, host.R(br)))
			b.emit(host.I(host.MOVL, host.R(br), host.Mem(host.EBP, env.OffBorrow)))
			break
		}
		b.emit(host.I(op, dst, bop))

	case SetCC:
		aop := b.val(in.A)
		bop := b.val(in.B)
		b.release2(in.A, i)
		b.release2(in.B, i)
		cmp := aop
		if cmp.Kind == host.KindImm {
			b.emit(host.I(host.MOVL, host.R(b.stg), cmp))
			cmp = host.R(b.stg)
		}
		if cmp.Kind == host.KindMem && bop.Kind == host.KindMem {
			b.emit(host.I(host.MOVL, host.R(b.stg), bop))
			bop = host.R(b.stg)
		}
		b.emit(host.I(host.CMPL, cmp, bop))
		b.setcc(refCCCond[in.CC], b.alloc(in.Dst))

	case Ld32, Ld8:
		m := b.addrOperand(in.A, i)
		dst := b.alloc(in.Dst)
		op := host.MOVL
		if in.Op == Ld8 {
			op = host.MOVZBL
		}
		if dst.Kind == host.KindMem {
			// Cannot load mem->mem; stage. stg may already hold the
			// address, in which case borrow a pool register.
			if m.Base == b.stg {
				br := b.pool[0]
				b.emit(host.I(host.MOVL, host.Mem(host.EBP, env.OffBorrow), host.R(br)))
				b.emit(host.I(op, host.R(br), m))
				b.emit(host.I(host.MOVL, dst, host.R(br)))
				b.emit(host.I(host.MOVL, host.R(br), host.Mem(host.EBP, env.OffBorrow)))
			} else {
				b.emit(host.I(op, host.R(b.stg), m))
				b.emit(host.I(host.MOVL, dst, host.R(b.stg)))
			}
		} else {
			b.emit(host.I(op, dst, m))
		}

	case St32, St8:
		m := b.addrOperand(in.B, i)
		vop := b.val(in.A)
		b.release2(in.A, i)
		op := host.MOVL
		if in.Op == St8 {
			op = host.MOVB
		}
		if vop.Kind == host.KindMem {
			if m.Base == b.stg {
				// Both the address and the value need staging: borrow a
				// pool register around the store.
				br := b.pool[0]
				b.emit(host.I(host.MOVL, host.Mem(host.EBP, env.OffBorrow), host.R(br)))
				b.emit(host.I(host.MOVL, host.R(br), vop))
				b.emit(host.I(op, m, host.R(br)))
				b.emit(host.I(host.MOVL, host.R(br), host.Mem(host.EBP, env.OffBorrow)))
				break
			}
			b.emit(host.I(host.MOVL, host.R(b.stg), vop))
			vop = host.R(b.stg)
		}
		b.emit(host.I(op, m, vop))

	case SaveFlags:
		switch in.Fam {
		case FamAdd, FamSub:
			carry := host.B
			if in.Fam == FamSub {
				carry = host.AE // ARM C = no borrow = !CF
			}
			b.setcc(carry, flagOff(FlagC))
			b.setcc(host.O, flagOff(FlagV))
			b.setcc(host.S, flagOff(FlagN))
			b.setcc(host.E, flagOff(FlagZ))
		case FamLogic:
			b.setcc(host.S, flagOff(FlagN))
			b.setcc(host.E, flagOff(FlagZ))
			b.emit(host.I(host.MOVL, flagOff(FlagV), host.Imm(0)))
		case FamTest, FamShift:
			aop := b.val(in.A)
			b.release2(in.A, i)
			if aop.Kind == host.KindImm {
				b.emit(host.I(host.MOVL, host.R(b.stg), aop))
				aop = host.R(b.stg)
			}
			if aop.Kind == host.KindMem {
				b.emit(host.I(host.CMPL, aop, host.Imm(0)))
				// cmpl mem,$0 gives flags of mem-0: SF/ZF usable, but SF
				// is of the subtraction; mem-0 == mem so SF/ZF match.
			} else {
				b.emit(host.I(host.TESTL, aop, aop))
			}
			b.setcc(host.S, flagOff(FlagN))
			b.setcc(host.E, flagOff(FlagZ))
			b.emit(host.I(host.MOVL, flagOff(FlagV), host.Imm(0)))
			if in.Fam == FamShift {
				cop := b.val(in.C)
				b.release2(in.C, i)
				b.move(flagOff(FlagC), cop)
			}
		}

	case Brz, Brnz:
		if in.A.Const {
			taken := (in.A.C == 0) == (in.Op == Brz)
			if taken {
				b.emit(host.Jmp(in.Label))
			}
			break
		}
		aop := b.val(in.A)
		b.release2(in.A, i)
		if aop.Kind == host.KindMem {
			b.emit(host.I(host.CMPL, aop, host.Imm(0)))
		} else {
			b.emit(host.I(host.TESTL, aop, aop))
		}
		cond := host.E
		if in.Op == Brnz {
			cond = host.NE
		}
		b.emit(host.Jcc(cond, in.Label))

	case Br:
		b.emit(host.Jmp(in.Label))

	case FAdd, FSub, FMul, FDiv:
		fm := guest.FReg(in.A.C)
		b.emit(host.I(host.MOVSS, host.X(0), host.Mem(host.EBP, env.OffFReg(int(in.FRegN)))))
		b.emit(host.I(host.MOVSS, host.X(1), host.Mem(host.EBP, env.OffFReg(int(fm)))))
		var op host.Op
		switch in.Op {
		case FAdd:
			op = host.ADDSS
		case FSub:
			op = host.SUBSS
		case FMul:
			op = host.MULSS
		default:
			op = host.DIVSS
		}
		b.emit(host.I(op, host.X(0), host.X(1)))
		b.emit(host.I(host.MOVSS, host.Mem(host.EBP, env.OffFReg(int(in.FRegD))), host.X(0)))

	case FMovF:
		b.move(host.Mem(host.EBP, env.OffFReg(int(in.FRegD))),
			host.Mem(host.EBP, env.OffFReg(int(in.FRegN))))

	case FCmp:
		// Guest flags from comparing FRegD (a) with FRegN (b). Assumes
		// ordered inputs (no NaNs); see package doc.
		b.emit(host.I(host.MOVSS, host.X(0), host.Mem(host.EBP, env.OffFReg(int(in.FRegD)))))
		b.emit(host.I(host.MOVSS, host.X(1), host.Mem(host.EBP, env.OffFReg(int(in.FRegN)))))
		b.emit(host.I(host.UCOMISS, host.X(0), host.X(1)))
		b.setcc(host.B, flagOff(FlagN))  // a < b
		b.setcc(host.E, flagOff(FlagZ))  // a == b
		b.setcc(host.AE, flagOff(FlagC)) // a >= b
		b.emit(host.I(host.MOVL, flagOff(FlagV), host.Imm(0)))

	case FLd:
		m := b.addrOperand(in.A, i)
		b.emit(host.I(host.MOVSS, host.X(0), m))
		b.emit(host.I(host.MOVSS, host.Mem(host.EBP, env.OffFReg(int(in.FRegD))), host.X(0)))

	case FSt:
		m := b.addrOperand(in.A, i)
		b.emit(host.I(host.MOVSS, host.X(0), host.Mem(host.EBP, env.OffFReg(int(in.FRegN)))))
		b.emit(host.I(host.MOVSS, m, host.X(0)))

	default:
		return fmt.Errorf("unhandled IR op %d", in.Op)
	}
	return nil
}

// clzViaStaging handles the rare spilled-destination CLZ.
func (b *refBackend) clzViaStaging(aop, dst host.Operand) error {
	skip := b.A.NewLabel()
	b.emit(host.I(host.MOVL, host.R(b.stg), aop))
	b.emit(host.I(host.MOVL, dst, host.Imm(32)))
	b.emit(host.I(host.BSRL, host.R(b.stg), host.R(b.stg)))
	b.emit(host.Jcc(host.E, skip))
	b.emit(host.I(host.XORL, host.R(b.stg), host.Imm(31))) // 31-bsr for bsr<=31
	b.emit(host.I(host.MOVL, dst, host.R(b.stg)))
	b.A.Bind(skip)
	return nil
}
