package host

// The reference interpreter: the per-Inst loop CPU.Exec was before
// NewBlock pre-decoded blocks, kept verbatim (operands by value, a Kind
// switch per access, counters in memory, its own copies of the flag
// helpers and its own jump table) so that the differential tests and
// FuzzExecVsReference compare the pre-decoded loop against an
// implementation that shares no code with it.

import (
	"math"
	"math/bits"
)

// refTargets resolves jump labels the way NewBlock used to: the target
// index of the JMP/JCC at i, or -1.
func refTargets(b *Block) []int {
	jt := make([]int, len(b.Insts))
	for i, in := range b.Insts {
		jt[i] = -1
		if (in.Op == JMP || in.Op == JCC) && in.Dst.Kind == KindLabel {
			if t, ok := b.Labels()[in.Dst.Label]; ok {
				jt[i] = t
			}
		}
	}
	return jt
}

func refAddr(c *CPU, o Operand) uint32 {
	a := uint32(o.Disp) + c.R[o.Base]
	if o.Scale != 0 {
		a += c.R[o.Index] * uint32(o.Scale)
	}
	return a
}

func refRead(c *CPU, o Operand) uint32 {
	switch o.Kind {
	case KindReg:
		return c.R[o.Reg]
	case KindImm:
		return uint32(o.Imm)
	case KindMem:
		return c.Mem.Read32(refAddr(c, o))
	case KindXReg:
		return c.X[o.XReg]
	}
	return 0
}

func refWrite(c *CPU, o Operand, v uint32) {
	switch o.Kind {
	case KindReg:
		c.R[o.Reg] = v
	case KindMem:
		c.Mem.Write32(refAddr(c, o), v)
	case KindXReg:
		c.X[o.XReg] = v
	}
}

func refAddFlags32(a, b, carry uint32) (uint32, Flags) {
	s := uint64(a) + uint64(b) + uint64(carry)
	v := uint32(s)
	return v, Flags{
		ZF: v == 0,
		SF: v>>31 != 0,
		CF: s>>32 != 0,
		OF: (a>>31 == b>>31) && (v>>31 != a>>31),
	}
}

// subFlags32 computes a-b-borrow with the x86 convention: CF is the
// borrow flag (set when a borrow occurred) — the inverse of ARM's C.
func refSubFlags32(a, b, borrow uint32) (uint32, Flags) {
	v, f := refAddFlags32(a, ^b, 1-borrow)
	f.CF = !f.CF
	return v, f
}

func refLogicFlags32(v uint32) Flags {
	return Flags{ZF: v == 0, SF: v>>31 != 0}
}

// refExec is CPU.Exec as it stood before blocks were pre-decoded: one
// loop over Insts, operands by value through refRead/refWrite/refAddr,
// counters bumped in memory per instruction.
func refExec(c *CPU, b *Block, maxSteps uint64) (ExitResult, error) {
	var steps uint64
	ip := 0
	insts := b.Insts
	jt := refTargets(b)
	for {
		if ip < 0 || ip >= len(insts) {
			return ExitResult{}, &ExecError{ip, Inst{}, "instruction pointer out of block"}
		}
		if steps >= maxSteps {
			return ExitResult{}, &ExecError{ip, insts[ip], "step budget exhausted"}
		}
		in := insts[ip]
		steps++
		c.Executed[in.Cat]++

		switch in.Op {
		case MOVL:
			refWrite(c, in.Dst, refRead(c, in.Src))
		case LEAL:
			if in.Src.Kind != KindMem {
				return ExitResult{}, &ExecError{ip, in, "lea needs memory source"}
			}
			refWrite(c, in.Dst, refAddr(c, in.Src))
		case ADDL:
			v, f := refAddFlags32(refRead(c, in.Dst), refRead(c, in.Src), 0)
			refWrite(c, in.Dst, v)
			c.Flags = f
		case ADCL:
			ci := uint32(0)
			if c.Flags.CF {
				ci = 1
			}
			v, f := refAddFlags32(refRead(c, in.Dst), refRead(c, in.Src), ci)
			refWrite(c, in.Dst, v)
			c.Flags = f
		case SUBL:
			v, f := refSubFlags32(refRead(c, in.Dst), refRead(c, in.Src), 0)
			refWrite(c, in.Dst, v)
			c.Flags = f
		case SBBL:
			bi := uint32(0)
			if c.Flags.CF {
				bi = 1
			}
			v, f := refSubFlags32(refRead(c, in.Dst), refRead(c, in.Src), bi)
			refWrite(c, in.Dst, v)
			c.Flags = f
		case ANDL:
			v := refRead(c, in.Dst) & refRead(c, in.Src)
			refWrite(c, in.Dst, v)
			c.Flags = refLogicFlags32(v)
		case ORL:
			v := refRead(c, in.Dst) | refRead(c, in.Src)
			refWrite(c, in.Dst, v)
			c.Flags = refLogicFlags32(v)
		case XORL:
			v := refRead(c, in.Dst) ^ refRead(c, in.Src)
			refWrite(c, in.Dst, v)
			c.Flags = refLogicFlags32(v)
		case NOTL:
			refWrite(c, in.Dst, ^refRead(c, in.Dst))
		case NEGL:
			v, f := refSubFlags32(0, refRead(c, in.Dst), 0)
			refWrite(c, in.Dst, v)
			c.Flags = f
		case IMULL:
			refWrite(c, in.Dst, refRead(c, in.Dst)*refRead(c, in.Src))
		case SHLL:
			sh := refRead(c, in.Src) & 31
			v := refRead(c, in.Dst) << sh
			refWrite(c, in.Dst, v)
			if sh != 0 {
				c.Flags = refLogicFlags32(v)
			}
		case SHRL:
			sh := refRead(c, in.Src) & 31
			v := refRead(c, in.Dst) >> sh
			refWrite(c, in.Dst, v)
			if sh != 0 {
				c.Flags = refLogicFlags32(v)
			}
		case SARL:
			sh := refRead(c, in.Src) & 31
			v := uint32(int32(refRead(c, in.Dst)) >> sh)
			refWrite(c, in.Dst, v)
			if sh != 0 {
				c.Flags = refLogicFlags32(v)
			}
		case RORL:
			sh := refRead(c, in.Src) & 31
			refWrite(c, in.Dst, bits.RotateLeft32(refRead(c, in.Dst), -int(sh)))
		case CMPL:
			_, f := refSubFlags32(refRead(c, in.Dst), refRead(c, in.Src), 0)
			c.Flags = f
		case TESTL:
			c.Flags = refLogicFlags32(refRead(c, in.Dst) & refRead(c, in.Src))
		case MOVZBL:
			var v uint32
			if in.Src.Kind == KindMem {
				v = uint32(c.Mem.Read8(refAddr(c, in.Src)))
			} else {
				v = refRead(c, in.Src) & 0xff
			}
			refWrite(c, in.Dst, v)
		case MOVB:
			if in.Dst.Kind == KindMem {
				c.Mem.Write8(refAddr(c, in.Dst), byte(refRead(c, in.Src)))
			} else {
				refWrite(c, in.Dst, refRead(c, in.Dst)&^uint32(0xff)|refRead(c, in.Src)&0xff)
			}
		case BSRL:
			v := refRead(c, in.Src)
			if v == 0 {
				c.Flags.ZF = true
			} else {
				c.Flags.ZF = false
				refWrite(c, in.Dst, uint32(31-bits.LeadingZeros32(v)))
			}
		case PUSHL:
			c.R[ESP] -= 4
			c.Mem.Write32(c.R[ESP], refRead(c, in.Dst))
		case POPL:
			refWrite(c, in.Dst, c.Mem.Read32(c.R[ESP]))
			c.R[ESP] += 4
		case SETCC:
			v := uint32(0)
			if c.Flags.Eval(in.Cond) {
				v = 1
			}
			refWrite(c, in.Dst, v)
		case JMP:
			t := jt[ip]
			if t < 0 {
				return ExitResult{}, &ExecError{ip, in, "unresolved label"}
			}
			ip = t
			continue
		case JCC:
			if c.Flags.Eval(in.Cond) {
				t := jt[ip]
				if t < 0 {
					return ExitResult{}, &ExecError{ip, in, "unresolved label"}
				}
				ip = t
				continue
			}
		case MOVSS:
			refWrite(c, in.Dst, refRead(c, in.Src))
		case ADDSS:
			refWriteF(c, in.Dst, refReadF(c, in.Dst)+refReadF(c, in.Src))
		case SUBSS:
			refWriteF(c, in.Dst, refReadF(c, in.Dst)-refReadF(c, in.Src))
		case MULSS:
			refWriteF(c, in.Dst, refReadF(c, in.Dst)*refReadF(c, in.Src))
		case DIVSS:
			refWriteF(c, in.Dst, refReadF(c, in.Dst)/refReadF(c, in.Src))
		case UCOMISS:
			a, s := refReadF(c, in.Dst), refReadF(c, in.Src)
			// x86 ucomiss: ZF=equal-or-unordered, CF=less-or-unordered.
			un := a != a || s != s
			c.Flags = Flags{ZF: a == s || un, CF: a < s || un, SF: false, OF: false}
		case RET:
			return ExitResult{NextPC: 0, Steps: steps}, nil
		case ExitTB:
			return ExitResult{NextPC: refRead(c, in.Dst), Steps: steps}, nil
		default:
			return ExitResult{}, &ExecError{ip, in, "unimplemented opcode"}
		}
		ip++
	}
}

func refReadF(c *CPU, o Operand) float32     { return math.Float32frombits(refRead(c, o)) }
func refWriteF(c *CPU, o Operand, v float32) { refWrite(c, o, math.Float32bits(v)) }
