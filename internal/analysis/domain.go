// Package analysis is the static rule auditor: dataflow passes and
// abstract-domain soundness checking over parameterized translation
// rules. Where internal/symexec verifies one concrete instantiation of
// a rule, this package lifts the rule's parametric immediates into
// symbols and decides equivalence over the rule's whole instantiation
// domain, classifying every rule as sound, unsound (with a concrete
// witness instantiation the symbolic verifier confirms diverges) or
// inconclusive. Verdicts feed the pipeline: unsound rules are
// quarantined before execution, the learn pipeline rejects them at
// admission, and inconclusive rules are admitted and shadow-verified
// like any other (see docs/ANALYSIS.md).
package analysis

import (
	"math/bits"

	"paramdbt/internal/symexec"
)

// KnownBits is the bit-level component of the abstract domain: Zeros
// and Ones are the bit masks proven 0 respectively 1 in every concrete
// value the abstract value stands for. Zeros&Ones == 0 for any
// consistent value; both masks empty is top.
type KnownBits struct {
	Zeros, Ones uint32
}

// Interval is the unsigned value-range component, inclusive on both
// ends. [0, 0xffffffff] is top.
type Interval struct {
	Lo, Hi uint32
}

// AbsVal is the product domain used by the auditor: an unsigned
// interval refined by known bits. The two components are tightened
// against each other on construction (see norm).
type AbsVal struct {
	KB KnownBits
	IV Interval
}

// Top returns the unconstrained abstract value.
func Top() AbsVal {
	return AbsVal{IV: Interval{0, 0xffffffff}}
}

// FromConst abstracts a single concrete value exactly.
func FromConst(v uint32) AbsVal {
	return AbsVal{KB: KnownBits{Zeros: ^v, Ones: v}, IV: Interval{v, v}}
}

// FromRange abstracts the inclusive unsigned range [lo, hi]: the
// interval is exact and the known bits are the shared prefix of lo and
// hi.
func FromRange(lo, hi uint32) AbsVal {
	if lo > hi {
		lo, hi = hi, lo
	}
	diff := lo ^ hi
	known := uint32(0xffffffff)
	if diff != 0 {
		known <<= uint(bits.Len32(diff))
	}
	return AbsVal{
		KB: KnownBits{Zeros: known &^ lo, Ones: known & lo},
		IV: Interval{lo, hi},
	}.norm()
}

// norm tightens the interval with the known-bits bounds (every value
// has at least the known ones set and at most the non-known-zero bits).
func (a AbsVal) norm() AbsVal {
	if min := a.KB.Ones; a.IV.Lo < min {
		a.IV.Lo = min
	}
	if max := ^a.KB.Zeros; a.IV.Hi > max {
		a.IV.Hi = max
	}
	if a.IV.Lo > a.IV.Hi {
		// Inconsistent components (unreachable for values produced by
		// sound transfers); collapse to the interval's view.
		a.KB = KnownBits{}
		if a.IV.Lo > a.IV.Hi {
			a.IV = Interval{0, 0xffffffff}
		}
	}
	return a
}

// IsConst reports whether the abstract value stands for exactly one
// concrete value, and which.
func (a AbsVal) IsConst() (uint32, bool) {
	if a.IV.Lo == a.IV.Hi {
		return a.IV.Lo, true
	}
	if a.KB.Zeros|a.KB.Ones == 0xffffffff {
		return a.KB.Ones, true
	}
	return 0, false
}

// Contains reports whether the concrete value is in the
// concretization of a.
func (a AbsVal) Contains(v uint32) bool {
	if v < a.IV.Lo || v > a.IV.Hi {
		return false
	}
	return v&a.KB.Zeros == 0 && v&a.KB.Ones == a.KB.Ones
}

// Join is the least upper bound of two abstract values.
func Join(a, b AbsVal) AbsVal {
	out := AbsVal{
		KB: KnownBits{Zeros: a.KB.Zeros & b.KB.Zeros, Ones: a.KB.Ones & b.KB.Ones},
		IV: Interval{Lo: minU(a.IV.Lo, b.IV.Lo), Hi: maxU(a.IV.Hi, b.IV.Hi)},
	}
	return out.norm()
}

func minU(a, b uint32) uint32 {
	if a < b {
		return a
	}
	return b
}

func maxU(a, b uint32) uint32 {
	if a > b {
		return a
	}
	return b
}

func bool01() AbsVal { return FromRange(0, 1) }

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// kbAdd is the ripple-carry known-bits transfer for addition: result
// bits are known from the low end for as long as both operand bits and
// the incoming carry are known.
func kbAdd(a, b KnownBits) KnownBits {
	var z, o uint32
	carryZ, carryO := true, false // carry-in to bit 0 is 0
	for i := 0; i < 32; i++ {
		m := uint32(1) << uint(i)
		aKnown := a.Zeros&m != 0 || a.Ones&m != 0
		bKnown := b.Zeros&m != 0 || b.Ones&m != 0
		if aKnown && bKnown && (carryZ || carryO) {
			sum := btoi(a.Ones&m != 0) + btoi(b.Ones&m != 0) + btoi(carryO)
			if sum&1 == 1 {
				o |= m
			} else {
				z |= m
			}
			carryO = sum >= 2
			carryZ = !carryO
		} else {
			carryZ, carryO = false, false
		}
	}
	return KnownBits{Zeros: z, Ones: o}
}

func kbNot(a KnownBits) KnownBits { return KnownBits{Zeros: a.Ones, Ones: a.Zeros} }

func absAdd(a, b AbsVal) AbsVal {
	out := AbsVal{KB: kbAdd(a.KB, b.KB), IV: Interval{0, 0xffffffff}}
	if uint64(a.IV.Hi)+uint64(b.IV.Hi) <= 0xffffffff {
		out.IV = Interval{a.IV.Lo + b.IV.Lo, a.IV.Hi + b.IV.Hi}
	}
	return out.norm()
}

func absNot(a AbsVal) AbsVal {
	return AbsVal{KB: kbNot(a.KB), IV: Interval{^a.IV.Hi, ^a.IV.Lo}}.norm()
}

func absSub(a, b AbsVal) AbsVal {
	// a - b == a + ^b + 1; known bits ride the two-step add, and the
	// interval is exact whenever the subtraction cannot wrap.
	out := AbsVal{KB: kbAdd(kbAdd(a.KB, kbNot(b.KB)), FromConst(1).KB), IV: Interval{0, 0xffffffff}}
	if a.IV.Lo >= b.IV.Hi {
		out.IV = Interval{a.IV.Lo - b.IV.Hi, a.IV.Hi - b.IV.Lo}
	}
	return out.norm()
}

func absAnd(a, b AbsVal) AbsVal {
	kb := KnownBits{Zeros: a.KB.Zeros | b.KB.Zeros, Ones: a.KB.Ones & b.KB.Ones}
	hi := minU(a.IV.Hi, b.IV.Hi)
	return AbsVal{KB: kb, IV: Interval{kb.Ones, hi}}.norm()
}

func absOr(a, b AbsVal) AbsVal {
	kb := KnownBits{Zeros: a.KB.Zeros & b.KB.Zeros, Ones: a.KB.Ones | b.KB.Ones}
	lo := maxU(a.IV.Lo, b.IV.Lo)
	return AbsVal{KB: kb, IV: Interval{maxU(lo, kb.Ones), ^kb.Zeros}}.norm()
}

func absXor(a, b AbsVal) AbsVal {
	kb := KnownBits{
		Zeros: a.KB.Zeros&b.KB.Zeros | a.KB.Ones&b.KB.Ones,
		Ones:  a.KB.Zeros&b.KB.Ones | a.KB.Ones&b.KB.Zeros,
	}
	return AbsVal{KB: kb, IV: Interval{kb.Ones, ^kb.Zeros}}.norm()
}

func absMul(a, b AbsVal) AbsVal {
	if uint64(a.IV.Hi)*uint64(b.IV.Hi) <= 0xffffffff {
		return FromRange(a.IV.Lo*b.IV.Lo, a.IV.Hi*b.IV.Hi)
	}
	return Top()
}

// absShift handles the four shift/rotate operators. The expression
// semantics mask the amount to 5 bits (see symexec.foldConst), so only
// a constant amount gives exact known bits; symbolic amounts degrade
// to coarse interval facts.
func absShift(op symexec.XOp, a, b AbsVal) AbsVal {
	if c, ok := b.IsConst(); ok {
		n := uint(c & 31)
		switch op {
		case symexec.XShl:
			kb := KnownBits{Zeros: a.KB.Zeros<<n | (1<<n - 1), Ones: a.KB.Ones << n}
			out := AbsVal{KB: kb, IV: Interval{kb.Ones, ^kb.Zeros}}
			if a.IV.Hi <= 0xffffffff>>n {
				out.IV = Interval{a.IV.Lo << n, a.IV.Hi << n}
			}
			return out.norm()
		case symexec.XShr:
			kb := KnownBits{Zeros: a.KB.Zeros>>n | ^(0xffffffff >> n), Ones: a.KB.Ones >> n}
			return AbsVal{KB: kb, IV: Interval{a.IV.Lo >> n, a.IV.Hi >> n}}.norm()
		case symexec.XSar:
			if a.KB.Zeros&0x80000000 != 0 {
				// Known non-negative: behaves like a logical shift.
				return absShift(symexec.XShr, a, b)
			}
			return Top()
		case symexec.XRor:
			kb := KnownBits{Zeros: bits.RotateLeft32(a.KB.Zeros, -int(n)), Ones: bits.RotateLeft32(a.KB.Ones, -int(n))}
			return AbsVal{KB: kb, IV: Interval{kb.Ones, ^kb.Zeros}}.norm()
		}
	}
	if op == symexec.XShr {
		return AbsVal{IV: Interval{0, a.IV.Hi}}.norm()
	}
	return Top()
}

func absCmp(op symexec.XOp, a, b AbsVal) AbsVal {
	switch op {
	case symexec.XEq:
		if av, ok := a.IsConst(); ok {
			if bv, ok2 := b.IsConst(); ok2 {
				if av == bv {
					return FromConst(1)
				}
				return FromConst(0)
			}
		}
		if a.IV.Hi < b.IV.Lo || b.IV.Hi < a.IV.Lo ||
			a.KB.Ones&b.KB.Zeros != 0 || a.KB.Zeros&b.KB.Ones != 0 {
			return FromConst(0)
		}
	case symexec.XNe:
		eq := absCmp(symexec.XEq, a, b)
		if v, ok := eq.IsConst(); ok {
			return FromConst(v ^ 1)
		}
	case symexec.XLtU:
		if a.IV.Hi < b.IV.Lo {
			return FromConst(1)
		}
		if a.IV.Lo >= b.IV.Hi {
			return FromConst(0)
		}
	case symexec.XLeU:
		if a.IV.Hi <= b.IV.Lo {
			return FromConst(1)
		}
		if a.IV.Lo > b.IV.Hi {
			return FromConst(0)
		}
	}
	return bool01()
}

func absCarry(op symexec.XOp, a, b, c AbsVal) AbsVal {
	switch op {
	case symexec.XCarryAdd:
		if uint64(a.IV.Hi)+uint64(b.IV.Hi)+uint64(c.IV.Hi) <= 0xffffffff {
			return FromConst(0)
		}
		if uint64(a.IV.Lo)+uint64(b.IV.Lo)+uint64(c.IV.Lo) > 0xffffffff {
			return FromConst(1)
		}
	case symexec.XCarrySub:
		// ARM NOT-borrow: carry out of a + ^b + c.
		nb := absNot(b)
		return absCarry(symexec.XCarryAdd, a, nb, c)
	}
	return bool01()
}

// absOvf is the signed-overflow transfer for XOvfAdd/XOvfSub (the V
// flag of a + b + c, with b complemented first for subtraction, per
// the concrete fold). Two sound precise cases: when b + c wraps to
// exactly zero the sum equals a and the sign cannot change (this is
// CMP/SUBS against zero); and when the known sign bits of a and b
// differ, signed addition cannot overflow.
func absOvf(op symexec.XOp, a, b, c AbsVal) AbsVal {
	if op == symexec.XOvfSub {
		b = absNot(b)
	}
	if bv, ok := b.IsConst(); ok {
		if cv, ok2 := c.IsConst(); ok2 && bv+cv == 0 {
			return FromConst(0)
		}
	}
	aNeg := a.KB.Ones&0x80000000 != 0
	aPos := a.KB.Zeros&0x80000000 != 0
	bNeg := b.KB.Ones&0x80000000 != 0
	bPos := b.KB.Zeros&0x80000000 != 0
	if (aNeg && bPos) || (aPos && bNeg) {
		return FromConst(0)
	}
	return bool01()
}

// AbsEval evaluates an expression in the abstract domain. env supplies
// abstract values for symbols (nil entries and absent symbols are top);
// loads and unknowns are top. memo caches per-node results for the DAG.
func AbsEval(e *symexec.Expr, env map[string]AbsVal, memo map[*symexec.Expr]AbsVal) AbsVal {
	if e == nil {
		return Top()
	}
	if v, ok := memo[e]; ok {
		return v
	}
	var out AbsVal
	switch e.Op {
	case symexec.XConst:
		out = FromConst(e.C)
	case symexec.XSym:
		if v, ok := env[e.Name]; ok {
			out = v
		} else {
			out = Top()
		}
	case symexec.XUnknown, symexec.XLoad8, symexec.XLoad32:
		if e.Op == symexec.XLoad8 {
			out = FromRange(0, 0xff)
		} else {
			out = Top()
		}
	case symexec.XClz:
		out = FromRange(0, 32)
	case symexec.XNot:
		out = absNot(AbsEval(e.X, env, memo))
	case symexec.XNeg:
		out = absSub(FromConst(0), AbsEval(e.X, env, memo))
	default:
		x := AbsEval(e.X, env, memo)
		y := AbsEval(e.Y, env, memo)
		switch e.Op {
		case symexec.XAdd:
			out = absAdd(x, y)
		case symexec.XSub:
			out = absSub(x, y)
		case symexec.XMul:
			out = absMul(x, y)
		case symexec.XAnd:
			out = absAnd(x, y)
		case symexec.XOr:
			out = absOr(x, y)
		case symexec.XXor:
			out = absXor(x, y)
		case symexec.XShl, symexec.XShr, symexec.XSar, symexec.XRor:
			out = absShift(e.Op, x, y)
		case symexec.XEq, symexec.XNe, symexec.XLtU, symexec.XLeU:
			out = absCmp(e.Op, x, y)
		case symexec.XCarryAdd, symexec.XCarrySub:
			out = absCarry(e.Op, x, y, AbsEval(e.Z, env, memo))
		case symexec.XOvfAdd, symexec.XOvfSub:
			out = absOvf(e.Op, x, y, AbsEval(e.Z, env, memo))
		default:
			out = Top()
		}
	}
	if memo != nil {
		memo[e] = out
	}
	return out
}

// AbsSimplify rewrites an expression using facts from the abstract
// domain: any subtree whose abstract value is a single constant
// collapses to that constant, and a mask is dropped when the operand's
// known-zero bits already cover everything the mask clears (the
// And(i, 0xff) == i family for byte-ranged immediates). The result is
// normalized; comparing AbsSimplify of two sides after Normalize is
// the auditor's "abstract" proof method.
func AbsSimplify(e *symexec.Expr, env map[string]AbsVal, memo map[*symexec.Expr]AbsVal) *symexec.Expr {
	if e == nil {
		return nil
	}
	switch e.Op {
	case symexec.XConst, symexec.XSym, symexec.XUnknown:
		return e
	}
	x := AbsSimplify(e.X, env, memo)
	y := AbsSimplify(e.Y, env, memo)
	z := AbsSimplify(e.Z, env, memo)
	out := &symexec.Expr{Op: e.Op, C: e.C, Name: e.Name, X: x, Y: y, Z: z, Ver: e.Ver}
	if !symexec.HasUnknown(out) {
		if v, ok := AbsEval(out, env, memo).IsConst(); ok {
			return symexec.Const(v)
		}
	}
	if e.Op == symexec.XAnd {
		if mask, ok := AbsEval(y, env, memo).IsConst(); ok {
			if AbsEval(x, env, memo).KB.Zeros & ^mask == ^mask {
				return x
			}
		}
		if mask, ok := AbsEval(x, env, memo).IsConst(); ok {
			if AbsEval(y, env, memo).KB.Zeros & ^mask == ^mask {
				return y
			}
		}
	}
	return symexec.Normalize(out)
}
