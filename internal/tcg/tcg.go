// Package tcg implements the QEMU-baseline translation path: a TCG-like
// intermediate representation, a frontend that expands each guest
// instruction into several IR operations (loading guest registers from
// the CPUState, computing, materializing NZCV flag words back into
// memory), and a backend that lowers each IR operation into one or more
// host instructions.
//
// This two-level expansion is the "multiplying effect" the paper
// describes: one guest instruction becomes several IR ops, and each IR
// op becomes one or more host instructions, which is why the QEMU path
// needs ~3.5 compute instructions per guest instruction where a learned
// rule needs ~1.
package tcg

import (
	"fmt"

	"paramdbt/internal/guest"
)

// Op is a TCG IR operation.
type Op uint8

// IR operations.
const (
	Nop Op = iota

	Mov // dst = a

	GetReg // dst = guest reg GReg
	SetReg // guest reg GReg = a
	GetF   // dst = flag word Flag
	SetF   // flag word Flag = a

	Add // dst = a + b
	Sub // dst = a - b
	Adc // dst = a + b + (c!=0)
	Sbb // dst = a - b - (c==0)  [ARM-style: carry-in is NOT-borrow]
	And
	Or
	Xor
	AndNot // dst = a &^ b
	Not    // dst = ^a
	Neg    // dst = -a
	Mul
	Shl
	Shr
	Sar
	Ror
	Clz

	SetCC // dst = (a CC b) ? 1 : 0

	Ld32 // dst = mem[a]
	Ld8  // dst = zx(mem8[a])
	St32 // mem[b] = a
	St8  // mem8[b] = low8(a)

	// SaveFlags materializes guest NZCV into the CPUState flag words.
	// For FamAdd/FamSub/FamLogic it must directly follow the IR ALU op
	// that computes the result, because the backend reads the host
	// EFLAGS left by that op's final host instruction. A (value operand)
	// is the result for FamTest; C is the precomputed carry for
	// FamShift.
	SaveFlags

	Brz  // if a == 0 goto Label
	Brnz // if a != 0 goto Label
	Br   // goto Label

	// Float ops work directly on guest float registers in the CPUState.
	FAdd
	FSub
	FMul
	FDiv
	FMovF // freg FD = freg FN
	FLd   // freg FD = mem[a]
	FSt   // mem[a] = freg FN
	FCmp  // NZCV flag words from comparing FD', FN (as values FN vs FM)
)

// Flag identifies one guest flag word.
type Flag uint8

// Guest flags.
const (
	FlagN Flag = iota
	FlagZ
	FlagC
	FlagV
)

// CC is a comparison condition for SetCC.
type CC uint8

// SetCC conditions.
const (
	CCEq CC = iota
	CCNe
	CCLtU
	CCLeU
	CCGtU
	CCGeU
	CCLtS
	CCGeS
)

// Fam is a flag-materialization family for SaveFlags.
type Fam uint8

// SaveFlags families.
const (
	FamAdd   Fam = iota // C=carry out, V=overflow (host EFLAGS valid)
	FamSub              // C=NOT borrow, V=overflow (host EFLAGS valid, CF inverted)
	FamLogic            // N,Z from EFLAGS; V=0; C unchanged
	FamTest             // N,Z from value A; V=0; C unchanged
	FamShift            // N,Z from value A; V=0; C = value in C operand
)

// Val is an IR value: a temp or a constant.
type Val struct {
	Const bool
	C     int32
	T     int
}

// T returns a temp value.
func TV(t int) Val { return Val{T: t} }

// CV returns a constant value.
func CV(c int32) Val { return Val{Const: true, C: c} }

// None is the absent value.
var None = Val{T: -1}

// Inst is one IR operation.
type Inst struct {
	Op    Op
	Dst   int // temp id, -1 when unused
	A     Val
	B     Val
	C     Val // carry-in for Adc/Sbb, carry value for SaveFlags/FamShift
	GReg  guest.Reg
	FRegD guest.FReg
	FRegN guest.FReg
	Flag  Flag
	CC    CC
	Fam   Fam
	Label int
}

// Gen builds IR sequences, allocating temps and labels. Labels are drawn
// from an external allocator so that they remain unique across one host
// block (the DBT translates several guest instructions per block).
type Gen struct {
	Insts    []Inst
	nextTemp int
	NewLabel func() int
}

// NewGen returns a generator whose labels come from newLabel.
func NewGen(newLabel func() int) *Gen {
	return &Gen{NewLabel: newLabel}
}

// Reset empties the generator for the next instruction, keeping its
// buffer and its label source.
func (g *Gen) Reset() {
	g.Insts = g.Insts[:0]
	g.nextTemp = 0
}

// Temp allocates a fresh temp.
func (g *Gen) Temp() int {
	t := g.nextTemp
	g.nextTemp++
	return t
}

// NumTemps reports how many temps were allocated.
func (g *Gen) NumTemps() int { return g.nextTemp }

func (g *Gen) emit(in Inst) { g.Insts = append(g.Insts, in) }

func (g *Gen) op3(op Op, dst int, a, b Val) {
	g.emit(Inst{Op: op, Dst: dst, A: a, B: b})
}

// String formats the IR op for diagnostics.
func (in Inst) String() string {
	v := func(x Val) string {
		if x.Const {
			return fmt.Sprintf("$%d", x.C)
		}
		return fmt.Sprintf("t%d", x.T)
	}
	switch in.Op {
	case Nop:
		return "nop"
	case Mov:
		return fmt.Sprintf("mov t%d, %s", in.Dst, v(in.A))
	case GetReg:
		return fmt.Sprintf("get t%d, %s", in.Dst, in.GReg)
	case SetReg:
		return fmt.Sprintf("set %s, %s", in.GReg, v(in.A))
	case GetF:
		return fmt.Sprintf("getf t%d, %d", in.Dst, in.Flag)
	case SetF:
		return fmt.Sprintf("setf %d, %s", in.Flag, v(in.A))
	case SetCC:
		return fmt.Sprintf("setcc t%d, %s, %s, cc%d", in.Dst, v(in.A), v(in.B), in.CC)
	case Ld32, Ld8:
		return fmt.Sprintf("ld t%d, [%s]", in.Dst, v(in.A))
	case St32, St8:
		return fmt.Sprintf("st %s, [%s]", v(in.A), v(in.B))
	case SaveFlags:
		return fmt.Sprintf("saveflags fam%d", in.Fam)
	case Brz:
		return fmt.Sprintf("brz %s, L%d", v(in.A), in.Label)
	case Brnz:
		return fmt.Sprintf("brnz %s, L%d", v(in.A), in.Label)
	case Br:
		return fmt.Sprintf("br L%d", in.Label)
	default:
		return fmt.Sprintf("op%d t%d, %s, %s", in.Op, in.Dst, v(in.A), v(in.B))
	}
}
