// Package host implements the host instruction set: a 32-bit x86-like
// two-operand CISC ISA with register/immediate/memory operands and the
// EFLAGS condition flags, plus a CPU simulator that executes translated
// code blocks. Every instruction a translator emits carries a category
// tag (compute / data-transfer / control) so the per-guest-instruction
// expansion breakdown of the paper's Table II is measured directly.
//
// Translators build []Inst; NewBlock turns it into a Block, compiling
// each instruction once into a pre-decoded micro-op (block.go): a
// dispatch kind naming the operand shape — reg/reg, reg/imm, reg/mem,
// mem/reg, mem/imm, jump, exit — with the register indices,
// displacement, immediate, resolved jump target and category pulled out
// of the Operands. CPU.Exec (cpu.go) is the one instruction loop and
// runs that program: it loads operands by kind, counts categories and
// steps in locals it flushes on every exit, and handles backward
// branches and the step budget itself. The fallback rule: an
// instruction NewBlock does not pre-decode (float ops, PUSHL/POPL,
// MOVB/MOVZBL, BSRL, SETCC, memory-to-memory, ExitTB through memory,
// out-of-range registers or categories, unbound labels) becomes a kSlow
// micro-op that the same loop hands, one instruction at a time, to
// CPU.step — the general interpreter over Operands. There is no second
// Exec and nothing selects between two.
//
// A Block is immutable once NewBlock returns. Insts, Labels, Target and
// Listing are the static view the validator and the peephole pass
// read; Exec reads only the pre-decoded program; nothing
// writes either, so a Block may be shared by any number of CPUs and
// goroutines. The per-Inst loop Exec used to be is kept in the tests
// (ref_test.go) as the reference the differential tests and
// FuzzExecVsReference compare against.
package host

import "fmt"

// Reg identifies a host general-purpose register. EBP is reserved: it
// always holds the address of the guest CPUState block (the QEMU
// user-mode convention), and ESP is the host stack pointer, so the
// translators allocate from the remaining six.
type Reg uint8

// Host registers.
const (
	EAX Reg = iota
	ECX
	EDX
	EBX
	ESP
	EBP
	ESI
	EDI
)

// NumRegs is the number of host general-purpose registers.
const NumRegs = 8

var regNames = [NumRegs]string{"eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi"}

// String returns the AT&T-style name without the % sigil.
func (r Reg) String() string {
	if int(r) < len(regNames) {
		return regNames[r]
	}
	return fmt.Sprintf("r%d?", uint8(r))
}

// XReg identifies a host SSE-like float register.
type XReg uint8

// NumXRegs is the number of float registers.
const NumXRegs = 8

// String returns the register name.
func (r XReg) String() string { return fmt.Sprintf("xmm%d", uint8(r)) }

// Op is a host opcode.
type Op uint8

// Host opcodes. Two-operand instructions follow the x86 convention
// dst = dst OP src.
const (
	BADOP Op = iota

	MOVL   // dst = src
	ADDL   // dst += src
	ADCL   // dst += src + CF
	SUBL   // dst -= src
	SBBL   // dst -= src + CF
	ANDL   // dst &= src
	ORL    // dst |= src
	XORL   // dst ^= src
	NOTL   // dst = ^dst (one operand)
	NEGL   // dst = -dst (one operand)
	IMULL  // dst *= src (no flags modeled)
	SHLL   // dst <<= src&31
	SHRL   // dst >>= src&31 (logical)
	SARL   // dst >>= src&31 (arithmetic)
	RORL   // dst = ror(dst, src&31)
	CMPL   // flags from dst - src
	TESTL  // flags from dst & src
	LEAL   // dst = effective address of src (mem operand)
	MOVZBL // dst = zero-extended low byte of src (reg or mem)
	MOVB   // store low byte of src into mem dst
	BSRL   // dst = index of highest set bit of src; ZF if src==0

	PUSHL // push src
	POPL  // pop into dst

	JMP  // unconditional jump to label
	JCC  // conditional jump to label (Cond field)
	CALL // call label (pushes return synthetically; unused by translators)
	RET  // return

	SETCC // dst byte = cond (Cond field)

	// Float (single precision, SSE-like).
	MOVSS
	ADDSS
	SUBSS
	MULSS
	DIVSS
	UCOMISS

	// ExitTB is the pseudo-instruction ending a translation block: it
	// stops the CPU loop and yields the next guest PC from its operand
	// (QEMU's exit_tb). It is "control" glue, never program semantics.
	ExitTB

	numHostOps
)

// NumOps is the number of defined host opcodes.
const NumOps = int(numHostOps)

var hostOpNames = [...]string{
	BADOP: "bad",
	MOVL:  "movl", ADDL: "addl", ADCL: "adcl", SUBL: "subl", SBBL: "sbbl",
	ANDL: "andl", ORL: "orl", XORL: "xorl", NOTL: "notl", NEGL: "negl",
	IMULL: "imull", SHLL: "shll", SHRL: "shrl", SARL: "sarl", RORL: "rorl",
	CMPL: "cmpl", TESTL: "testl", LEAL: "leal", MOVZBL: "movzbl", MOVB: "movb",
	BSRL: "bsrl", PUSHL: "pushl", POPL: "popl",
	JMP: "jmp", JCC: "j", CALL: "call", RET: "ret", SETCC: "set",
	MOVSS: "movss", ADDSS: "addss", SUBSS: "subss", MULSS: "mulss",
	DIVSS: "divss", UCOMISS: "ucomiss",
	ExitTB: "exit_tb",
}

// String returns the mnemonic.
func (o Op) String() string {
	if int(o) < len(hostOpNames) && hostOpNames[o] != "" {
		return hostOpNames[o]
	}
	return fmt.Sprintf("hop%d", uint8(o))
}

// Cond is a host condition code over EFLAGS.
type Cond uint8

// Host condition codes.
const (
	CondNone Cond = iota
	E             // ZF
	NE            // !ZF
	S             // SF
	NS            // !SF
	O             // OF
	NO            // !OF
	B             // CF (below)
	AE            // !CF (above or equal)
	BE            // CF || ZF
	A             // !CF && !ZF
	L             // SF != OF
	GE            // SF == OF
	LE            // ZF || SF != OF
	G             // !ZF && SF == OF
)

// NumConds is the number of host condition codes.
const NumConds = 15

var hostCondNames = [NumConds]string{"", "e", "ne", "s", "ns", "o", "no", "b", "ae", "be", "a", "l", "ge", "le", "g"}

// String returns the condition suffix.
func (c Cond) String() string {
	if int(c) < len(hostCondNames) {
		return hostCondNames[c]
	}
	return fmt.Sprintf("cc%d", uint8(c))
}

// OperandKind classifies a host operand.
type OperandKind uint8

// Host operand kinds.
const (
	KindNone OperandKind = iota
	KindReg
	KindImm
	KindMem
	KindXReg
	KindLabel
)

// Operand is one host instruction operand. KindMem is
// disp(base,index,scale); scale 0 means no index.
type Operand struct {
	Kind  OperandKind
	Reg   Reg
	XReg  XReg
	Imm   int32
	Base  Reg
	Index Reg
	Scale uint8
	Disp  int32
	Label int // block-local label id for jumps
}

// R returns a register operand.
func R(r Reg) Operand { return Operand{Kind: KindReg, Reg: r} }

// X returns a float register operand.
func X(r XReg) Operand { return Operand{Kind: KindXReg, XReg: r} }

// Imm returns an immediate operand.
func Imm(v int32) Operand { return Operand{Kind: KindImm, Imm: v} }

// Mem returns a disp(base) memory operand.
func Mem(base Reg, disp int32) Operand {
	return Operand{Kind: KindMem, Base: base, Disp: disp}
}

// MemIdx returns a disp(base,index,scale) memory operand.
func MemIdx(base, index Reg, scale uint8, disp int32) Operand {
	return Operand{Kind: KindMem, Base: base, Index: index, Scale: scale, Disp: disp}
}

// Label returns a jump-target operand.
func Label(id int) Operand { return Operand{Kind: KindLabel, Label: id} }

// String formats the operand AT&T style.
func (o Operand) String() string {
	switch o.Kind {
	case KindNone:
		return ""
	case KindReg:
		return "%" + o.Reg.String()
	case KindXReg:
		return "%" + o.XReg.String()
	case KindImm:
		return fmt.Sprintf("$%d", o.Imm)
	case KindMem:
		if o.Scale != 0 {
			return fmt.Sprintf("%d(%%%s,%%%s,%d)", o.Disp, o.Base, o.Index, o.Scale)
		}
		if o.Disp == 0 {
			return fmt.Sprintf("(%%%s)", o.Base)
		}
		return fmt.Sprintf("%d(%%%s)", o.Disp, o.Base)
	case KindLabel:
		return fmt.Sprintf(".L%d", o.Label)
	}
	return "?"
}

// Category tags why a host instruction exists, following the paper's
// Table II accounting: translated compute, guest-register data transfer,
// or control glue (block stubs and chaining).
type Category uint8

// Categories.
const (
	CatCompute Category = iota
	CatDataTransfer
	CatControl
)

// String names the category.
func (c Category) String() string {
	switch c {
	case CatCompute:
		return "compute"
	case CatDataTransfer:
		return "data"
	case CatControl:
		return "control"
	}
	return "?"
}

// Inst is one host instruction. For two-operand forms Src is the source
// and Dst the destination (Intel operand roles; printed AT&T src,dst).
type Inst struct {
	Op   Op
	Cond Cond
	Dst  Operand
	Src  Operand
	Cat  Category
}

// I builds an instruction.
func I(op Op, dst, src Operand) Inst { return Inst{Op: op, Dst: dst, Src: src} }

// I1 builds a one-operand instruction.
func I1(op Op, dst Operand) Inst { return Inst{Op: op, Dst: dst} }

// Jcc builds a conditional jump.
func Jcc(c Cond, label int) Inst {
	return Inst{Op: JCC, Cond: c, Dst: Label(label)}
}

// Jmp builds an unconditional jump.
func Jmp(label int) Inst { return Inst{Op: JMP, Dst: Label(label)} }

// Exit builds an ExitTB carrying the next guest PC (immediate or register).
func Exit(next Operand) Inst { return Inst{Op: ExitTB, Dst: next, Cat: CatControl} }

// WithCat returns a copy tagged with the category.
func (in Inst) WithCat(c Category) Inst { in.Cat = c; return in }

// String formats the instruction AT&T style: "op src, dst".
func (in Inst) String() string {
	switch in.Op {
	case JCC:
		return "j" + in.Cond.String() + " " + in.Dst.String()
	case SETCC:
		return "set" + in.Cond.String() + " " + in.Dst.String()
	case JMP, CALL, PUSHL, NOTL, NEGL, POPL:
		return in.Op.String() + " " + in.Dst.String()
	case RET:
		return "ret"
	case ExitTB:
		return "exit_tb " + in.Dst.String()
	}
	if in.Src.Kind == KindNone {
		if in.Dst.Kind == KindNone {
			return in.Op.String()
		}
		return in.Op.String() + " " + in.Dst.String()
	}
	return in.Op.String() + " " + in.Src.String() + ", " + in.Dst.String()
}

// WritesFlags reports whether the opcode updates EFLAGS.
func (o Op) WritesFlags() bool {
	switch o {
	case ADDL, ADCL, SUBL, SBBL, ANDL, ORL, XORL, NEGL, SHLL, SHRL, SARL,
		CMPL, TESTL, BSRL, UCOMISS:
		return true
	}
	return false
}

// ReadsFlags reports whether the instruction consumes EFLAGS.
func (in Inst) ReadsFlags() bool {
	switch in.Op {
	case JCC, SETCC, ADCL, SBBL:
		return true
	}
	return false
}
