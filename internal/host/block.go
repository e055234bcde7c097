package host

import (
	"fmt"

	"paramdbt/internal/mem"
)

// Block is a sequence of host instructions with resolved label targets,
// the unit of execution produced by the translators (a translation
// block in QEMU terms).
//
// A Block is immutable once NewBlock returns: Insts, the label bindings
// and the pre-decoded program are never written again, so one Block may
// be executed by any number of CPUs on any number of goroutines (the
// translation service shares finalized prototypes across tenants this
// way). Code that wants a different instruction stream builds a new
// Block.
type Block struct {
	Insts  []Inst
	labels map[int]int // label id -> instruction index
	// prog is Insts compiled for Exec, one micro-op per instruction at
	// the same index.
	prog []uop
}

// uop is one pre-decoded instruction: everything Exec needs, with the
// operand kinds already resolved into a dispatch kind, so the hot loop
// never looks at an Operand. 16 bytes against Inst's 64: two words and
// the small fields packed into a third, which Exec loads once and takes
// apart with shifts.
type uop struct {
	imm  uint32 // immediate source; the target index of a jump
	disp uint32 // displacement of the memory operand
	bits uint64 // kind, op, cond, cat, registers and scale: see the accessors
}

// Field positions in uop.bits. The byte-wide fields sit on byte
// boundaries; registers take three bits each.
const (
	opShift    = 8
	condShift  = 16
	catShift   = 24
	rShift     = 32
	sShift     = 35
	baseShift  = 38
	indexShift = 41
	scaleShift = 48
)

func (u uop) kind() uint8   { return uint8(u.bits) }               // dispatch kind, one of the k* constants
func (u uop) op() Op        { return Op(u.bits >> opShift) }       // opcode of the kAlu* kinds
func (u uop) cond() Cond    { return Cond(u.bits >> condShift) }   // condition of kJcc
func (u uop) cat() uint     { return uint(u.bits>>catShift) & 63 } // bit offset of the category's field in Exec's packed counter
func (u uop) r() uint       { return uint(u.bits>>rShift) & 7 }    // the register operand (the destination of kMovRR/kAluRR)
func (u uop) s() uint       { return uint(u.bits>>sShift) & 7 }    // the source register of kMovRR/kAluRR
func (u uop) base() uint    { return uint(u.bits>>baseShift) & 7 } // memory operand: disp(base,index,scale)
func (u uop) index() uint   { return uint(u.bits>>indexShift) & 7 }
func (u uop) scale() uint32 { return uint32(uint8(u.bits >> scaleShift)) }

// Dispatch kinds. A kind names the operand shape; for everything but
// the kAlu* group it names the operation too, so those finish in Exec's
// first switch. The memory-destination ALU kinds are last because Exec
// tests kind >= kAluMR for "the destination is memory", and the frame
// forms after them because it tests kind >= kAluFR for "... the frame".
//
// A frame kind (kLoadF, kStoreRF, kStoreIF, kAluRF, kAluFR, kAluFI) is
// the plain kind whose memory operand is a word of the frame page, the
// page %ebp points at (the CPUState): see frameOperand.
const (
	kSlow    uint8 = iota // not pre-decoded: CPU.step runs Insts[ip]
	kMovRR                // movl %s, %r
	kMovRI                // movl $imm, %r
	kLoad                 // movl mem, %r
	kStoreR               // movl %r, mem
	kStoreI               // movl $imm, mem
	kLoadF                // movl disp(%ebp), %r
	kStoreRF              // movl %r, disp(%ebp)
	kStoreIF              // movl $imm, disp(%ebp)
	kLea                  // leal mem, %r
	kJmp                  // jmp imm
	kJcc                  // j<cond> imm
	kExitI                // exit_tb $imm
	kExitR                // exit_tb %r
	kAluRR                // op %s, %r
	kAluRI                // op $imm, %r (and the one-operand forms on a register)
	kAluRM                // op mem, %r
	kAluRF                // op disp(%ebp), %r
	kAluMR                // op %r, mem
	kAluMI                // op $imm, mem (and the one-operand forms on memory)
	kAluFR                // op %r, disp(%ebp)
	kAluFI                // op $imm, disp(%ebp) (and the one-operand forms)
	numKinds
)

// frameKinds maps a kind with a memory operand to its frame form; the
// zero entries have none.
var frameKinds = [numKinds]uint8{
	kLoad: kLoadF, kStoreR: kStoreRF, kStoreI: kStoreIF,
	kAluRM: kAluRF, kAluMR: kAluFR, kAluMI: kAluFI,
}

// Exec counts retired instructions per category in one uint64, a
// catBits-wide field per category, and flushes it at least every
// countChunk instructions — before a field can overflow.
const (
	catBits    = 21
	catMask    = 1<<catBits - 1
	countChunk = 1 << 20
	// noCount is the cat of a kSlow micro-op: the spare bit above the
	// three fields, which retire ignores, because CPU.step counts the
	// instruction itself (and panics there, as the plain loop always
	// did, when the category is out of range).
	noCount = 3 * catBits
)

// NewBlock builds a block, resolving labels and compiling insts into
// the pre-decoded form Exec runs. A label with id L binds to the
// instruction index recorded via MarkLabel during emission.
//
// An instruction is pre-decoded when its opcode is one of the integer
// moves, the two-operand ALU group, NOTL/NEGL, LEAL, JMP/JCC or ExitTB,
// its operands are register, immediate or one memory operand in the
// positions listed at the k* constants, every register index and the
// category are in range, and a jump's label is bound inside the block.
// Anything else — float ops, PUSHL/POPL, MOVB/MOVZBL, BSRL, SETCC,
// memory-to-memory, ExitTB through memory, malformed instructions — is
// a kSlow micro-op, which Exec hands to CPU.step one instruction at a
// time inside the same loop.
//
// A pre-decoded memory operand gets a frame kind when it is a word of
// the page %ebp points at for the whole block: base %ebp, no index
// register, 0 <= disp <= PageSize-4, and no instruction of the block
// has register %ebp as its Dst.
func NewBlock(insts []Inst, labels map[int]int) *Block {
	b := &Block{Insts: insts, labels: labels, prog: make([]uop, len(insts))}
	frameOK := true
	for i := range insts {
		if d := &insts[i].Dst; d.Kind == KindReg && d.Reg == EBP {
			frameOK = false
			break
		}
	}
	for i := range insts {
		u := b.predecode(&insts[i])
		if fk := frameKinds[u.kind()]; fk != 0 && frameOK && frameOperand(&insts[i]) {
			u.bits = u.bits&^0xff | uint64(fk)
		}
		b.prog[i] = u
	}
	return b
}

// frameOperand reports whether the memory operand of a pre-decoded
// instruction is a word inside the page at %ebp, if %ebp is page-aligned.
func frameOperand(in *Inst) bool {
	m := &in.Dst
	if m.Kind != KindMem {
		m = &in.Src
	}
	return m.Base == EBP && m.Scale == 0 && m.Disp >= 0 && m.Disp <= mem.PageSize-4
}

// resolve returns the instruction index the jump in binds to, or -1
// when in is not a JMP/JCC on a bound label.
func (b *Block) resolve(in *Inst) int {
	if (in.Op == JMP || in.Op == JCC) && in.Dst.Kind == KindLabel {
		if t, ok := b.labels[in.Dst.Label]; ok {
			return t
		}
	}
	return -1
}

// class is what predecode needs to know of an operand: a register,
// immediate or memory operand Exec can use directly, or anything else.
type class uint8

const (
	cOther class = iota // no operand, float register, label, or an out-of-range register
	cReg
	cImm
	cMem
)

func classify(o *Operand) class {
	switch o.Kind {
	case KindReg:
		if o.Reg < NumRegs {
			return cReg
		}
	case KindImm:
		return cImm
	case KindMem:
		// The index register only counts when Scale is non-zero, as in
		// CPU.addr.
		if o.Base < NumRegs && (o.Scale == 0 || o.Index < NumRegs) {
			return cMem
		}
	}
	return cOther
}

// movKinds and aluKinds give the dispatch kind for a [dst][src] pair of
// operand classes; the zero entries are kSlow.
var (
	movKinds = [4][4]uint8{cReg: {cReg: kMovRR, cImm: kMovRI, cMem: kLoad}, cMem: {cReg: kStoreR, cImm: kStoreI}}
	aluKinds = [4][4]uint8{cReg: {cReg: kAluRR, cImm: kAluRI, cMem: kAluRM}, cMem: {cReg: kAluMR, cImm: kAluMI}}
)

func (b *Block) predecode(in *Inst) uop {
	slow := uop{bits: uint64(kSlow) | noCount<<catShift}
	if in.Cat > CatControl {
		return slow
	}
	d, s := &in.Dst, &in.Src
	dc, sc := classify(d), classify(s)
	var kind uint8
	var u uop
	switch in.Op {
	case JMP, JCC:
		t := b.resolve(in)
		if t < 0 || t > len(b.Insts) {
			return slow
		}
		kind, u.imm = kJmp, uint32(t)
		if in.Op == JCC {
			kind = kJcc
		}
		dc, sc = cOther, cOther
	case ExitTB:
		// The operand is Dst; it is decoded as a source.
		kind = [4]uint8{cReg: kExitR, cImm: kExitI}[dc]
		s, sc, dc = d, dc, cOther
	case LEAL:
		if dc == cReg && sc == cMem {
			kind = kLea
		}
	case MOVL:
		kind = movKinds[dc][sc]
	case NOTL, NEGL:
		// One-operand: Src is ignored, as CPU.step ignores it.
		s, sc = &Operand{Kind: KindImm}, cImm
		kind = aluKinds[dc][sc]
	case ADDL, ADCL, SUBL, SBBL, ANDL, ORL, XORL, IMULL,
		SHLL, SHRL, SARL, RORL, CMPL, TESTL:
		kind = aluKinds[dc][sc]
	}
	if kind == kSlow {
		return slow
	}
	u.bits = uint64(kind) | uint64(in.Op)<<opShift | uint64(in.Cond)<<condShift | uint64(in.Cat)*catBits<<catShift
	// At most one operand is memory and at most one an immediate; with
	// two registers r is the destination, otherwise r is the register.
	switch {
	case dc == cReg && sc == cReg:
		u.bits |= uint64(d.Reg)<<rShift | uint64(s.Reg)<<sShift
	case dc == cReg:
		u.bits |= uint64(d.Reg) << rShift
	case sc == cReg:
		u.bits |= uint64(s.Reg) << rShift
	}
	if sc == cImm {
		u.imm = uint32(s.Imm)
	}
	if m := d; dc == cMem || sc == cMem {
		if sc == cMem {
			m = s
		}
		u.disp = uint32(m.Disp)
		u.bits |= uint64(m.Base) << baseShift
		if m.Scale != 0 {
			u.bits |= uint64(m.Index)<<indexShift | uint64(m.Scale)<<scaleShift
		}
	}
	return u
}

// Labels returns the label-id -> instruction-index map the block was
// built with. Static analyzers (the translation validator, the peephole
// pass) need it to rebuild or walk the control-flow structure; Exec
// itself never consults it.
func (b *Block) Labels() map[int]int { return b.labels }

// Target returns the resolved target index of the JMP/JCC at
// instruction i, or -1 when i is not a jump (or its label is unbound).
func (b *Block) Target(i int) int {
	if i < 0 || i >= len(b.Insts) {
		return -1
	}
	return b.resolve(&b.Insts[i])
}

// Listing formats the block's instructions one per line with labels.
func (b *Block) Listing() string {
	rev := map[int][]int{}
	for id, idx := range b.labels {
		rev[idx] = append(rev[idx], id)
	}
	s := ""
	for i, in := range b.Insts {
		for _, id := range rev[i] {
			s += fmt.Sprintf(".L%d:\n", id)
		}
		s += fmt.Sprintf("\t%-30s ; %s\n", in.String(), in.Cat)
	}
	return s
}
