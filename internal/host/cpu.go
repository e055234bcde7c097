package host

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"paramdbt/internal/mem"
)

// Flags is the modeled subset of EFLAGS.
type Flags struct {
	ZF, SF, CF, OF bool
}

// Eval evaluates a host condition code.
func (f Flags) Eval(c Cond) bool {
	switch c {
	case CondNone:
		return true
	case E:
		return f.ZF
	case NE:
		return !f.ZF
	case S:
		return f.SF
	case NS:
		return !f.SF
	case O:
		return f.OF
	case NO:
		return !f.OF
	case B:
		return f.CF
	case AE:
		return !f.CF
	case BE:
		return f.CF || f.ZF
	case A:
		return !f.CF && !f.ZF
	case L:
		return f.SF != f.OF
	case GE:
		return f.SF == f.OF
	case LE:
		return f.ZF || f.SF != f.OF
	case G:
		return !f.ZF && f.SF == f.OF
	}
	return false
}

// String formats the flags like "zSCo".
func (f Flags) String() string {
	b := []byte("zsco")
	if f.ZF {
		b[0] = 'Z'
	}
	if f.SF {
		b[1] = 'S'
	}
	if f.CF {
		b[2] = 'C'
	}
	if f.OF {
		b[3] = 'O'
	}
	return string(b)
}

// CPU is the host machine simulator.
type CPU struct {
	R     [NumRegs]uint32
	X     [NumXRegs]uint32 // float32 bit patterns
	Flags Flags
	Mem   *mem.Memory

	// Executed counts dynamically executed instructions per category;
	// this is the performance metric (see DESIGN.md).
	Executed [3]uint64
}

// NewCPU returns a CPU bound to the given memory.
func NewCPU(m *mem.Memory) *CPU {
	return &CPU{Mem: m}
}

// Total returns the total number of host instructions executed.
func (c *CPU) Total() uint64 {
	return c.Executed[CatCompute] + c.Executed[CatDataTransfer] + c.Executed[CatControl]
}

func (c *CPU) addr(o *Operand) uint32 {
	a := uint32(o.Disp) + c.R[o.Base]
	if o.Scale != 0 {
		a += c.R[o.Index] * uint32(o.Scale)
	}
	return a
}

func (c *CPU) read(o *Operand) uint32 {
	switch o.Kind {
	case KindReg:
		return c.R[o.Reg]
	case KindImm:
		return uint32(o.Imm)
	case KindMem:
		return c.Mem.Read32(c.addr(o))
	case KindXReg:
		return c.X[o.XReg]
	}
	return 0
}

func (c *CPU) write(o *Operand, v uint32) {
	switch o.Kind {
	case KindReg:
		c.R[o.Reg] = v
	case KindMem:
		c.Mem.Write32(c.addr(o), v)
	case KindXReg:
		c.X[o.XReg] = v
	}
}

func addFlags32(a, b, carry uint32) (uint32, Flags) {
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
func subFlags32(a, b, borrow uint32) (uint32, Flags) {
	v, f := addFlags32(a, ^b, 1-borrow)
	f.CF = !f.CF
	return v, f
}

func logicFlags32(v uint32) Flags {
	return Flags{ZF: v == 0, SF: v>>31 != 0}
}

// ErrExit is returned by Exec through the ExitResult when a block ends.
type ExitResult struct {
	NextPC uint32 // next guest PC requested by the block
	Steps  uint64 // host instructions executed in this block run
}

// ExecError reports a fault while executing a block.
type ExecError struct {
	Index int
	Inst  Inst
	Why   string
}

func (e *ExecError) Error() string {
	return fmt.Sprintf("host: inst %d %q: %s", e.Index, e.Inst, e.Why)
}

// Exec runs the block from its first instruction until ExitTB or RET.
// It returns the exit result; maxSteps bounds runaway blocks.
//
// This is the one instruction loop. It walks the block's pre-decoded
// program: a micro-op's kind says where the operands are, so they are
// loaded straight from the register file, the micro-op or guest memory,
// and moves, jumps and exits finish in the first switch; the ALU group
// goes on to a second switch on the opcode and a write-back by kind.
// Retired instructions are counted per category in a packed local and
// flushed into Executed on every way out (exit, error, and before each
// kSlow micro-op, so a panic in step sees the counters it always saw).
// kSlow micro-ops run through step one at a time and come back here.
//
// The frame kinds — the guest-state slots at disp(%ebp), half of what
// translated code retires — index the page %ebp points at, resolved
// once per call through mem.Memory.Frame: no address, no lookaside
// probe. With the undo journal armed a frame store first journals the
// old word, the entry Write32 would make. Where Frame declines (%ebp
// not page-aligned, a snapshot, an untouched page, a page the write
// tracker covers) they go through Read32/Write32 like the plain kinds.
func (c *CPU) Exec(b *Block, maxSteps uint64) (ExitResult, error) {
	var (
		prog  = b.prog
		m     = c.Mem
		ip    int
		steps uint64 // instructions retired and flushed into c.Executed
		acc   uint64 // per-category counts since the last flush, catBits each
		left  uint64 // instructions until the next flush and budget check

		// The page at %ebp (nil: the frame kinds use Read32/Write32), and
		// whether each store into it is journaled first.
		fbase          = c.R[EBP]
		frame, journal = m.Frame(fbase)
	)
	for {
		if uint(ip) >= uint(len(prog)) {
			c.retire(acc)
			return ExitResult{}, &ExecError{ip, Inst{}, "instruction pointer out of block"}
		}
		if left == 0 {
			steps += c.retire(acc)
			acc = 0
			if steps >= maxSteps {
				return ExitResult{}, &ExecError{ip, b.Insts[ip], "step budget exhausted"}
			}
			left = min(maxSteps-steps, countChunk)
		}
		left--
		u := prog[ip]
		acc += 1 << u.cat()

		// a is the destination's value, v the source's, ea the memory
		// operand's address; which of them a kind sets is its definition.
		var a, v, ea uint32
		switch u.kind() {
		case kMovRR:
			c.R[u.r()] = c.R[u.s()]
			ip++
			continue
		case kMovRI:
			c.R[u.r()] = u.imm
			ip++
			continue
		case kLoad:
			c.R[u.r()] = m.Read32(u.ea(c))
			ip++
			continue
		case kStoreR:
			m.Write32(u.ea(c), c.R[u.r()])
			ip++
			continue
		case kStoreI:
			m.Write32(u.ea(c), u.imm)
			ip++
			continue
		case kLoadF:
			if frame != nil {
				c.R[u.r()] = binary.LittleEndian.Uint32(frame[u.disp:])
			} else {
				c.R[u.r()] = m.Read32(u.ea(c))
			}
			ip++
			continue
		case kStoreRF, kStoreIF:
			v = u.imm
			if u.kind() == kStoreRF {
				v = c.R[u.r()]
			}
			if frame != nil {
				frameStore(m, frame, journal, fbase, u.disp, v)
			} else {
				m.Write32(u.ea(c), v)
			}
			ip++
			continue
		case kLea:
			c.R[u.r()] = u.ea(c)
			ip++
			continue
		case kJmp:
			ip = int(u.imm)
			continue
		case kJcc:
			if c.Flags.Eval(u.cond()) {
				ip = int(u.imm)
			} else {
				ip++
			}
			continue
		case kExitI:
			steps += c.retire(acc)
			return ExitResult{NextPC: u.imm, Steps: steps}, nil
		case kExitR:
			steps += c.retire(acc)
			return ExitResult{NextPC: c.R[u.r()], Steps: steps}, nil
		case kAluRR:
			a, v = c.R[u.r()], c.R[u.s()]
		case kAluRI:
			a, v = c.R[u.r()], u.imm
		case kAluRM:
			a, v = c.R[u.r()], m.Read32(u.ea(c))
		case kAluMR:
			ea = u.ea(c)
			a, v = m.Read32(ea), c.R[u.r()]
		case kAluMI:
			ea = u.ea(c)
			a, v = m.Read32(ea), u.imm
		case kAluRF:
			a = c.R[u.r()]
			if frame != nil {
				v = binary.LittleEndian.Uint32(frame[u.disp:])
			} else {
				v = m.Read32(u.ea(c))
			}
		case kAluFR, kAluFI:
			v = u.imm
			if u.kind() == kAluFR {
				v = c.R[u.r()]
			}
			if frame != nil {
				a = binary.LittleEndian.Uint32(frame[u.disp:])
			} else {
				ea = u.ea(c)
				a = m.Read32(ea)
			}
		default: // kSlow
			steps += c.retire(acc) + 1
			acc = 0
			next, pc, why := c.step(b, ip)
			switch {
			case next >= 0:
				ip = next
				continue
			case next == stepExit:
				return ExitResult{NextPC: pc, Steps: steps}, nil
			}
			return ExitResult{}, &ExecError{ip, b.Insts[ip], why}
		}

		switch u.op() {
		case ADDL:
			a, c.Flags = addFlags32(a, v, 0)
		case ADCL:
			a, c.Flags = addFlags32(a, v, b2u(c.Flags.CF))
		case SUBL:
			a, c.Flags = subFlags32(a, v, 0)
		case SBBL:
			a, c.Flags = subFlags32(a, v, b2u(c.Flags.CF))
		case ANDL:
			a &= v
			c.Flags = logicFlags32(a)
		case ORL:
			a |= v
			c.Flags = logicFlags32(a)
		case XORL:
			a ^= v
			c.Flags = logicFlags32(a)
		case NOTL:
			a = ^a
		case NEGL:
			a, c.Flags = subFlags32(0, a, 0)
		case IMULL:
			a *= v
		case SHLL:
			if v &= 31; v != 0 {
				a <<= v
				c.Flags = logicFlags32(a)
			}
		case SHRL:
			if v &= 31; v != 0 {
				a >>= v
				c.Flags = logicFlags32(a)
			}
		case SARL:
			if v &= 31; v != 0 {
				a = uint32(int32(a) >> v)
				c.Flags = logicFlags32(a)
			}
		case RORL:
			a = bits.RotateLeft32(a, -int(v&31))
		case CMPL:
			_, c.Flags = subFlags32(a, v, 0)
			ip++
			continue
		case TESTL:
			c.Flags = logicFlags32(a & v)
			ip++
			continue
		}
		switch k := u.kind(); {
		case k < kAluMR:
			c.R[u.r()] = a
		case k >= kAluFR && frame != nil:
			frameStore(m, frame, journal, fbase, u.disp, a)
		default:
			m.Write32(ea, a)
		}
		ip++
	}
}

// ea is the address of the micro-op's memory operand. A micro-op
// without an index register has scale 0 and index 0.
func (u uop) ea(c *CPU) uint32 {
	return u.disp + c.R[u.base()] + c.R[u.index()]*u.scale()
}

// frameStore stores v at offset off of the frame page at base,
// journaling the old word first when the journal is armed.
func frameStore(m *mem.Memory, frame *[mem.PageSize]byte, journal bool, base, off, v uint32) {
	w := frame[off : off+4]
	if journal {
		m.Journal32(base+off, binary.LittleEndian.Uint32(w))
	}
	binary.LittleEndian.PutUint32(w, v)
}

// retire adds a packed per-category count to Executed and returns the
// number of instructions it held.
func (c *CPU) retire(acc uint64) uint64 {
	n0, n1, n2 := acc&catMask, acc>>catBits&catMask, acc>>(2*catBits)&catMask
	c.Executed[CatCompute] += n0
	c.Executed[CatDataTransfer] += n1
	c.Executed[CatControl] += n2
	return n0 + n1 + n2
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// step's non-index results: the block exited with the returned next
// guest pc, or the instruction faulted for the returned reason.
const (
	stepExit  = -1
	stepFault = -2
)

// step executes Insts[ip] the general way — any opcode, any operand
// kinds, through read/write/addr — and returns the next instruction
// index, or stepExit with the next guest pc, or stepFault with the
// reason. It is how Exec runs the micro-ops NewBlock did not pre-decode;
// it counts the instruction itself.
func (c *CPU) step(b *Block, ip int) (next int, nextPC uint32, why string) {
	in := &b.Insts[ip]
	c.Executed[in.Cat]++

	switch in.Op {
	case MOVL:
		c.write(&in.Dst, c.read(&in.Src))
	case LEAL:
		if in.Src.Kind != KindMem {
			return stepFault, 0, "lea needs memory source"
		}
		c.write(&in.Dst, c.addr(&in.Src))
	case ADDL:
		v, f := addFlags32(c.read(&in.Dst), c.read(&in.Src), 0)
		c.write(&in.Dst, v)
		c.Flags = f
	case ADCL:
		v, f := addFlags32(c.read(&in.Dst), c.read(&in.Src), b2u(c.Flags.CF))
		c.write(&in.Dst, v)
		c.Flags = f
	case SUBL:
		v, f := subFlags32(c.read(&in.Dst), c.read(&in.Src), 0)
		c.write(&in.Dst, v)
		c.Flags = f
	case SBBL:
		v, f := subFlags32(c.read(&in.Dst), c.read(&in.Src), b2u(c.Flags.CF))
		c.write(&in.Dst, v)
		c.Flags = f
	case ANDL:
		v := c.read(&in.Dst) & c.read(&in.Src)
		c.write(&in.Dst, v)
		c.Flags = logicFlags32(v)
	case ORL:
		v := c.read(&in.Dst) | c.read(&in.Src)
		c.write(&in.Dst, v)
		c.Flags = logicFlags32(v)
	case XORL:
		v := c.read(&in.Dst) ^ c.read(&in.Src)
		c.write(&in.Dst, v)
		c.Flags = logicFlags32(v)
	case NOTL:
		c.write(&in.Dst, ^c.read(&in.Dst))
	case NEGL:
		v, f := subFlags32(0, c.read(&in.Dst), 0)
		c.write(&in.Dst, v)
		c.Flags = f
	case IMULL:
		c.write(&in.Dst, c.read(&in.Dst)*c.read(&in.Src))
	case SHLL:
		sh := c.read(&in.Src) & 31
		v := c.read(&in.Dst) << sh
		c.write(&in.Dst, v)
		if sh != 0 {
			c.Flags = logicFlags32(v)
		}
	case SHRL:
		sh := c.read(&in.Src) & 31
		v := c.read(&in.Dst) >> sh
		c.write(&in.Dst, v)
		if sh != 0 {
			c.Flags = logicFlags32(v)
		}
	case SARL:
		sh := c.read(&in.Src) & 31
		v := uint32(int32(c.read(&in.Dst)) >> sh)
		c.write(&in.Dst, v)
		if sh != 0 {
			c.Flags = logicFlags32(v)
		}
	case RORL:
		sh := c.read(&in.Src) & 31
		c.write(&in.Dst, bits.RotateLeft32(c.read(&in.Dst), -int(sh)))
	case CMPL:
		_, f := subFlags32(c.read(&in.Dst), c.read(&in.Src), 0)
		c.Flags = f
	case TESTL:
		c.Flags = logicFlags32(c.read(&in.Dst) & c.read(&in.Src))
	case MOVZBL:
		var v uint32
		if in.Src.Kind == KindMem {
			v = uint32(c.Mem.Read8(c.addr(&in.Src)))
		} else {
			v = c.read(&in.Src) & 0xff
		}
		c.write(&in.Dst, v)
	case MOVB:
		if in.Dst.Kind == KindMem {
			c.Mem.Write8(c.addr(&in.Dst), byte(c.read(&in.Src)))
		} else {
			c.write(&in.Dst, c.read(&in.Dst)&^uint32(0xff)|c.read(&in.Src)&0xff)
		}
	case BSRL:
		v := c.read(&in.Src)
		if v == 0 {
			c.Flags.ZF = true
		} else {
			c.Flags.ZF = false
			c.write(&in.Dst, uint32(31-bits.LeadingZeros32(v)))
		}
	case PUSHL:
		c.R[ESP] -= 4
		c.Mem.Write32(c.R[ESP], c.read(&in.Dst))
	case POPL:
		c.write(&in.Dst, c.Mem.Read32(c.R[ESP]))
		c.R[ESP] += 4
	case SETCC:
		c.write(&in.Dst, b2u(c.Flags.Eval(in.Cond)))
	case JMP, JCC:
		if in.Op == JCC && !c.Flags.Eval(in.Cond) {
			break
		}
		t := b.resolve(in)
		if t < 0 {
			return stepFault, 0, "unresolved label"
		}
		return t, 0, ""
	case MOVSS:
		c.write(&in.Dst, c.read(&in.Src))
	case ADDSS:
		c.writeF(&in.Dst, c.readF(&in.Dst)+c.readF(&in.Src))
	case SUBSS:
		c.writeF(&in.Dst, c.readF(&in.Dst)-c.readF(&in.Src))
	case MULSS:
		c.writeF(&in.Dst, c.readF(&in.Dst)*c.readF(&in.Src))
	case DIVSS:
		c.writeF(&in.Dst, c.readF(&in.Dst)/c.readF(&in.Src))
	case UCOMISS:
		a, s := c.readF(&in.Dst), c.readF(&in.Src)
		// x86 ucomiss: ZF=equal-or-unordered, CF=less-or-unordered.
		un := a != a || s != s
		c.Flags = Flags{ZF: a == s || un, CF: a < s || un, SF: false, OF: false}
	case RET:
		return stepExit, 0, ""
	case ExitTB:
		return stepExit, c.read(&in.Dst), ""
	default:
		return stepFault, 0, "unimplemented opcode"
	}
	return ip + 1, 0, ""
}

func (c *CPU) readF(o *Operand) float32     { return math.Float32frombits(c.read(o)) }
func (c *CPU) writeF(o *Operand, v float32) { c.write(o, math.Float32bits(v)) }

// Asm is a small emission helper used by all translators: append
// instructions, allocate and bind labels, and finish into a Block. The
// zero value is an empty assembler; Reset makes one reusable across
// blocks without giving up its instruction buffer.
type Asm struct {
	insts  []Inst
	labels map[int]int // nil until the first Bind
	next   int
	cat    Category
}

// NewAsm returns an empty assembler.
func NewAsm() *Asm { return &Asm{} }

// Reset empties the assembler for the next block, keeping the
// instruction buffer's capacity. The label map is dropped rather than
// cleared, because the Block built last still holds it.
func (a *Asm) Reset() {
	*a = Asm{insts: a.insts[:0]}
}

// SetCat sets the category applied to subsequently emitted instructions.
func (a *Asm) SetCat(c Category) { a.cat = c }

// Emit appends an instruction tagged with the current category.
func (a *Asm) Emit(in Inst) {
	in.Cat = a.cat
	a.insts = append(a.insts, in)
}

// EmitAll appends instructions, preserving the current category.
func (a *Asm) EmitAll(ins ...Inst) {
	for _, in := range ins {
		a.Emit(in)
	}
}

// NewLabel allocates a fresh label id.
func (a *Asm) NewLabel() int {
	a.next++
	return a.next
}

// Extend installs insts — the stream Insts returned, with instructions
// appended to it (the append idiom, for emitters that write straight
// into the buffer) — and tags the appended ones with the current
// category.
func (a *Asm) Extend(insts []Inst) {
	for i := len(a.insts); i < len(insts); i++ {
		insts[i].Cat = a.cat
	}
	a.insts = insts
}

// Bind binds a label to the next emitted instruction.
func (a *Asm) Bind(label int) {
	if a.labels == nil {
		a.labels = make(map[int]int)
	}
	a.labels[label] = len(a.insts)
}

// Len reports the number of instructions emitted so far.
func (a *Asm) Len() int { return len(a.insts) }

// Insts exposes the emitted instructions (for peephole passes).
func (a *Asm) Insts() []Inst { return a.insts }

// Labels exposes the label bindings (label id -> instruction index), for
// backend finalize passes that rewrite the instruction stream and must
// remap bindings onto the rewritten indices.
func (a *Asm) Labels() map[int]int { return a.labels }

// Block finalizes into an executable block. The block gets its own
// exact-size copy of the stream, so the assembler may be Reset and
// reused.
func (a *Asm) Block() *Block {
	insts := make([]Inst, len(a.insts))
	copy(insts, a.insts)
	return NewBlock(insts, a.labels)
}
