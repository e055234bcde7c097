package symexec

import (
	"fmt"

	"paramdbt/internal/host"
)

// HState is the symbolic host machine state.
type HState struct {
	R              [host.NumRegs]*Expr
	Written        [host.NumRegs]bool
	ZF, SF, CF, OF *Expr
	FlagsSet       bool
	Stores         []SymStore

	// immHook/instIdx: see ImmHook (guest.go). Host operand slots are
	// DstSlot and SrcSlot.
	immHook ImmHook
	instIdx int

	// frame holds the words of the in-memory register file at frameBase
	// (NewHStateFrame); nil without one.
	frameBase uint32
	frame     []*Expr
}

// NewHState returns the initial symbolic host state with registers bound
// to the given expressions (nil entries become fresh "h<i>" symbols).
func NewHState(init map[host.Reg]*Expr) *HState {
	s := &HState{
		ZF: hostInitFlags[0], SF: hostInitFlags[1], CF: hostInitFlags[2], OF: hostInitFlags[3],
	}
	for i := range s.R {
		if e, ok := init[host.Reg(i)]; ok {
			s.R[i] = e
		} else {
			s.R[i] = hostInitRegs[i]
		}
	}
	return s
}

// NewHStateFrame is NewHState for code that keeps a register file in
// memory at a fixed address, as DBT-emitted code keeps the guest's
// CPUState where EBP points: len(words) 32-bit words at base, each
// starting as the given expression. Word-aligned 32-bit accesses at
// constant addresses inside the frame read and write the words instead
// of going through Stores, so the store trace holds only the stores
// outside the frame, load versions count only those, and a reload needs
// no forwarding. A byte or misaligned access leaves the words it
// touches unknown. Accesses at symbolic addresses are assumed not to
// alias the frame.
func NewHStateFrame(init map[host.Reg]*Expr, base uint32, words []*Expr) *HState {
	s := NewHState(init)
	s.frameBase = base
	s.frame = append([]*Expr(nil), words...)
	return s
}

// FrameWord returns the current value of frame word i.
func (s *HState) FrameWord(i int) *Expr { return s.frame[i] }

// frameWord locates a constant address in the frame: the word it
// starts in and whether it is word-aligned.
func (s *HState) frameWord(addr uint32) (i int, aligned, ok bool) {
	off := addr - s.frameBase
	if s.frame == nil || off >= uint32(4*len(s.frame)) {
		return 0, false, false
	}
	return int(off / 4), off%4 == 0, true
}

// frameLoad reads size bits at a constant address from the frame, when
// the address lands there.
func (s *HState) frameLoad(addr uint32, size int) (*Expr, bool) {
	w, aligned, ok := s.frameWord(addr)
	switch {
	case !ok:
		return nil, false
	case size != 32 || !aligned:
		return Unknown("frame-partial"), true
	}
	return s.frame[w], true
}

// frameStore writes size bits at a constant address into the frame,
// when the address lands there.
func (s *HState) frameStore(addr uint32, val *Expr, size int) bool {
	w, aligned, ok := s.frameWord(addr)
	switch {
	case !ok:
		return false
	case size == 32 && aligned:
		s.frame[w] = val
	case size == 32:
		s.frame[w] = Unknown("frame-overlap")
		if w+1 < len(s.frame) {
			s.frame[w+1] = Unknown("frame-overlap")
		}
	default:
		s.frame[w] = Unknown("frame-byte")
	}
	return true
}

// hostInitRegs and hostInitFlags intern the initial-value symbols every
// NewHState binds (see interned).
var (
	hostInitRegs = func() (t [host.NumRegs]*Expr) {
		for i := range t {
			t[i] = interned(Sym(hRegName(host.Reg(i))))
		}
		return t
	}()
	hostInitFlags = [4]*Expr{interned(Sym("hz")), interned(Sym("hs")), interned(Sym("hc")), interned(Sym("ho"))}
)

// immExpr resolves an immediate read through the hook, defaulting to
// the concrete constant.
func (s *HState) immExpr(slot int, v int32) *Expr {
	if s.immHook != nil {
		if e := s.immHook(s.instIdx, slot, v); e != nil {
			return e
		}
	}
	return Const(uint32(v))
}

// constAddr returns a memory operand's address when it is a constant:
// a constant base (EBP pinned to the CPUState) plus a displacement.
func (s *HState) constAddr(o host.Operand) (uint32, bool) {
	if a := s.R[o.Base]; a.Op == XConst && o.Scale == 0 && s.immHook == nil {
		return a.C + uint32(o.Disp), true
	}
	return 0, false
}

func (s *HState) addrExpr(slot int, o host.Operand) *Expr {
	if c, ok := s.constAddr(o); ok {
		// Folded once here rather than in every Normalize that compares it.
		return Const(c)
	}
	a := s.R[o.Base]
	if o.Scale != 0 {
		a = Bin(XAdd, a, Bin(XMul, s.R[o.Index], Const(uint32(o.Scale))))
	}
	if o.Disp != 0 || s.immHook != nil {
		// With a hook installed the displacement may lift to a symbol
		// even when its concrete value is 0; Normalize drops a +0.
		a = Bin(XAdd, a, s.immExpr(slot, o.Disp))
	}
	return a
}

func (s *HState) read(slot int, o host.Operand) (*Expr, error) {
	switch o.Kind {
	case host.KindReg:
		return s.R[o.Reg], nil
	case host.KindImm:
		return s.immExpr(slot, o.Imm), nil
	case host.KindMem:
		return s.load(32, slot, o), nil
	}
	return nil, fmt.Errorf("symexec: unsupported host operand %v", o)
}

// load reads size bits (8 or 32) at memory operand o. A constant
// address in the frame is read without building its expression.
func (s *HState) load(size, slot int, o host.Operand) *Expr {
	if c, ok := s.constAddr(o); ok {
		if v, ok := s.frameLoad(c, size); ok {
			return v
		}
	}
	return s.loadExpr(size, s.addrExpr(slot, o))
}

func (s *HState) loadExpr(size int, addr *Expr) *Expr {
	a := Normalize(addr)
	if a.Op == XConst {
		if v, ok := s.frameLoad(a.C, size); ok {
			return v
		}
	}
	for i := len(s.Stores) - 1; i >= 0; i-- {
		st := s.Stores[i]
		if st.Size == size && StructEqual(Normalize(st.Addr), a) {
			if size == 8 {
				return Bin(XAnd, st.Val, Const(0xff))
			}
			return st.Val
		}
		break
	}
	return Load(size, addr, len(s.Stores))
}

func (s *HState) write(o host.Operand, e *Expr) error {
	switch o.Kind {
	case host.KindReg:
		s.R[o.Reg] = e
		s.Written[o.Reg] = true
		return nil
	case host.KindMem:
		s.store(o, e, 32)
		return nil
	}
	return fmt.Errorf("symexec: cannot write host operand %v", o)
}

// store writes size bits (8 or 32) at memory operand o: into the frame
// when the address is a constant that lands there, else onto the trace.
func (s *HState) store(o host.Operand, val *Expr, size int) {
	if c, ok := s.constAddr(o); ok && s.frameStore(c, val, size) {
		return
	}
	addr := s.addrExpr(DstSlot, o)
	if s.frame != nil {
		if a := Normalize(addr); a.Op == XConst && s.frameStore(a.C, val, size) {
			return
		}
	}
	s.Stores = append(s.Stores, SymStore{Addr: addr, Val: val, Size: size})
}

func (s *HState) setAddFlags(a, b, res *Expr) {
	s.ZF = Bin(XEq, res, Const(0))
	s.SF = Bin(XShr, res, Const(31))
	s.CF = Tern(XCarryAdd, a, b, Const(0))
	s.OF = Tern(XOvfAdd, a, b, Const(0))
	s.FlagsSet = true
}

func (s *HState) setSubFlags(a, b, res *Expr) {
	s.ZF = Bin(XEq, res, Const(0))
	s.SF = Bin(XShr, res, Const(31))
	// x86 CF is the borrow flag: a < b.
	s.CF = Bin(XLtU, a, b)
	s.OF = Tern(XOvfSub, a, b, Const(1))
	s.FlagsSet = true
}

func (s *HState) setLogicFlags(res *Expr) {
	s.ZF = Bin(XEq, res, Const(0))
	s.SF = Bin(XShr, res, Const(31))
	s.CF = Const(0)
	s.OF = Const(0)
	s.FlagsSet = true
}

// CondExpr evaluates a host condition against the state's final EFLAGS,
// yielding a 0/1 predicate expression (the exported form the static
// rule auditor uses for branch-tail rules).
func (s *HState) CondExpr(c host.Cond) *Expr { return s.hostCondExpr(c) }

// hostCondExpr evaluates a host condition to a 0/1 expression.
func (s *HState) hostCondExpr(c host.Cond) *Expr {
	not := func(e *Expr) *Expr { return Bin(XXor, e, Const(1)) }
	and := func(a, b *Expr) *Expr { return Bin(XAnd, a, b) }
	or := func(a, b *Expr) *Expr { return Bin(XOr, a, b) }
	switch c {
	case host.E:
		return s.ZF
	case host.NE:
		return not(s.ZF)
	case host.S:
		return s.SF
	case host.NS:
		return not(s.SF)
	case host.O:
		return s.OF
	case host.NO:
		return not(s.OF)
	case host.B:
		return s.CF
	case host.AE:
		return not(s.CF)
	case host.BE:
		return or(s.CF, s.ZF)
	case host.A:
		return and(not(s.CF), not(s.ZF))
	case host.L:
		return Bin(XNe, s.SF, s.OF)
	case host.GE:
		return Bin(XEq, s.SF, s.OF)
	case host.LE:
		return or(s.ZF, Bin(XNe, s.SF, s.OF))
	case host.G:
		return and(not(s.ZF), Bin(XEq, s.SF, s.OF))
	}
	return Unknown("cond")
}

// EvalHost symbolically evaluates a straight-line host sequence. Control
// flow (jumps, calls, exit stubs) is rejected: translation rules are
// straight-line by construction, and the verifier's strictness rejects
// anything else.
func EvalHost(seq []host.Inst, init map[host.Reg]*Expr) (*HState, error) {
	return EvalHostImm(seq, init, nil)
}

// EvalHostChecked is EvalHostImm with a per-instruction admission check
// run before evaluation. Backends pass their encoder's acceptance
// predicate here so a symbolic audit also proves every instruction of
// the sequence is one the backend can actually emit; a nil check
// behaves exactly like EvalHostImm.
func EvalHostChecked(seq []host.Inst, init map[host.Reg]*Expr, hook ImmHook, check func(host.Inst) error) (*HState, error) {
	if check != nil {
		for i, in := range seq {
			if err := check(in); err != nil {
				return nil, fmt.Errorf("symexec: inst %d (%v): %w", i, in, err)
			}
		}
	}
	return EvalHostImm(seq, init, hook)
}

// EvalHostImm is EvalHost with an immediate-read hook (nil behaves
// exactly like EvalHost). Hook slots are DstSlot and SrcSlot.
func EvalHostImm(seq []host.Inst, init map[host.Reg]*Expr, hook ImmHook) (*HState, error) {
	s := NewHState(init)
	s.immHook = hook
	for _, in := range seq {
		if err := s.Step(in); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Fork returns an independent copy of the state, so one evaluated
// prefix can continue down several paths. The copies share the prefix's
// store trace, and neither sees the other's later stores.
func (s *HState) Fork() *HState {
	c := *s
	c.Stores = s.Stores[:len(s.Stores):len(s.Stores)]
	if s.frame != nil {
		c.frame = append([]*Expr(nil), s.frame...)
	}
	return &c
}

// Step evaluates one more instruction of a straight-line host sequence,
// exactly as EvalHostImm evaluates each element of its sequence.
func (s *HState) Step(in host.Inst) error {
	switch in.Op {
	case host.MOVL:
		v, err := s.read(SrcSlot, in.Src)
		if err != nil {
			return err
		}
		if err := s.write(in.Dst, v); err != nil {
			return err
		}
	case host.LEAL:
		if in.Src.Kind != host.KindMem {
			return fmt.Errorf("symexec: lea needs memory operand")
		}
		if err := s.write(in.Dst, s.addrExpr(SrcSlot, in.Src)); err != nil {
			return err
		}
	case host.ADDL, host.SUBL, host.ANDL, host.ORL, host.XORL, host.IMULL,
		host.SHLL, host.SHRL, host.SARL, host.RORL:
		a, err := s.read(DstSlot, in.Dst)
		if err != nil {
			return err
		}
		b, err := s.read(SrcSlot, in.Src)
		if err != nil {
			return err
		}
		var res *Expr
		switch in.Op {
		case host.ADDL:
			res = Bin(XAdd, a, b)
			s.setAddFlags(a, b, res)
		case host.SUBL:
			res = Bin(XSub, a, b)
			s.setSubFlags(a, b, res)
		case host.ANDL:
			res = Bin(XAnd, a, b)
			s.setLogicFlags(res)
		case host.ORL:
			res = Bin(XOr, a, b)
			s.setLogicFlags(res)
		case host.XORL:
			res = Bin(XXor, a, b)
			s.setLogicFlags(res)
		case host.IMULL:
			res = Bin(XMul, a, b)
			// imull leaves most flags undefined; strictness demands
			// we never rely on them.
			s.ZF, s.SF, s.CF, s.OF = Unknown("mulZ"), Unknown("mulS"), Unknown("mulC"), Unknown("mulO")
			s.FlagsSet = true
		case host.SHLL:
			res = Bin(XShl, a, Bin(XAnd, b, Const(31)))
			s.shiftFlags(res, b)
		case host.SHRL:
			res = Bin(XShr, a, Bin(XAnd, b, Const(31)))
			s.shiftFlags(res, b)
		case host.SARL:
			res = Bin(XSar, a, Bin(XAnd, b, Const(31)))
			s.shiftFlags(res, b)
		case host.RORL:
			res = Bin(XRor, a, b)
		}
		if err := s.write(in.Dst, res); err != nil {
			return err
		}
	case host.ADCL, host.SBBL:
		a, _ := s.read(DstSlot, in.Dst)
		b, err := s.read(SrcSlot, in.Src)
		if err != nil {
			return err
		}
		var res *Expr
		if in.Op == host.ADCL {
			res = Bin(XAdd, Bin(XAdd, a, b), s.CF)
			s.ZF = Bin(XEq, res, Const(0))
			s.SF = Bin(XShr, res, Const(31))
			s.CF = Tern(XCarryAdd, a, b, s.CF)
			s.OF = Tern(XOvfAdd, a, b, s.CF)
		} else {
			res = Bin(XSub, Bin(XSub, a, b), s.CF)
			s.ZF = Bin(XEq, res, Const(0))
			s.SF = Bin(XShr, res, Const(31))
			s.CF = Unknown("sbbC")
			s.OF = Unknown("sbbO")
		}
		s.FlagsSet = true
		if err := s.write(in.Dst, res); err != nil {
			return err
		}
	case host.NOTL:
		a, err := s.read(DstSlot, in.Dst)
		if err != nil {
			return err
		}
		if err := s.write(in.Dst, Un(XNot, a)); err != nil {
			return err
		}
	case host.NEGL:
		a, err := s.read(DstSlot, in.Dst)
		if err != nil {
			return err
		}
		res := Un(XNeg, a)
		s.ZF = Bin(XEq, res, Const(0))
		s.SF = Bin(XShr, res, Const(31))
		s.CF = Bin(XNe, a, Const(0))
		s.OF = Tern(XOvfSub, Const(0), a, Const(1))
		s.FlagsSet = true
		if err := s.write(in.Dst, res); err != nil {
			return err
		}
	case host.CMPL:
		a, err := s.read(DstSlot, in.Dst)
		if err != nil {
			return err
		}
		b, err := s.read(SrcSlot, in.Src)
		if err != nil {
			return err
		}
		s.setSubFlags(a, b, Bin(XSub, a, b))
	case host.TESTL:
		a, _ := s.read(DstSlot, in.Dst)
		b, err := s.read(SrcSlot, in.Src)
		if err != nil {
			return err
		}
		s.setLogicFlags(Bin(XAnd, a, b))
	case host.MOVZBL:
		var v *Expr
		if in.Src.Kind == host.KindMem {
			v = s.load(8, SrcSlot, in.Src)
		} else {
			e, err := s.read(SrcSlot, in.Src)
			if err != nil {
				return err
			}
			v = Bin(XAnd, e, Const(0xff))
		}
		if err := s.write(in.Dst, v); err != nil {
			return err
		}
	case host.MOVB:
		if in.Dst.Kind != host.KindMem {
			return fmt.Errorf("symexec: movb to non-memory")
		}
		v, err := s.read(SrcSlot, in.Src)
		if err != nil {
			return err
		}
		s.store(in.Dst, v, 8)
	case host.BSRL:
		v, err := s.read(SrcSlot, in.Src)
		if err != nil {
			return err
		}
		// 31-clz(v) when v!=0; undefined otherwise — model as unknown
		// unless wrapped by the clz adapter, which the verifier
		// cannot see; so rules needing bsr never verify. This is why
		// clz is one of the paper's unlearnable instructions.
		_ = v
		if err := s.write(in.Dst, Unknown("bsr")); err != nil {
			return err
		}
		s.ZF, s.SF, s.CF, s.OF = Unknown("bsrZ"), Unknown("bsrS"), Unknown("bsrC"), Unknown("bsrO")
		s.FlagsSet = true
	case host.SETCC:
		if err := s.write(in.Dst, s.hostCondExpr(in.Cond)); err != nil {
			return err
		}
	default:
		return fmt.Errorf("symexec: host instruction %q not verifiable", in)
	}
	s.instIdx++
	return nil
}

func (s *HState) shiftFlags(res, amount *Expr) {
	// Host shift flags are valid only for nonzero shift counts; with a
	// symbolic count they are conditionally unchanged. Model as the
	// result flags for constant nonzero counts, unknown otherwise.
	if isConst(amount) && amount.C&31 != 0 {
		s.ZF = Bin(XEq, res, Const(0))
		s.SF = Bin(XShr, res, Const(31))
		s.CF = Unknown("shlC")
		s.OF = Unknown("shlO")
	} else {
		s.ZF, s.SF, s.CF, s.OF = Unknown("shZ"), Unknown("shS"), Unknown("shC"), Unknown("shO")
	}
	s.FlagsSet = true
}
