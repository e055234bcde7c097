package backend

import (
	"fmt"

	"paramdbt/internal/env"
	"paramdbt/internal/host"
)

// Post-Finalize peephole pass for the risc backend.
//
// The legalizer is deliberately local: each CISC-shaped instruction is
// rewritten in isolation into a save / load / op / store / restore
// bracket, so adjacent legalized instructions re-save the same scratch
// register and re-load values that are already sitting in it. This pass
// cleans that up after the fact, under two global analyses:
//
//   - value numbering over registers and EBP-relative CPUState slots,
//     valid within straight-line regions, which deletes loads and
//     stores whose destination already holds the value; and
//   - a backward liveness fixpoint over the block's resolved control
//     flow, which deletes flag-transparent moves into dead registers
//     and dead stores into translator-private CPUState slots (spills,
//     OffBorrow, OffLegal0/1 — never guest-visible state).
//
// Every deleted instruction is a MOVL, which the host CPU executes
// without touching EFLAGS, so the pass cannot perturb flag semantics;
// anything flag-setting (the legalized op cores, SETCC flag reads,
// compares) is left exactly where the legalizer put it. The pass is
// licensed per block by analysis.ValidateRewrite: the engine only
// installs the optimized stream when it is proved equivalent to the
// finalized stream it was optimized from. Because every deletion is a
// redundant or dead move, the two streams lift to the same expressions
// and the proof is structural.

// Optimizer is implemented by backends that provide a post-Finalize
// peephole pass over executable blocks.
type Optimizer interface {
	// OptimizeBlock returns a semantically equivalent block with
	// redundant instructions removed. It must never return an error for
	// a well-formed block; on any internal inconsistency it returns the
	// input block unchanged.
	OptimizeBlock(b *host.Block) (*host.Block, OptStats, error)
}

// OptStats reports what a peephole run did.
type OptStats struct {
	Before int // instructions before optimization
	After  int // instructions after
	Rounds int // delete-and-rescan rounds until fixpoint
}

// Deleted returns the number of instructions removed.
func (s OptStats) Deleted() int { return s.Before - s.After }

// peepholeFault, when non-nil, corrupts the optimized stream before the
// block is rebuilt. Test-only: fault-injection hook for proving the
// translation validator rejects a broken peephole variant.
var peepholeFault func([]host.Inst) []host.Inst

// OptimizeBlock runs the peephole pass. The risc backend is the only
// optimizer: the pass exists to claw back the legalizer's load/store
// expansion, and the x86 backend's Finalize is a byte-identical
// passthrough with nothing to clean up.
func (riscBackend) OptimizeBlock(b *host.Block) (*host.Block, OptStats, error) {
	insts := append([]host.Inst(nil), b.Insts...)
	labels := make(map[int]int, len(b.Labels()))
	for id, idx := range b.Labels() {
		labels[id] = idx
	}
	stats := OptStats{Before: len(insts)}
	for {
		changed := false
		if del := redundantMoves(insts, labels); del != nil {
			insts, labels = compact(insts, labels, del)
			changed = true
		}
		if del := deadMoves(insts, labels); del != nil {
			insts, labels = compact(insts, labels, del)
			changed = true
		}
		stats.Rounds++
		if !changed || stats.Rounds >= 8 {
			break
		}
	}
	if peepholeFault != nil {
		insts = peepholeFault(insts)
	}
	stats.After = len(insts)
	for i, in := range insts {
		if _, err := Encode(in); err != nil {
			return b, OptStats{Before: stats.Before, After: stats.Before, Rounds: stats.Rounds},
				fmt.Errorf("risc peephole: inst %d (%v): %w", i, in, err)
		}
	}
	return host.NewBlock(insts, labels), stats, nil
}

// privateSlot reports whether an EBP displacement addresses a
// translator-private CPUState slot: spill homes, the tcg borrow slot
// and the legalizer save slots. Guest-visible state (registers, NZCV,
// float registers) is excluded — stores there are the translation's
// semantics.
func privateSlot(disp int32) bool {
	return disp >= env.OffScratch && disp < env.Size
}

// plainSlot reports whether o is a scale-free EBP-relative memory
// operand — a directly-addressed CPUState slot.
func plainSlot(o host.Operand) bool {
	return o.Kind == host.KindMem && o.Base == host.EBP && o.Scale == 0
}

// compact removes the instructions marked in del, remapping labels onto
// the surviving indices (the same newStart scheme as legalize). It
// works in place: OptimizeBlock owns both insts and labels.
func compact(insts []host.Inst, labels map[int]int, del []bool) ([]host.Inst, map[int]int) {
	newStart := make([]int, len(insts)+1)
	out := insts[:0]
	for i, in := range insts {
		newStart[i] = len(out)
		if !del[i] {
			out = append(out, in)
		}
	}
	newStart[len(insts)] = len(out)
	for id, idx := range labels {
		labels[id] = newStart[idx]
	}
	return out, labels
}

// labelTargets returns the set of instruction indices some label binds
// to — the control-flow join points where straight-line value tracking
// must restart.
func labelTargets(insts []host.Inst, labels map[int]int) []bool {
	t := make([]bool, len(insts)+1)
	for _, idx := range labels {
		if idx >= 0 && idx <= len(insts) {
			t[idx] = true
		}
	}
	return t
}

// redundantMoves value-numbers registers and CPUState slots through
// each straight-line region and marks MOVLs whose destination already
// holds the source's value. Returns nil when nothing is deletable.
func redundantMoves(insts []host.Inst, labels map[int]int) []bool {
	joins := labelTargets(insts, labels)
	var del []bool
	mark := func(i int) {
		if del == nil {
			del = make([]bool, len(insts))
		}
		del[i] = true
	}

	// Value numbers: regVal[r] and slotVal[disp] hold the id of the
	// value currently in host register r / CPUState slot disp; 0 means
	// unknown. Fresh ids come from next.
	var regVal [host.NumRegs]int
	slotVal := map[int32]int{}
	next := 1
	reset := func() {
		regVal = [host.NumRegs]int{}
		clear(slotVal)
	}
	fresh := func() int { next++; return next }
	// clobberSlots drops all slot knowledge — used for writes through
	// non-EBP bases, which could alias the CPUState block.
	clobberSlots := func() { clear(slotVal) }

	for i, in := range insts {
		if joins[i] {
			reset()
		}
		switch in.Op {
		case host.MOVL:
			switch {
			case in.Dst.Kind == host.KindReg && in.Src.Kind == host.KindReg:
				if in.Dst.Reg == in.Src.Reg ||
					(regVal[in.Dst.Reg] != 0 && regVal[in.Dst.Reg] == regVal[in.Src.Reg]) {
					mark(i)
					continue
				}
				if regVal[in.Src.Reg] == 0 {
					regVal[in.Src.Reg] = fresh()
				}
				regVal[in.Dst.Reg] = regVal[in.Src.Reg]
			case in.Dst.Kind == host.KindReg && plainSlot(in.Src):
				v := slotVal[in.Src.Disp]
				if v != 0 && regVal[in.Dst.Reg] == v {
					mark(i)
					continue
				}
				if v == 0 {
					v = fresh()
					slotVal[in.Src.Disp] = v
				}
				regVal[in.Dst.Reg] = v
			case plainSlot(in.Dst) && in.Src.Kind == host.KindReg:
				if regVal[in.Src.Reg] == 0 {
					regVal[in.Src.Reg] = fresh()
				}
				if slotVal[in.Dst.Disp] == regVal[in.Src.Reg] {
					mark(i)
					continue
				}
				slotVal[in.Dst.Disp] = regVal[in.Src.Reg]
			case in.Dst.Kind == host.KindReg:
				// Load through a non-EBP base or an immediate move:
				// destination gets a fresh value.
				regVal[in.Dst.Reg] = fresh()
			case plainSlot(in.Dst):
				slotVal[in.Dst.Disp] = fresh()
			default:
				// Store through a non-EBP base: may alias any slot.
				clobberSlots()
			}
		case host.JMP, host.ExitTB, host.RET, host.CALL:
			reset()
		case host.JCC:
			// Fall-through keeps the facts; the taken path re-enters at
			// a label, which resets.
		case host.PUSHL:
			// Writes host-stack memory: conservatively treat as an
			// aliasing store.
			clobberSlots()
		case host.POPL:
			if in.Dst.Kind == host.KindReg {
				regVal[in.Dst.Reg] = fresh()
			}
		default:
			// Any other instruction: invalidate what it writes.
			if in.Dst.Kind == host.KindReg {
				regVal[in.Dst.Reg] = fresh()
			} else if plainSlot(in.Dst) {
				slotVal[in.Dst.Disp] = fresh()
			} else if in.Dst.Kind == host.KindMem {
				clobberSlots()
			}
		}
	}
	return del
}

// liveness domain: the six general registers (EBP/ESP are pinned and
// never considered) plus one pseudo-register per private CPUState slot.
// Bit i < NumRegs is host register i; private slots map via slotBit.
const liveRegs = int(host.NumRegs)

func slotBit(disp int32) (int, bool) {
	if !privateSlot(disp) {
		return 0, false
	}
	return liveRegs + int(disp-env.OffScratch)/4, true
}

const liveBits = liveRegs + (env.Size-env.OffScratch)/4

type liveSet uint64

func (s liveSet) has(b int) bool   { return s&(1<<uint(b)) != 0 }
func (s *liveSet) add(b int)       { *s |= 1 << uint(b) }
func (s *liveSet) drop(b int)      { *s &^= 1 << uint(b) }
func (s *liveSet) union(o liveSet) { *s |= o }

// allPrivate is the live-set with every private-slot bit on.
func allPrivate() liveSet {
	var s liveSet
	for b := liveRegs; b < liveBits; b++ {
		s.add(b)
	}
	return s
}

// instEffect classifies one instruction for the liveness pass: the bits
// it reads (gen), the bits it fully overwrites (kill), and whether it
// is a deletable flag-transparent move when its destination is dead.
func instEffect(in host.Inst) (gen, kill liveSet, deletable bool) {
	useOp := func(o host.Operand) {
		switch o.Kind {
		case host.KindReg:
			gen.add(int(o.Reg))
		case host.KindMem:
			gen.add(int(o.Base))
			if o.Scale != 0 {
				gen.add(int(o.Index))
			}
			if plainSlot(o) && o.Scale == 0 {
				if b, ok := slotBit(o.Disp); ok {
					gen.add(b)
				}
			} else if o.Base != host.EBP || o.Scale != 0 {
				// A read through an unknown address may hit any slot.
				gen.union(allPrivate())
			}
		}
	}

	switch in.Op {
	case host.MOVL:
		useOp(in.Src)
		switch {
		case in.Dst.Kind == host.KindReg:
			kill.add(int(in.Dst.Reg))
			deletable = in.Dst.Reg != host.EBP && in.Dst.Reg != host.ESP
		case plainSlot(in.Dst):
			gen.add(int(in.Dst.Base))
			if b, ok := slotBit(in.Dst.Disp); ok {
				kill.add(b)
				deletable = true
			}
		default:
			useOp(in.Dst) // address registers of a wild store
		}
	case host.MOVZBL, host.LEAL, host.SETCC, host.POPL:
		useOp(in.Src)
		if in.Op == host.POPL {
			// Reads host-stack memory; conservatively assume it may
			// alias the CPUState scratch area.
			gen.union(allPrivate())
		}
		if in.Dst.Kind == host.KindReg {
			kill.add(int(in.Dst.Reg))
		} else {
			useOp(in.Dst) // memory destination: treat as use
		}
	case host.CMPL, host.TESTL, host.PUSHL, host.UCOMISS:
		useOp(in.Dst)
		useOp(in.Src)
		if in.Op == host.PUSHL {
			gen.add(int(host.ESP))
		}
	case host.MOVB:
		// Byte ops read-modify-write their destination.
		useOp(in.Src)
		useOp(in.Dst)
	case host.JMP, host.JCC, host.RET:
		// No register effects.
	case host.ExitTB:
		useOp(in.Dst)
	case host.CALL:
		// Unknown callee: everything is live across it.
		gen = ^liveSet(0)
	default:
		// ALU and the rest: read-modify-write destination plus source.
		useOp(in.Src)
		useOp(in.Dst)
		if in.Dst.Kind == host.KindReg {
			kill.add(int(in.Dst.Reg))
		}
	}
	return gen, kill, deletable
}

// deadMoves runs a backward liveness fixpoint over the block CFG and
// marks flag-transparent MOVLs whose destination (a scratch register,
// or a private CPUState slot) is dead. Returns nil when nothing is
// deletable.
func deadMoves(insts []host.Inst, labels map[int]int) []bool {
	n := len(insts)
	if n == 0 {
		return nil
	}
	// Resolve jump targets.
	target := make([]int, n)
	for i, in := range insts {
		target[i] = -1
		if (in.Op == host.JMP || in.Op == host.JCC) && in.Dst.Kind == host.KindLabel {
			t, ok := labels[in.Dst.Label]
			if !ok {
				return nil // unbound label: refuse to analyze
			}
			target[i] = t
		}
	}
	gen := make([]liveSet, n)
	kill := make([]liveSet, n)
	candidate := make([]bool, n)
	for i, in := range insts {
		gen[i], kill[i], candidate[i] = instEffect(in)
	}
	// liveIn[i] is the set live immediately before instruction i; the
	// virtual index n (fall off the end) is fully live, ExitTB/RET have
	// empty live-out (host registers and private slots are dead across
	// blocks — every block re-enters through a prologue).
	liveIn := make([]liveSet, n+1)
	liveIn[n] = ^liveSet(0)
	liveOut := func(i int) liveSet {
		var out liveSet
		switch insts[i].Op {
		case host.ExitTB, host.RET:
			return 0
		case host.JMP:
			return liveIn[target[i]]
		case host.JCC:
			out = liveIn[i+1]
			out.union(liveIn[target[i]])
			return out
		}
		return liveIn[i+1]
	}
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			in := liveOut(i)
			in &^= kill[i]
			in.union(gen[i])
			if in != liveIn[i] {
				liveIn[i] = in
				changed = true
			}
		}
	}
	var del []bool
	for i := range insts {
		if !candidate[i] {
			continue
		}
		if kill[i] != 0 && kill[i]&liveOut(i) == 0 {
			if del == nil {
				del = make([]bool, len(insts))
			}
			del[i] = true
		}
	}
	return del
}
