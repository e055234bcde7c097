package dbt

import (
	"fmt"
	"math/bits"

	"paramdbt/internal/env"
	"paramdbt/internal/guest"
	"paramdbt/internal/host"
)

// Manual translations (paper §V-B2): the handful of instructions the
// learning process can never produce rules for — the ABI-tied stack
// operations and the specials without host counterparts — "can be added
// manually into the translation rules with very minimal engineering
// effort", closing the coverage gap. Enabled by Config.ManualABI, these
// emit hand-written host code (not TCG expansions) and count as
// rule-covered; with them the DBT approaches 100% dynamic coverage.

// manualEmittable reports whether a manual translation exists for the
// (non-terminator) instruction.
func manualEmittable(in guest.Inst) bool {
	if in.Cond != guest.AL || in.S {
		return false
	}
	switch in.Op {
	case guest.PUSH:
		return in.Ops[0].List&(1<<uint(guest.PC)) == 0
	case guest.POP:
		return in.Ops[0].List&(1<<uint(guest.PC)) == 0
	case guest.CLZ, guest.MLA, guest.UMLA:
		return true
	}
	return false
}

// emitManual translates one instruction with its hand-written recipe.
// Guest registers are accessed through the block mapping (or their
// CPUState slots), using the temp pool for staging.
func (tr *translator) emitManual(tx *txctx, in guest.Inst) error {
	a, mapping := &tx.asm, &tx.regs

	// loadTo stages a guest register into a specific host register.
	loadTo := func(dst host.Reg, r guest.Reg) {
		a.SetCat(host.CatDataTransfer)
		a.Emit(host.I(host.MOVL, host.R(dst), mapping.operand(r)))
		a.SetCat(host.CatCompute)
	}
	// storeFrom writes a host register back to a guest register's home.
	storeFrom := func(r guest.Reg, src host.Reg) {
		a.SetCat(host.CatDataTransfer)
		a.Emit(host.I(host.MOVL, mapping.operand(r), host.R(src)))
		a.SetCat(host.CatCompute)
	}

	switch in.Op {
	case guest.PUSH:
		// sp -= 4n; store each listed register ascending.
		list := in.Ops[0].List
		n := int32(bits.OnesCount16(list))
		loadTo(host.EAX, guest.SP)
		a.Emit(host.I(host.SUBL, host.R(host.EAX), host.Imm(4*n)))
		off := int32(0)
		for r := guest.Reg(0); r < guest.NumRegs; r++ {
			if list&(1<<uint(r)) == 0 {
				continue
			}
			if hr, ok := mapping.get(r); ok {
				a.Emit(host.I(host.MOVL, host.Mem(host.EAX, off), host.R(hr)))
			} else {
				a.Emit(host.I(host.MOVL, host.R(host.ECX), host.Mem(host.EBP, env.OffReg(int(r)))))
				a.Emit(host.I(host.MOVL, host.Mem(host.EAX, off), host.R(host.ECX)))
			}
			off += 4
		}
		storeFrom(guest.SP, host.EAX)
		return nil

	case guest.POP:
		list := in.Ops[0].List
		loadTo(host.EAX, guest.SP)
		off := int32(0)
		for r := guest.Reg(0); r < guest.NumRegs; r++ {
			if list&(1<<uint(r)) == 0 {
				continue
			}
			if hr, ok := mapping.get(r); ok {
				a.Emit(host.I(host.MOVL, host.R(hr), host.Mem(host.EAX, off)))
			} else {
				a.Emit(host.I(host.MOVL, host.R(host.ECX), host.Mem(host.EAX, off)))
				a.Emit(host.I(host.MOVL, host.Mem(host.EBP, env.OffReg(int(r))), host.R(host.ECX)))
			}
			off += 4
		}
		a.Emit(host.I(host.ADDL, host.R(host.EAX), host.Imm(off)))
		storeFrom(guest.SP, host.EAX)
		return nil

	case guest.CLZ:
		// dst = 32 when src == 0, else 31 - bsr(src).
		loadTo(host.ECX, in.Ops[1].Reg)
		skip := a.NewLabel()
		a.Emit(host.I(host.MOVL, host.R(host.EAX), host.Imm(32)))
		a.Emit(host.I(host.BSRL, host.R(host.ECX), host.R(host.ECX)))
		a.Emit(host.Jcc(host.E, skip))
		a.Emit(host.I(host.MOVL, host.R(host.EAX), host.Imm(31)))
		a.Emit(host.I(host.SUBL, host.R(host.EAX), host.R(host.ECX)))
		a.Bind(skip)
		storeFrom(in.Ops[0].Reg, host.EAX)
		return nil

	case guest.MLA, guest.UMLA:
		// rd = rn*rm + ra (UMLA masks the factors to 16 bits).
		loadTo(host.EAX, in.Ops[1].Reg)
		loadTo(host.ECX, in.Ops[2].Reg)
		if in.Op == guest.UMLA {
			a.Emit(host.I(host.ANDL, host.R(host.EAX), host.Imm(0xffff)))
			a.Emit(host.I(host.ANDL, host.R(host.ECX), host.Imm(0xffff)))
		}
		a.Emit(host.I(host.IMULL, host.R(host.EAX), host.R(host.ECX)))
		loadTo(host.ECX, in.Ops[3].Reg)
		a.Emit(host.I(host.ADDL, host.R(host.EAX), host.R(host.ECX)))
		storeFrom(in.Ops[0].Reg, host.EAX)
		return nil
	}
	return fmt.Errorf("dbt: no manual translation for %q", in)
}

// manualTerminatorCovered reports whether, under ManualABI, the
// terminator's translation counts as covered: b/bl/bx compile to pure
// control stubs that a manual rule table would emit identically.
func manualTerminatorCovered(term guest.Inst) bool {
	switch term.Op {
	case guest.B, guest.BL, guest.BX:
		return true
	}
	return false
}
