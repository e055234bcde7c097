package rule

import (
	"fmt"

	"paramdbt/internal/guest"
	"paramdbt/internal/host"
	"paramdbt/internal/obs"
	"paramdbt/internal/symexec"
)

// Instantiate produces concrete host instructions from a matched
// template. regOf maps each bound guest register to the host register
// currently carrying its value; scratch supplies NScratch free host
// registers. The emitted code reads and writes only those registers.
func Instantiate(t *Template, b Binding, regOf func(guest.Reg) (host.Reg, bool), scratch []host.Reg) ([]host.Inst, error) {
	return InstantiateChecked(t, b, regOf, scratch, nil)
}

// InstantiateChecked is Instantiate with a per-instruction admission
// check (the host backend's emitter predicate): a rule whose
// instantiated body the backend cannot emit fails the translation of
// that block instead of reaching the encoder. A nil check behaves
// exactly like Instantiate.
func InstantiateChecked(t *Template, b Binding, regOf func(guest.Reg) (host.Reg, bool), scratch []host.Reg, check func(host.Inst) error) ([]host.Inst, error) {
	return AppendInstantiated(make([]host.Inst, 0, len(t.Host)), t, &b, regOf, scratch, check)
}

// AppendInstantiated is InstantiateChecked appending to out — the
// translator instantiates straight into its assembler's stream — and
// returning the extended slice. On error it returns nil; whatever it
// wrote past len(out) is garbage.
func AppendInstantiated(out []host.Inst, t *Template, b *Binding, regOf func(guest.Reg) (host.Reg, bool), scratch []host.Reg, check func(host.Inst) error) ([]host.Inst, error) {
	if len(scratch) < t.NScratch {
		return nil, fmt.Errorf("rule: need %d scratch registers, have %d", t.NScratch, len(scratch))
	}
	for _, p := range t.Host {
		dst, err := instOperand(p.Dst, b, regOf, scratch)
		if err != nil {
			return nil, err
		}
		src, err := instOperand(p.Src, b, regOf, scratch)
		if err != nil {
			return nil, err
		}
		in := host.Inst{Op: p.Op, Cond: p.Cond, Dst: dst, Src: src}
		if check != nil {
			if err := check(in); err != nil {
				return nil, fmt.Errorf("rule: %v: %w", t, err)
			}
		}
		out = append(out, in)
	}
	if obs.On() {
		metInstantiations.Inc()
	}
	return out, nil
}

// instOperand instantiates one host-pattern slot under b.
func instOperand(a Arg, b *Binding, regOf func(guest.Reg) (host.Reg, bool), scratch []host.Reg) (host.Operand, error) {
	switch a.Kind {
	case guest.KindNone:
		return host.Operand{}, nil
	case guest.KindReg:
		if a.Scratch >= 0 {
			return host.R(scratch[a.Scratch]), nil
		}
		h, ok := regOf(b.Regs[a.Param])
		if !ok {
			return host.Operand{}, fmt.Errorf("rule: guest %v not register-resident", b.Regs[a.Param])
		}
		return host.R(h), nil
	case guest.KindImm:
		if a.Param >= 0 {
			return host.Imm(b.Imms[a.Param]), nil
		}
		return host.Imm(a.Fixed), nil
	case guest.KindMem:
		base, ok := regOf(b.Regs[a.BaseParam])
		if !ok {
			return host.Operand{}, fmt.Errorf("rule: guest base %v not register-resident", b.Regs[a.BaseParam])
		}
		if a.HasIdx {
			idx, ok := regOf(b.Regs[a.IdxParam])
			if !ok {
				return host.Operand{}, fmt.Errorf("rule: guest index %v not register-resident", b.Regs[a.IdxParam])
			}
			return host.MemIdx(base, idx, 1, 0), nil
		}
		disp := a.Disp
		if a.DispParam >= 0 {
			disp = b.Imms[a.DispParam]
		}
		return host.Mem(base, disp), nil
	}
	return host.Operand{}, fmt.Errorf("rule: bad slot kind %v", a.Kind)
}

// verifyRegs is the canonical parameter-to-register assignment used when
// a template is verified: register param i gets guest register i and
// host register i, scratch j gets host register len(params)+j. Templates
// needing more registers than the host has are unverifiable (and
// unusable).
func verifyAssignment(t *Template) (greg []guest.Reg, hreg []host.Reg, scratch []host.Reg, ok bool) {
	nr := 0
	for _, k := range t.Params {
		if k == PReg {
			nr++
		}
	}
	if nr+t.NScratch > host.NumRegs {
		return nil, nil, nil, false
	}
	greg = make([]guest.Reg, len(t.Params))
	hreg = make([]host.Reg, len(t.Params))
	next := 0
	for p, k := range t.Params {
		if k != PReg {
			continue
		}
		greg[p] = guest.Reg(next)
		hreg[p] = host.Reg(next)
		next++
	}
	for j := 0; j < t.NScratch; j++ {
		scratch = append(scratch, host.Reg(next))
		next++
	}
	return greg, hreg, scratch, true
}

// immSamples are the immediate values a parametric immediate is verified
// against; the encoder limits immediates to [0,255], so these cover the
// boundaries and shifter-relevant values.
var immSamples = []int32{0, 1, 2, 5, 31, 32, 128, 255}

// guestInsts materializes the guest pattern under an assignment.
func guestInsts(t *Template, greg []guest.Reg, imm func(p int) int32) ([]guest.Inst, error) {
	var out []guest.Inst
	for _, p := range t.Guest {
		in := guest.Inst{Op: p.Op, Cond: guest.AL, S: p.S}
		for j, a := range p.Args {
			var o guest.Operand
			switch a.Kind {
			case guest.KindReg:
				if a.Scratch >= 0 {
					return nil, fmt.Errorf("rule: scratch slot in guest pattern")
				}
				o = guest.RegOp(greg[a.Param])
			case guest.KindImm:
				if a.Param >= 0 {
					o = guest.ImmOp(imm(a.Param))
				} else {
					o = guest.ImmOp(a.Fixed)
				}
			case guest.KindMem:
				if a.HasIdx {
					o = guest.MemIdxOp(greg[a.BaseParam], greg[a.IdxParam])
				} else {
					d := a.Disp
					if a.DispParam >= 0 {
						d = imm(a.DispParam)
					}
					o = guest.MemOp(greg[a.BaseParam], d)
				}
			default:
				return nil, fmt.Errorf("rule: bad guest slot kind")
			}
			in.Ops[j] = o
			in.N = j + 1
		}
		out = append(out, in)
	}
	return out, nil
}

// Concretize materializes the template's guest and host sequences under
// the canonical verify assignment (register param i -> guest/host
// register i, scratch after) with the given immediate values. It
// returns the sequences plus the register bindings and scratch set in
// the form symexec.CheckEquiv consumes. The static rule auditor uses
// this both to lift a template symbolically and to replay a concrete
// witness instantiation through the symbolic verifier.
func Concretize(t *Template, imm func(p int) int32) (gseq []guest.Inst, hseq []host.Inst, binds []symexec.Binding, scratch []host.Reg, err error) {
	greg, hreg, scratch, ok := verifyAssignment(t)
	if !ok {
		return nil, nil, nil, nil, fmt.Errorf("rule: too many registers to assign")
	}
	gseq, err = guestInsts(t, greg, imm)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	regOf := func(r guest.Reg) (host.Reg, bool) {
		for p, k := range t.Params {
			if k == PReg && greg[p] == r {
				return hreg[p], true
			}
		}
		return 0, false
	}
	bb := Binding{Regs: make([]guest.Reg, len(t.Params)), Imms: make([]int32, len(t.Params))}
	seen := map[int]bool{}
	for p, k := range t.Params {
		switch k {
		case PReg:
			bb.Regs[p] = greg[p]
			if !seen[p] {
				seen[p] = true
				binds = append(binds, symexec.Binding{Guest: greg[p], Host: hreg[p]})
			}
		case PImm:
			bb.Imms[p] = imm(p)
		}
	}
	hseq, err = Instantiate(t, bb, regOf, scratch)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return gseq, hseq, binds, scratch, nil
}

// Verify checks the template's semantic correctness with the symbolic
// executor. Parametric immediates are checked across a sample set (the
// paper instantiates and verifies derived rules concretely; we do the
// same). On success it fills in the template's flag metadata and returns
// true.
func Verify(t *Template) (symexec.Result, bool) {
	greg, hreg, scratch, ok := verifyAssignment(t)
	if !ok {
		return symexec.Result{Reason: "too many registers"}, false
	}

	// Collect immediate params.
	var immParams []int
	for p, k := range t.Params {
		if k == PImm {
			immParams = append(immParams, p)
		}
	}

	var binds []symexec.Binding
	seen := map[int]bool{}
	for p, k := range t.Params {
		if k == PReg && !seen[p] {
			seen[p] = true
			binds = append(binds, symexec.Binding{Guest: greg[p], Host: hreg[p]})
		}
	}

	var final symexec.Result
	trials := 1
	if len(immParams) > 0 {
		trials = len(immSamples)
	}
	for trial := 0; trial < trials; trial++ {
		immOf := func(p int) int32 {
			// Rotate samples per param so multi-immediate rules see
			// distinct combinations.
			idx := trial
			for i, ip := range immParams {
				if ip == p {
					idx = (trial + i) % len(immSamples)
				}
			}
			v := immSamples[idx]
			for _, nz := range t.NonZeroImms {
				if nz == p && v == 0 {
					v = immSamples[(idx+1)%len(immSamples)]
				}
			}
			return v
		}
		gseq, err := guestInsts(t, greg, immOf)
		if err != nil {
			return symexec.Result{Reason: err.Error()}, false
		}
		regOf := func(r guest.Reg) (host.Reg, bool) {
			for p, k := range t.Params {
				if k == PReg && greg[p] == r {
					return hreg[p], true
				}
			}
			return 0, false
		}
		bb := Binding{Regs: make([]guest.Reg, len(t.Params)), Imms: make([]int32, len(t.Params))}
		for p, k := range t.Params {
			switch k {
			case PReg:
				bb.Regs[p] = greg[p]
			case PImm:
				bb.Imms[p] = immOf(p)
			}
		}
		hseq, err := Instantiate(t, bb, regOf, scratch)
		if err != nil {
			return symexec.Result{Reason: err.Error()}, false
		}
		var res symexec.Result
		if t.BranchTail {
			res = symexec.CheckEquivBranch(gseq, hseq, binds, scratch, t.GCond, t.HCond)
		} else {
			res = symexec.CheckEquiv(gseq, hseq, binds, scratch)
		}
		if !res.Equivalent {
			return res, false
		}
		if trial == 0 {
			final = res
		} else {
			// Flag correspondence must be stable across samples.
			if res.Flags != final.Flags {
				final.Flags = symexec.FlagCorrespondence{}
			}
		}
	}

	t.SetsFlags = final.GuestSetsFlags
	t.Flags = final.Flags
	if t.SetsFlags {
		t.FlagSrc = flagFamOf(t.Guest[len(t.Guest)-1].Op)
		// When a multi-instruction rule's flag source is not its last
		// instruction, find the last flag-setting one.
		for i := len(t.Guest) - 1; i >= 0; i-- {
			p := t.Guest[i]
			if p.S || isCompare(p.Op) {
				t.FlagSrc = flagFamOf(p.Op)
				break
			}
		}
	}
	return final, true
}

func isCompare(op guest.Op) bool {
	switch op {
	case guest.CMP, guest.CMN, guest.TST, guest.TEQ:
		return true
	}
	return false
}

func flagFamOf(op guest.Op) FlagFam {
	switch op {
	case guest.LSL, guest.LSR, guest.ASR, guest.ROR:
		// The shifter carry depends on the shift amount; no host flag
		// correspondence or materialization recipe exists, so S-shift
		// rules are never flag-usable (they fall back to emulation).
		return FamNone
	case guest.ADD, guest.ADC, guest.CMN:
		return FamAdd
	case guest.SUB, guest.SBC, guest.RSB, guest.RSC, guest.CMP:
		return FamSub
	default:
		return FamLogic
	}
}

// FlagFamOf exposes the family classification (used by the translator's
// delegation logic for emulated instructions too).
func FlagFamOf(op guest.Op) FlagFam { return flagFamOf(op) }
