// Package learn implements the rule-learning pipeline of the paper's
// §II-A: rule candidates are extracted from the guest/host binary pair
// compiled from the same source, one candidate per source statement via
// the line table; candidate operands are abstracted into parameters
// using the compilers' variable-location maps (the DWARF stand-in); and
// the symbolic-execution verifier accepts or rejects each candidate.
// Accepted candidates are merged into a rule store.
//
// The pipeline's drop rates are emergent: statements eliminated or
// merged by the optimizer yield no candidates; statements whose guest
// and host operand shapes mismatch (register vs stack slot), whose code
// contains calls, or whose host idiom the verifier cannot relate are
// rejected — reproducing the funnel of the paper's Table I. FromCompiled
// returns the per-unit funnel as Stats; the process-wide learn.*
// counters on obs.Default accumulate the same funnel across units when
// telemetry is enabled (docs/OBSERVABILITY.md).
package learn

import (
	"paramdbt/internal/analysis"
	"paramdbt/internal/guest"
	"paramdbt/internal/host"
	"paramdbt/internal/minic"
	"paramdbt/internal/obs"
	"paramdbt/internal/rule"
)

// Stats is the learning funnel for one compilation unit (one benchmark),
// matching the columns of the paper's Table I.
type Stats struct {
	Statements   int // static source statements
	Candidates   int // rule candidates extracted from the line table
	Learned      int // candidates that passed verification
	GateRejected int // verified candidates the static audit refuted
	Unique       int // after duplicate merging
}

// AdmissionGate is the static audit applied to every verified candidate
// before it enters the store. It defaults to the analysis package's
// auditor, which rejects only confirmed-unsound rules (those with a
// concrete witness instantiation that symexec confirms diverges); sound
// and inconclusive candidates are admitted. Tests may swap it out.
var AdmissionGate func(*rule.Template) (ok bool, reason string) = analysis.Gate

// FromCompiled learns rules from a compiled program into store and
// returns the funnel statistics. The store may already contain rules
// from other programs; Unique counts only rules new to this call.
func FromCompiled(c *minic.Compiled, store *rule.Store) Stats {
	telemetry := obs.On()
	st := Stats{Statements: c.StmtCount}
	abstracted := 0
	for i, cf := range c.Funcs {
		// The host half exists only to learn from: compile it here, from
		// the same optimized function, and drop it after. A function the
		// host compiler rejects yields no candidates.
		hf, err := minic.GenHost(cf.Fn, i)
		if err != nil {
			continue
		}
		for _, pair := range minic.ZipEntries(cf.G.Entries, hf.Entries) {
			if !pair.Reliable {
				continue
			}
			rawG := cf.G.Insts[pair.G.Start:pair.G.End]
			rawH := hf.Insts[pair.H.Start:pair.H.End]
			// A statement ending in a conditional branch on both sides
			// (compare-and-branch) yields a branch-tail candidate: the
			// branch is part of the rule, its target is not.
			gcond, hcond, tails := branchTails(rawG, rawH)
			gseq := clipGuest(rawG)
			hseq := clipHost(rawH)
			if len(gseq) == 0 || len(hseq) == 0 || len(gseq) > 4 {
				continue
			}
			st.Candidates++
			tmpl, ok := Abstract(gseq, hseq, cf.G, hf)
			if !ok {
				continue
			}
			abstracted++
			if tails {
				tmpl.BranchTail = true
				tmpl.GCond = gcond
				tmpl.HCond = hcond
			}
			if _, ok := rule.Verify(tmpl); !ok {
				continue
			}
			if gate := AdmissionGate; gate != nil {
				if ok, _ := gate(tmpl); !ok {
					st.GateRejected++
					continue
				}
			}
			st.Learned++
			tmpl.Origin = rule.OriginLearned
			if store.Add(tmpl) {
				st.Unique++
			}
		}
	}
	if telemetry {
		metStatements.Add(uint64(st.Statements))
		metCandidates.Add(uint64(st.Candidates))
		metAbstracted.Add(uint64(abstracted))
		metVerified.Add(uint64(st.Learned))
		metGateRejected.Add(uint64(st.GateRejected))
		metUnique.Add(uint64(st.Unique))
	}
	return st
}

// branchTails reports whether both sides end with a single conditional
// branch (the learnable compare-and-branch shape) and returns the two
// conditions.
func branchTails(g []guest.Inst, h []host.Inst) (guest.Cond, host.Cond, bool) {
	if len(g) == 0 || len(h) == 0 {
		return 0, 0, false
	}
	gl, hl := g[len(g)-1], h[len(h)-1]
	if gl.Op != guest.B || gl.Cond == guest.AL || hl.Op != host.JCC {
		return 0, 0, false
	}
	// Exactly one trailing branch on each side.
	if len(g) >= 2 && g[len(g)-2].IsBranch() {
		return 0, 0, false
	}
	if len(h) >= 2 && (h[len(h)-2].Op == host.JCC || h[len(h)-2].Op == host.JMP) {
		return 0, 0, false
	}
	return gl.Cond, hl.Cond, true
}

// clipGuest drops trailing control-flow instructions (branches bound to
// the statement's control structure, which are not learnable).
func clipGuest(seq []guest.Inst) []guest.Inst {
	end := len(seq)
	for end > 0 {
		in := seq[end-1]
		if in.Op == guest.B || in.Op == guest.BX {
			end--
			continue
		}
		break
	}
	return seq[:end]
}

// clipHost drops trailing jumps and returns.
func clipHost(seq []host.Inst) []host.Inst {
	end := len(seq)
	for end > 0 {
		switch seq[end-1].Op {
		case host.JMP, host.JCC, host.RET:
			end--
			continue
		}
		break
	}
	return seq[:end]
}

// Abstract lifts a concrete candidate pair into a parameterized
// template using the variable-location maps of the two compilations of
// its function, g and h. It fails (and the candidate is dropped)
// whenever the one-to-one operand correspondence the verifier requires
// cannot be established.
func Abstract(gseq []guest.Inst, hseq []host.Inst, g *minic.GuestFunc, h *minic.HostFunc) (*rule.Template, bool) {
	// Guest register -> host register correspondence.
	corr := map[guest.Reg]host.Reg{}
	haveCorr := map[guest.Reg]bool{}
	// Variable homes.
	for v, gl := range g.Locs {
		if !gl.InReg {
			continue
		}
		hl := h.Locs[v]
		if hl.InReg {
			corr[gl.Reg] = hl.Reg
			haveCorr[gl.Reg] = true
		}
	}
	// ABI-fixed correspondences.
	corr[guest.SP] = host.ESP
	haveCorr[guest.SP] = true
	corr[guest.R0] = host.EAX
	haveCorr[guest.R0] = true
	corr[guest.R1] = host.EDX
	haveCorr[guest.R1] = true
	corr[guest.R2] = host.ECX
	haveCorr[guest.R2] = true

	// Expression temporaries pair by order of first appearance.
	gtemps := orderedGuestTemps(gseq)
	htemps := orderedHostTemps(hseq)
	if len(gtemps) > len(htemps) {
		return nil, false
	}
	for i, gt := range gtemps {
		if haveCorr[gt] {
			continue
		}
		corr[gt] = htemps[i]
		haveCorr[gt] = true
	}

	ab := &abstractor{
		corr:        corr,
		have:        haveCorr,
		regParam:    map[guest.Reg]int{},
		immParam:    map[int32]int{},
		scratch:     map[host.Reg]int{},
		hostWritten: map[host.Reg]bool{},
	}

	// Immediate values appearing on both sides become parameters.
	gImms := immValues(gseqImms(gseq))
	hImms := immValues(hseqImms(hseq))
	shared := map[int32]bool{}
	for v := range gImms {
		if hImms[v] {
			shared[v] = true
		}
	}
	ab.sharedImms = shared

	var gpats []rule.GPat
	for _, in := range gseq {
		p, ok := ab.guestPat(in)
		if !ok {
			return nil, false
		}
		gpats = append(gpats, p)
	}
	var hpats []rule.HPat
	for _, in := range hseq {
		p, ok := ab.hostPat(in)
		if !ok {
			return nil, false
		}
		hpats = append(hpats, p)
	}

	return &rule.Template{
		Guest:    gpats,
		Host:     hpats,
		Params:   ab.params,
		NScratch: ab.nScratch,
	}, true
}

func isGuestTemp(r guest.Reg) bool {
	return r == guest.R10 || r == guest.R11 || r == guest.R12
}

func isHostTemp(r host.Reg) bool {
	return r == host.EAX || r == host.ECX || r == host.EDX
}

func orderedGuestTemps(seq []guest.Inst) []guest.Reg {
	var out []guest.Reg
	seen := map[guest.Reg]bool{}
	visit := func(r guest.Reg) {
		if isGuestTemp(r) && !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	for _, in := range seq {
		for i := 0; i < in.N; i++ {
			o := in.Ops[i]
			switch o.Kind {
			case guest.KindReg:
				visit(o.Reg)
			case guest.KindMem:
				visit(o.Base)
				if o.HasIdx {
					visit(o.Idx)
				}
			}
		}
	}
	return out
}

// orderedHostTemps lists temp-pool registers in order of first
// appearance, skipping registers already claimed by a correspondence.
func orderedHostTemps(seq []host.Inst) []host.Reg {
	var out []host.Reg
	seen := map[host.Reg]bool{}
	visit := func(o host.Operand) {
		switch o.Kind {
		case host.KindReg:
			if isHostTemp(o.Reg) && !seen[o.Reg] {
				seen[o.Reg] = true
				out = append(out, o.Reg)
			}
		case host.KindMem:
			if isHostTemp(o.Base) && !seen[o.Base] {
				seen[o.Base] = true
				out = append(out, o.Base)
			}
			if o.Scale != 0 && isHostTemp(o.Index) && !seen[o.Index] {
				seen[o.Index] = true
				out = append(out, o.Index)
			}
		}
	}
	for _, in := range seq {
		visit(in.Src)
		visit(in.Dst)
	}
	return out
}

func gseqImms(seq []guest.Inst) []int32 {
	var out []int32
	for _, in := range seq {
		for i := 0; i < in.N; i++ {
			o := in.Ops[i]
			if o.Kind == guest.KindImm {
				out = append(out, o.Imm)
			}
			if o.Kind == guest.KindMem && !o.HasIdx && o.Disp != 0 {
				out = append(out, o.Disp)
			}
		}
	}
	return out
}

func hseqImms(seq []host.Inst) []int32 {
	var out []int32
	for _, in := range seq {
		for _, o := range []host.Operand{in.Dst, in.Src} {
			if o.Kind == host.KindImm {
				out = append(out, o.Imm)
			}
			if o.Kind == host.KindMem && o.Scale == 0 && o.Disp != 0 {
				out = append(out, o.Disp)
			}
		}
	}
	return out
}

func immValues(vs []int32) map[int32]bool {
	m := map[int32]bool{}
	for _, v := range vs {
		m[v] = true
	}
	return m
}

type abstractor struct {
	corr map[guest.Reg]host.Reg
	have map[guest.Reg]bool

	params   []rule.ParamKind
	regParam map[guest.Reg]int
	regOrder []guest.Reg // guest register of each PReg param, in param order
	immParam map[int32]int

	sharedImms map[int32]bool

	scratch  map[host.Reg]int
	nScratch int
	// hostWritten tracks host registers written so far, so an unbound
	// host register read before any write fails abstraction.
	hostWritten map[host.Reg]bool
}

func (ab *abstractor) regArg(r guest.Reg) (int, bool) {
	if r == guest.PC || r == guest.LR {
		return 0, false
	}
	if p, ok := ab.regParam[r]; ok {
		return p, true
	}
	if !ab.have[r] {
		return 0, false
	}
	p := len(ab.params)
	ab.params = append(ab.params, rule.PReg)
	ab.regParam[r] = p
	ab.regOrder = append(ab.regOrder, r)
	return p, true
}

func (ab *abstractor) immArg(v int32) rule.Arg {
	if !ab.sharedImms[v] {
		return rule.FixedImmArg(v)
	}
	if p, ok := ab.immParam[v]; ok {
		return rule.ImmArg(p)
	}
	p := len(ab.params)
	ab.params = append(ab.params, rule.PImm)
	ab.immParam[v] = p
	return rule.ImmArg(p)
}

func (ab *abstractor) guestArg(o guest.Operand) (rule.Arg, bool) {
	switch o.Kind {
	case guest.KindReg:
		p, ok := ab.regArg(o.Reg)
		if !ok {
			return rule.Arg{}, false
		}
		return rule.RegArg(p), true
	case guest.KindImm:
		return ab.immArg(o.Imm), true
	case guest.KindMem:
		bp, ok := ab.regArg(o.Base)
		if !ok {
			return rule.Arg{}, false
		}
		if o.HasIdx {
			ip, ok := ab.regArg(o.Idx)
			if !ok {
				return rule.Arg{}, false
			}
			return rule.MemIdxArg(bp, ip), true
		}
		a := ab.immArg(o.Disp)
		if a.Param >= 0 {
			return rule.MemDispArg(bp, a.Param), true
		}
		return rule.MemArg(bp, o.Disp), true
	}
	return rule.Arg{}, false
}

func (ab *abstractor) guestPat(in guest.Inst) (rule.GPat, bool) {
	if in.Cond != guest.AL {
		return rule.GPat{}, false
	}
	p := rule.GPat{Op: in.Op, S: in.S}
	for i := 0; i < in.N; i++ {
		a, ok := ab.guestArg(in.Ops[i])
		if !ok {
			return rule.GPat{}, false
		}
		p.Args = append(p.Args, a)
	}
	return p, true
}

// hostRegArg resolves a host register operand: a parameter when some
// guest register corresponds to it, a scratch slot when the register is
// written before any read, failure otherwise.
func (ab *abstractor) hostRegArg(r host.Reg, isWrite bool) (rule.Arg, bool) {
	// Deterministic lowest-param-first resolution when several guest
	// registers correspond to the same host register.
	for _, gr := range ab.regOrder {
		if ab.corr[gr] == r {
			return rule.RegArg(ab.regParam[gr]), true
		}
	}
	if idx, ok := ab.scratch[r]; ok {
		return rule.ScratchArg(idx), true
	}
	if !isWrite && !ab.hostWritten[r] {
		return rule.Arg{}, false
	}
	idx := ab.nScratch
	ab.nScratch++
	ab.scratch[r] = idx
	ab.hostWritten[r] = true
	return rule.ScratchArg(idx), true
}

func (ab *abstractor) hostArg(o host.Operand, isWrite bool) (rule.Arg, bool) {
	switch o.Kind {
	case host.KindNone:
		return rule.NoArg(), true
	case host.KindReg:
		return ab.hostRegArg(o.Reg, isWrite)
	case host.KindImm:
		return ab.immArg(o.Imm), true
	case host.KindMem:
		base, ok := ab.hostRegArg(o.Base, false)
		if !ok || base.Scratch >= 0 && !ab.hostWritten[o.Base] {
			return rule.Arg{}, false
		}
		if base.Kind != guest.KindReg || base.Param < 0 {
			// Memory addressing through a scratch register is
			// acceptable (address computed by earlier host code).
			if base.Scratch < 0 {
				return rule.Arg{}, false
			}
		}
		if o.Scale != 0 {
			if o.Scale != 1 || o.Disp != 0 {
				return rule.Arg{}, false
			}
			idx, ok := ab.hostRegArg(o.Index, false)
			if !ok || idx.Param < 0 {
				return rule.Arg{}, false
			}
			if base.Param < 0 {
				return rule.Arg{}, false
			}
			return rule.MemIdxArg(base.Param, idx.Param), true
		}
		if base.Param < 0 {
			return rule.Arg{}, false
		}
		a := ab.immArg(o.Disp)
		if a.Param >= 0 {
			return rule.MemDispArg(base.Param, a.Param), true
		}
		return rule.MemArg(base.Param, o.Disp), true
	}
	return rule.Arg{}, false
}

func (ab *abstractor) hostPat(in host.Inst) (rule.HPat, bool) {
	p := rule.HPat{Op: in.Op, Cond: in.Cond, Dst: rule.NoArg(), Src: rule.NoArg()}
	// Source is read first.
	src, ok := ab.hostArg(in.Src, false)
	if !ok {
		return rule.HPat{}, false
	}
	p.Src = src
	dstIsWrite := hostWritesDst(in.Op)
	// Two-address ops also read their destination.
	if hostReadsDst(in.Op) && in.Dst.Kind == host.KindReg {
		if _, ok := ab.hostRegArg(in.Dst.Reg, false); !ok {
			return rule.HPat{}, false
		}
	}
	dst, ok := ab.hostArg(in.Dst, dstIsWrite)
	if !ok {
		return rule.HPat{}, false
	}
	p.Dst = dst
	if dstIsWrite && in.Dst.Kind == host.KindReg {
		ab.hostWritten[in.Dst.Reg] = true
	}
	return p, true
}

func hostWritesDst(op host.Op) bool {
	switch op {
	case host.CMPL, host.TESTL, host.JMP, host.JCC, host.CALL, host.RET, host.PUSHL:
		return false
	}
	return true
}

func hostReadsDst(op host.Op) bool {
	switch op {
	case host.ADDL, host.ADCL, host.SUBL, host.SBBL, host.ANDL, host.ORL,
		host.XORL, host.NOTL, host.NEGL, host.IMULL, host.SHLL, host.SHRL,
		host.SARL, host.RORL, host.CMPL, host.TESTL:
		return true
	}
	return false
}
