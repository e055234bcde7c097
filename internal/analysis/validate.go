// Translation validation: prove a finalized host block equivalent to
// the guest instructions it translates.
//
// The rule auditor (analysis.go) proves *templates* sound over their
// immediate domain; this file proves the *emitted code* — after backend
// lowering, the risc legalizer and the peephole optimizer — still
// implements the guest block. The validator
// symbolically executes both sides, the host side with the CPUState as
// a symbolic frame so its effects come out in guest terms
// (enumHostPaths), and decides each observable effect with the same
// structural → abstract → concrete proof ladder the auditor uses. Refuted verdicts require a concretely replayed
// witness (host.CPU vs guest interpreter); a divergence the replay
// cannot reproduce only ever yields "inconclusive", so modeling gaps in
// the symbolic evaluators can suppress optimization but never condemn
// correct code — and, because callers fall back to conservative code on
// anything but "proved", never admit incorrect code either.
//
// Frame assumption: guest code does not address the CPUState frame
// [env.StateBase, env.StateBase+env.Size). Host stores to symbolic
// (guest-register-derived) addresses are classified as guest-visible
// and assumed not to alias env slots; the dbt memory layout reserves
// that window for the engine, and the shadow verifier enforces it
// dynamically.
package analysis

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"paramdbt/internal/env"
	"paramdbt/internal/guest"
	"paramdbt/internal/host"
	"paramdbt/internal/mem"
	"paramdbt/internal/obs"
	"paramdbt/internal/symexec"
)

// Block-validation verdicts, extending the rule-audit set: a block is
// "proved" when every path pair decided equivalent, "refuted" only on a
// replay-confirmed divergence.
const (
	VerdictProved  = Verdict("proved")
	VerdictRefuted = Verdict("refuted")
)

// ValidateOpts configures a block validation.
type ValidateOpts struct {
	// CheckFlags requires the CPUState NZCV words to be exact at every
	// exit. Callers pass the translation's flagsExact property: blocks
	// that delegate flags to a host branch legitimately leave the words
	// stale.
	CheckFlags bool
	// MaxPaths bounds path enumeration on either side (default 64).
	MaxPaths int
	// HaltPC is the sentinel exit PC the engine uses for HLT
	// (dbt.HaltPC; passed in because analysis cannot import dbt).
	HaltPC uint32
}

// Obligation names what a BlockReport proves a host stream against.
type Obligation string

const (
	// ObligationGuest is ValidateBlock's: the host stream against the
	// guest block it translates. It is the zero value, so guest reports
	// serialize exactly as they did before rewrite reports existed.
	ObligationGuest Obligation = ""
	// ObligationRewrite is ValidateRewrite's: an optimized host stream
	// against the host stream it was optimized from.
	ObligationRewrite Obligation = "rewrite"
)

// BlockReport is the validation outcome for one translated block.
type BlockReport struct {
	Backend    string     `json:"backend,omitempty"`
	PC         uint32     `json:"pc"`
	Obligation Obligation `json:"obligation,omitempty"`
	Verdict    Verdict    `json:"verdict"`
	Proof      Proof      `json:"proof,omitempty"`
	Reason     string     `json:"reason,omitempty"`
	Paths      int        `json:"paths"`           // execution paths paired
	Checks     int        `json:"checks"`          // comparisons decided
	Swept      int        `json:"swept,omitempty"` // concrete points evaluated
	HostInsts  int        `json:"host_insts"`      // size of the validated stream
	Witness    *Witness   `json:"witness,omitempty"`
}

// validateDebug dumps diverging expressions while tuning the modeling
// layer (development aid, off in normal runs).
var validateDebug = os.Getenv("PARAMDBT_VALIDATE_DEBUG") != ""

const (
	defaultMaxPaths  = 64
	validateTrials   = 256 // concrete trials attempted per conditioned check
	validateTarget   = 48  // path-satisfying trials that close a sweep
	validateMinSat   = 6   // fewer satisfying trials than this → inconclusive
	replayMaxSteps   = 1 << 20
	replayMemDiffMax = 8
)

// ValidateBlock proves (or fails to prove) that executing hb on the
// host machine is observably equivalent to interpreting the guest block
// insts at pc: exit PC, the guest register file r0-r14, the ordered
// guest-visible store trace, and — when opts.CheckFlags — the NZCV
// words. Anything the symbolic evaluators
// cannot model yields "inconclusive"; "refuted" is only returned with a
// concretely confirmed witness attached.
//
// hb is finalized code: its backend's Finalize already admitted every
// instruction, so it is evaluated under plain symexec host semantics,
// and the caller stamps the report's backend.
func ValidateBlock(pc uint32, insts []guest.Inst, hb *host.Block, opts ValidateOpts) *BlockReport {
	if opts.MaxPaths <= 0 {
		opts.MaxPaths = defaultMaxPaths
	}
	rep := &BlockReport{PC: pc, Verdict: VerdictInconclusive, HostInsts: len(hb.Insts)}
	defer countVerdict(rep)
	if len(insts) == 0 || len(hb.Insts) == 0 {
		rep.Reason = "empty translation unit"
		return rep
	}

	gps, why := enumGuestPaths(pc, insts, opts)
	if why != "" {
		rep.Reason = "guest: " + why
		return rep
	}
	words := guestWords(opts.CheckFlags)
	hps, why := enumHostPaths(hb, opts.MaxPaths, words)
	if why != "" {
		rep.Reason = "host: " + why
		return rep
	}
	for _, gp := range gps {
		if why := gp.eval(); why != "" {
			rep.Reason = "guest: " + why
			return rep
		}
	}
	for _, hp := range hps {
		if why := hp.ungrounded(); why != "" {
			rep.Reason = "host: " + why
			return rep
		}
	}
	rep.Paths = len(gps)

	groups, why := matchPaths(gps, hps)
	if why != "" {
		rep.Reason = why
		return rep
	}

	l := &ladder{rep: rep, best: ProofStructural, replay: func(vals map[string]uint32) bool {
		return replayDiverges(pc, insts, hb, opts, vals)
	}}
	for gi, group := range groups {
		gp := gps[gi]
		// Predicate exhaustiveness: the guest predicate must agree with
		// the disjunction of the owned host-path predicates, so the
		// host paths partition exactly the inputs the guest path
		// covers. The check is unconditioned — "both always false" is
		// agreement too.
		if len(group) == 1 {
			hp := hps[group[0]]
			if l.apply(decideBlockCheck(checkPair{
				name: "pred", g: conj(gp.preds), h: conj(hp.preds),
				gStores: gp.gs.Stores, hStores: hp.gStores,
			}, nil), "pred") {
				return rep
			}
		} else if l.apply(sweepPredCover(gp, group, hps), "pred") {
			return rep
		}
		ge := gp.effects()
		for _, hi := range group {
			hp := hps[hi]
			checks, why := buildBlockChecks(ge, hp.effects, words, guestSides)
			if why != "" {
				l.fail(why)
				continue
			}
			cond := &condPair{g: conj(gp.preds), h: conj(hp.preds)}
			for _, c := range checks {
				if l.apply(decideBlockCheck(c, cond), c.name) {
					return rep
				}
			}
		}
	}
	l.close()
	return rep
}

// countVerdict feeds a finished report into the analysis.validate_*
// counters.
func countVerdict(rep *BlockReport) {
	if obs.On() {
		metValidateBlocks.Inc()
		switch rep.Verdict {
		case VerdictProved:
			metValidateProved.Inc()
		case VerdictRefuted:
			metValidateRefuted.Inc()
		default:
			metValidateInconcl.Inc()
		}
	}
}

// ladder folds check decisions into a report: the strongest proof rung
// any check needed, the first reason a check stayed undecided, and a
// refutation as soon as replay confirms a witness.
type ladder struct {
	rep          *BlockReport
	best         Proof
	inconclusive string
	// replay runs a witness on the real machines and reports whether the
	// divergence reproduces.
	replay func(vals map[string]uint32) bool
}

// apply folds one check decision into the report and reports whether
// it refuted the block, which ends the validation.
func (l *ladder) apply(d decision, name string) bool {
	rep := l.rep
	rep.Checks++
	rep.Swept += d.swept
	if d.witness != nil {
		if l.replay(d.witness.Vals) {
			d.witness.Confirmed = true
			d.witness.ConfirmedBy = "replay"
			rep.Verdict = VerdictRefuted
			rep.Proof = ""
			rep.Witness = d.witness
			rep.Reason = "divergence on " + name
			return true
		}
		// The symbolic divergence did not reproduce on the real
		// machines: a modeling artifact, not a refutation. Keep the
		// witness (Confirmed=false) for diagnosis.
		if l.inconclusive == "" {
			l.inconclusive = "unconfirmed witness on " + name
			rep.Witness = d.witness
		}
		return false
	}
	if !d.proved {
		l.fail(name + ": " + d.reason)
		return false
	}
	if proofRank(d.proof) > proofRank(l.best) {
		l.best = d.proof
	}
	return false
}

// fail records why the block is not proved, keeping the first reason.
func (l *ladder) fail(why string) {
	if l.inconclusive == "" {
		l.inconclusive = why
	}
}

// close sets the final verdict of a validation no check refuted.
func (l *ladder) close() {
	if l.inconclusive != "" {
		l.rep.Reason = l.inconclusive
		return
	}
	l.rep.Verdict = VerdictProved
	l.rep.Proof = l.best
}

// condPair holds the path predicates value checks are conditioned on:
// a guest/host expression pair that is 1 exactly when execution takes
// the paired path.
type condPair struct {
	g, h *symexec.Expr
}

// ---------------------------------------------------------------------
// Guest path enumeration.

// gDecision is one conditional choice along a guest path: after prefix
// effective instructions, condition cond evaluated to want.
type gDecision struct {
	prefix int
	cond   guest.Cond
	want   bool
}

type gPath struct {
	insts     []guest.Inst // effective (desugared, unconditional) body
	decs      []gDecision
	exitConst bool
	exitPC    uint32
	exitReg   guest.Reg

	gs    *symexec.GState
	preds []*symexec.Expr
}

type gWalker struct {
	pc    uint32
	insts []guest.Inst
	opts  ValidateOpts
	paths []*gPath
	fail  string
}

// gSucc is one terminator successor during enumeration.
type gSucc struct {
	effects   []guest.Inst
	hasDec    bool
	decCond   guest.Cond
	want      bool
	exitConst bool
	exitPC    uint32
	exitReg   guest.Reg
}

func enumGuestPaths(pc uint32, insts []guest.Inst, opts ValidateOpts) ([]*gPath, string) {
	w := &gWalker{pc: pc, insts: insts, opts: opts}
	w.walk(0, nil, nil)
	if w.fail != "" {
		return nil, w.fail
	}
	return w.paths, ""
}

func (w *gWalker) walk(ii int, insts []guest.Inst, decs []gDecision) {
	if w.fail != "" {
		return
	}
	if len(w.paths) >= w.opts.MaxPaths {
		w.fail = "path explosion"
		return
	}
	n := len(w.insts)
	for ; ii < n-1; ii++ {
		in := w.insts[ii]
		if in.IsBranch() || (in.Op == guest.POP && in.N > 0 && in.Ops[0].List&(1<<uint(guest.PC)) != 0) {
			w.fail = fmt.Sprintf("branch %q before block end", in)
			return
		}
		if readsPC(in) {
			w.fail = fmt.Sprintf("%q reads pc", in)
			return
		}
		effects, why := desugarBody(in)
		if why != "" {
			w.fail = why
			return
		}
		if in.Cond != guest.AL {
			// Skipped variant forks off; the executed variant continues
			// in this frame.
			w.walk(ii+1, cloneInsts(insts), append(cloneDecs(decs), gDecision{len(insts), in.Cond, false}))
			if w.fail != "" {
				return
			}
			decs = append(cloneDecs(decs), gDecision{len(insts), in.Cond, true})
		}
		insts = append(cloneInsts(insts), effects...)
	}

	term := w.insts[n-1]
	tpc := w.pc + uint32((n-1)*guest.InstBytes)
	succs, why := termSuccessors(term, tpc, w.opts)
	if why != "" {
		w.fail = why
		return
	}
	for _, sc := range succs {
		nd := cloneDecs(decs)
		if sc.hasDec {
			nd = append(nd, gDecision{len(insts), sc.decCond, sc.want})
		}
		w.finish(append(cloneInsts(insts), sc.effects...), nd, sc)
	}
}

func (w *gWalker) finish(insts []guest.Inst, decs []gDecision, sc gSucc) {
	if w.fail != "" {
		return
	}
	if len(w.paths) >= w.opts.MaxPaths {
		w.fail = "path explosion"
		return
	}
	w.paths = append(w.paths, &gPath{
		insts:     insts,
		decs:      decs,
		exitConst: sc.exitConst,
		exitPC:    sc.exitPC,
		exitReg:   sc.exitReg,
	})
}

// termSuccessors expands a block-terminating instruction into its
// successor set: the executed direction (with any register effects
// desugared into plain instructions) and, for conditional terminators,
// the fall-through.
func termSuccessors(term guest.Inst, tpc uint32, opts ValidateOpts) ([]gSucc, string) {
	fall := tpc + guest.InstBytes
	var exec gSucc
	switch term.Op {
	case guest.B:
		target := fall + uint32(term.Ops[0].Imm)*guest.InstBytes
		if term.Cond != guest.AL && target == fall {
			// Degenerate conditional branch to its own fall-through:
			// both directions coincide, no fork.
			return []gSucc{{exitConst: true, exitPC: fall}}, ""
		}
		exec = gSucc{exitConst: true, exitPC: target}
	case guest.BL:
		target := fall + uint32(term.Ops[0].Imm)*guest.InstBytes
		exec = gSucc{
			effects:   []guest.Inst{guest.NewInst(guest.MOV, guest.RegOp(guest.LR), guest.ImmOp(int32(fall)))},
			exitConst: true, exitPC: target,
		}
	case guest.BX:
		if readsPC(term) {
			return nil, "bx pc"
		}
		exec = gSucc{exitReg: term.Ops[0].Reg}
	case guest.HLT:
		exec = gSucc{exitConst: true, exitPC: opts.HaltPC}
	case guest.POP:
		list := term.Ops[0].List
		if list&(1<<uint(guest.PC)) == 0 {
			// Plain last instruction (instruction-cap truncated block):
			// desugar and fall through.
			effects, why := desugarBody(term)
			if why != "" {
				return nil, why
			}
			exec = gSucc{effects: effects, exitConst: true, exitPC: fall}
			break
		}
		effects, why := desugarPop(term)
		if why != "" {
			return nil, why
		}
		exec = gSucc{effects: effects, exitReg: guest.PC}
	default:
		if term.N > 0 && term.Ops[0].Kind == guest.KindReg && term.Ops[0].Reg == guest.PC {
			// Data-processing write to PC.
			if readsPC(term) {
				return nil, fmt.Sprintf("%q reads pc", term)
			}
			al := term
			al.Cond = guest.AL
			exec = gSucc{effects: []guest.Inst{al}, exitReg: guest.PC}
			break
		}
		// Not a branch at all: the decoder capped the block.
		if readsPC(term) {
			return nil, fmt.Sprintf("%q reads pc", term)
		}
		effects, why := desugarBody(term)
		if why != "" {
			return nil, why
		}
		if term.Cond != guest.AL {
			return []gSucc{
				{effects: effects, hasDec: true, want: true, decCond: term.Cond, exitConst: true, exitPC: fall},
				{hasDec: true, want: false, decCond: term.Cond, exitConst: true, exitPC: fall},
			}, ""
		}
		return []gSucc{{effects: effects, exitConst: true, exitPC: fall}}, ""
	}
	if term.Cond == guest.AL {
		return []gSucc{exec}, ""
	}
	exec.hasDec, exec.want, exec.decCond = true, true, term.Cond
	skip := gSucc{hasDec: true, want: false, decCond: term.Cond, exitConst: true, exitPC: fall}
	return []gSucc{exec, skip}, ""
}

// desugarBody rewrites one non-branch body instruction into effective
// unconditional instructions symexec can evaluate (conditions are
// handled by path forking, PUSH/POP by expansion).
func desugarBody(in guest.Inst) ([]guest.Inst, string) {
	switch in.Op {
	case guest.PUSH:
		return desugarPush(in)
	case guest.POP:
		return desugarPop(in)
	}
	al := in
	al.Cond = guest.AL
	return []guest.Inst{al}, ""
}

func desugarPush(in guest.Inst) ([]guest.Inst, string) {
	list := in.Ops[0].List
	n := popcount16(list)
	if n == 0 {
		return nil, "empty push list"
	}
	// Matches guest.State.Step: SP is decremented first, stores ascend —
	// SP in the list pushes the new SP.
	out := []guest.Inst{guest.NewInst(guest.SUB, guest.RegOp(guest.SP), guest.RegOp(guest.SP), guest.ImmOp(int32(4*n)))}
	off := int32(0)
	for r := guest.Reg(0); r < guest.NumRegs; r++ {
		if list&(1<<uint(r)) == 0 {
			continue
		}
		out = append(out, guest.NewInst(guest.STR, guest.RegOp(r), guest.MemOp(guest.SP, off)))
		off += 4
	}
	return out, ""
}

func desugarPop(in guest.Inst) ([]guest.Inst, string) {
	list := in.Ops[0].List
	n := popcount16(list)
	if n == 0 {
		return nil, "empty pop list"
	}
	if list&(1<<uint(guest.SP)) != 0 {
		return nil, "pop with sp in list"
	}
	// Matches guest.State.Step: loads ascend from the original SP, SP is
	// written last. None of the loaded registers is the base (SP), so
	// desugared load order is immaterial symbolically.
	var out []guest.Inst
	off := int32(0)
	for r := guest.Reg(0); r < guest.NumRegs; r++ {
		if list&(1<<uint(r)) == 0 {
			continue
		}
		out = append(out, guest.NewInst(guest.LDR, guest.RegOp(r), guest.MemOp(guest.SP, off)))
		off += 4
	}
	out = append(out, guest.NewInst(guest.ADD, guest.RegOp(guest.SP), guest.RegOp(guest.SP), guest.ImmOp(int32(4*n))))
	return out, ""
}

// readsPC reports whether the instruction uses PC as a data source
// (PC-relative addressing is not modeled — the symbolic evaluators have
// no program counter).
func readsPC(in guest.Inst) bool {
	if in.Op == guest.B || in.Op == guest.BL {
		return false // immediate-relative, resolved during enumeration
	}
	for _, r := range in.SrcRegs(nil) {
		if r == guest.PC {
			return true
		}
	}
	return false
}

// eval runs the symbolic guest evaluator over the path's effective
// instructions and its decision prefixes.
func (p *gPath) eval() string {
	gs, err := symexec.EvalGuestExact(p.insts, nil)
	if err != nil {
		return err.Error()
	}
	p.gs = gs
	for _, d := range p.decs {
		// A decision prefix is a prefix of the same deterministic
		// evaluation, so its load versions and store trace are a prefix
		// of the full path's — predicates bind to the full trace.
		pgs, err := symexec.EvalGuestExact(p.insts[:d.prefix], nil)
		if err != nil {
			return err.Error()
		}
		pe := symexec.GuestCondExpr(pgs, d.cond)
		if !d.want {
			pe = notExpr(pe)
		}
		p.preds = append(p.preds, pe)
	}
	return ""
}

func (p *gPath) exitExpr() *symexec.Expr {
	if p.exitConst {
		return symexec.Const(p.exitPC)
	}
	return p.gs.R[p.exitReg]
}

// effects is the path's side of its checks.
func (p *gPath) effects() effects {
	e := effects{exitExpr: p.exitExpr(), gStores: p.gs.Stores}
	for r := 0; r < 15; r++ {
		e.words[env.OffReg(r)/4] = p.gs.R[r]
	}
	for i, f := range [4]*symexec.Expr{p.gs.N, p.gs.Z, p.gs.C, p.gs.V} {
		e.words[nzcvWords[i]/4] = f
	}
	return e
}

// ---------------------------------------------------------------------
// Host path enumeration.

// hDecision is one conditional choice along a host path: the JCC's
// condition, the direction taken, and pred, the predicate (0/1) under
// which the path takes it, read off the state at the branch.
type hDecision struct {
	cond  host.Cond
	taken bool
	pred  *symexec.Expr
}

type hPath struct {
	decs []hDecision
	effects
	preds []*symexec.Expr
}

// effects is one side of a path pair in guest terms: everything the
// per-path checks compare. words holds CPUState words by offset/4;
// only the words a validation compares are set.
type effects struct {
	exitExpr *symexec.Expr
	words    [env.Size / 4]*symexec.Expr
	gStores  []symexec.SymStore
}

// hWalker enumerates a block's paths, JCC taken side first, evaluating
// as it goes: the symbolic state forks at every JCC, so paths share the
// evaluation of their common prefix.
type hWalker struct {
	b     *host.Block
	max   int
	words []uint32
	paths []*hPath
	fail  string
}

// enumHostPaths enumerates b's paths and evaluates them in one forking
// pass, reading each path's effects in guest terms: the CPUState words
// at the given offsets, the guest-visible store trace, the exit PC and
// the decision predicates.
//
// Every path starts from one symbolic host state: EBP points at the
// CPUState, every other register and EFLAGS bit is an initial-value
// symbol, and the CPUState is a symexec frame (symexec.NewHStateFrame)
// whose words start as their initial-value symbols (envInitSym). The
// frame is the env lift: a word-aligned 32-bit access at a constant
// address in the CPUState reads or writes a frame word, so every value
// is already in terms of guest state, and every store left on the trace
// is guest-visible (the frame assumption). A byte or misaligned
// CPUState access leaves the words it touches unknown.
func enumHostPaths(b *host.Block, maxPaths int, words []uint32) ([]*hPath, string) {
	w := &hWalker{b: b, max: maxPaths, words: words}
	s := symexec.NewHStateFrame(map[host.Reg]*symexec.Expr{host.EBP: symexec.Const(env.StateBase)},
		env.StateBase, envInitSyms[:])
	w.walk(0, nil, s, 0)
	if w.fail != "" {
		return nil, w.fail
	}
	if len(w.paths) == 0 {
		return nil, "no exit path"
	}
	return w.paths, ""
}

// walk follows one path from instruction i. Each call owns its decs and
// s: the taken side of every fork gets copies, so straight-line code
// extends them in place.
func (w *hWalker) walk(i int, decs []hDecision, s *symexec.HState, steps int) {
	for w.fail == "" {
		if steps > 4*len(w.b.Insts)+16 {
			w.fail = "path too long (loop?)"
			return
		}
		if i < 0 || i >= len(w.b.Insts) {
			w.fail = "path leaves block"
			return
		}
		in := w.b.Insts[i]
		steps++
		switch in.Op {
		case host.JMP:
			t := w.b.Target(i)
			if t < 0 {
				w.fail = "unbound jump label"
				return
			}
			i = t
		case host.JCC:
			t := w.b.Target(i)
			if t < 0 {
				w.fail = "unbound jump label"
				return
			}
			c := s.CondExpr(in.Cond)
			w.walk(t, append(cloneHDecs(decs), hDecision{in.Cond, true, c}), s.Fork(), steps)
			if w.fail != "" {
				return
			}
			decs = append(decs, hDecision{in.Cond, false, notExpr(c)})
			i++
		case host.ExitTB:
			if len(w.paths) >= w.max {
				w.fail = "path explosion"
				return
			}
			w.finish(decs, in.Dst, s)
			return
		case host.RET, host.CALL:
			w.fail = fmt.Sprintf("unsupported control op %v", in.Op)
			return
		default:
			if err := s.Step(in); err != nil {
				w.fail = err.Error()
				return
			}
			i++
		}
	}
}

// finish records a path that reached an exit with final state s.
func (w *hWalker) finish(decs []hDecision, exit host.Operand, s *symexec.HState) {
	p := &hPath{decs: decs}
	switch exit.Kind {
	case host.KindImm:
		p.exitExpr = symexec.Const(uint32(exit.Imm))
	case host.KindReg:
		p.exitExpr = s.R[exit.Reg]
	default:
		w.fail = "unsupported exit operand"
		return
	}
	for _, off := range w.words {
		p.words[off/4] = s.FrameWord(int(off / 4))
	}
	p.gStores = s.Stores
	for _, d := range decs {
		p.preds = append(p.preds, d.pred)
	}
	w.paths = append(w.paths, p)
}

// ungrounded is the guest-vs-host modeling-gap gate: every symbol in
// the path's effects must be a guest register or a guest flag. Anything
// else (an uninitialized host
// register, a host flag read before definition, an unexpected env slot)
// means the evaluation could not ground the expression in guest terms,
// and the reason says which symbol.
func (p *hPath) ungrounded() string {
	all := []*symexec.Expr{p.exitExpr}
	for _, w := range p.words {
		if w != nil {
			all = append(all, w)
		}
	}
	for _, st := range p.gStores {
		all = append(all, st.Addr, st.Val)
	}
	all = append(all, p.preds...)
	for _, s := range symexec.SortedSymbols(all...) {
		if !allowedSym(s) {
			return "unmodeled symbol " + s
		}
	}
	return ""
}

// envInitSym is the initial value of the CPUState word at off, named in
// the same vocabulary symexec.NewGState uses, so host-side expressions
// compare structurally against guest-side expressions.
func envInitSym(off uint32) *symexec.Expr { return envInitSyms[off/4] }

// envInitSyms holds every CPUState word's initial-value symbol: the
// words every host path's frame starts from. Each hash is computed
// before the table is published, so Hash only reads the nodes and
// concurrent translators may share them.
var envInitSyms = func() (t [env.Size / 4]*symexec.Expr) {
	for i := range t {
		off := uint32(4 * i)
		switch {
		case off < env.OffN:
			t[i] = symexec.Sym("g" + strconv.Itoa(i))
		case off == env.OffN:
			t[i] = symexec.Sym("fn")
		case off == env.OffZ:
			t[i] = symexec.Sym("fz")
		case off == env.OffC:
			t[i] = symexec.Sym("fc")
		case off == env.OffV:
			t[i] = symexec.Sym("fv")
		default:
			t[i] = symexec.Sym("env" + strconv.Itoa(int(off)))
		}
		t[i].Hash()
	}
	return t
}()

func allowedSym(s string) bool {
	switch s {
	case "fn", "fz", "fc", "fv":
		return true
	}
	if strings.HasPrefix(s, "g") {
		n, err := strconv.Atoi(s[1:])
		return err == nil && n >= 0 && n < int(guest.NumRegs)
	}
	return false
}

// ---------------------------------------------------------------------
// Path pairing.

// matchPaths pairs each guest path with the host path implementing it,
// keyed on exit PC; ambiguity (several host paths
// with the same exit) is broken by concrete predicate agreement.
// matchPaths partitions the host paths over the guest paths: every host
// path is claimed by exactly one guest path (a guest path may own
// several host paths — the backends emit conditional branches whose
// arms reconverge, e.g. a conditional guest branch whose target is its
// own fall-through). Returns, per guest path, the owned host indices.
func matchPaths(gps []*gPath, hps []*hPath) ([][]int, string) {
	if len(hps) < len(gps) {
		return nil, fmt.Sprintf("path count mismatch: %d guest vs %d host", len(gps), len(hps))
	}
	groups := make([][]int, len(gps))
	for hi, hp := range hps {
		var cands []int
		for gi, gp := range gps {
			if exitCompatible(gp, hp) {
				cands = append(cands, gi)
			}
		}
		pick := -1
		switch len(cands) {
		case 0:
			return nil, fmt.Sprintf("no guest path matches host path %d", hi)
		case 1:
			pick = cands[0]
		default:
			for _, gi := range cands {
				if hostBelongs(gps[gi], hp) {
					if pick >= 0 {
						return nil, fmt.Sprintf("ambiguous guest paths for host path %d", hi)
					}
					pick = gi
				}
			}
			if pick < 0 {
				return nil, fmt.Sprintf("no guest path owns host path %d", hi)
			}
		}
		groups[pick] = append(groups[pick], hi)
	}
	for gi, g := range groups {
		if len(g) == 0 {
			return nil, fmt.Sprintf("no host path matches guest path %d (exit %s)", gi, gps[gi].exitDesc())
		}
	}
	return groups, ""
}

func (p *gPath) exitDesc() string {
	if p.exitConst {
		return fmt.Sprintf("%#x", p.exitPC)
	}
	return fmt.Sprintf("r%d", p.exitReg)
}

func exitCompatible(gp *gPath, hp *hPath) bool {
	nh := symexec.Normalize(hp.exitExpr)
	if gp.exitConst {
		return nh.Op == symexec.XConst && nh.C == gp.exitPC
	}
	return nh.Op != symexec.XConst
}

// hostBelongs concretely tests whether the host path's predicate
// implies the guest path's (over shared inputs): a cheap disambiguator,
// not a proof — the grouped predicates are still formally checked
// afterwards (the "pred" check compares the guest predicate against the
// disjunction of its owned host predicates).
func hostBelongs(gp *gPath, hp *hPath) bool {
	pg, ph := conj(gp.preds), conj(hp.preds)
	rng := symexec.ReplayRand(0x70617468)
	syms := symexec.SortedSymbols(pg, ph)
	for trial := 0; trial < 24; trial++ {
		vals := map[string]uint32{}
		for _, s := range syms {
			vals[s] = sampleSym(s, rng, trial)
		}
		seed := rng.Uint64()
		asG := &symexec.Assignment{Vals: vals, Seed: seed}
		asH := &symexec.Assignment{Vals: vals, Seed: seed}
		if err := asG.Materialize(gp.gs.Stores); err != nil {
			return false
		}
		if err := asH.Materialize(hp.gStores); err != nil {
			return false
		}
		vg, e1 := asG.Eval(pg)
		vh, e2 := asH.Eval(ph)
		if e1 != nil || e2 != nil {
			return false
		}
		if vh != 0 && vg == 0 {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------
// Per-pair checks and the decision ladder.

// guestSides names the two sides of a guest-vs-host path pair in
// mismatch reasons.
var guestSides = [2]string{"guest", "host"}

// nzcvWords are the CPUState offsets of the N, Z, C and V flag words.
var nzcvWords = [4]uint32{env.OffN, env.OffZ, env.OffC, env.OffV}

// guestWords lists the CPUState words a guest-vs-host path pair
// compares: r0-r14, and the NZCV words when flags is set (the
// translation's flagsExact property).
func guestWords(flags bool) []uint32 {
	words := make([]uint32, 0, 19)
	for r := 0; r < 15; r++ {
		words = append(words, uint32(env.OffReg(r)))
	}
	if flags {
		words = append(words, nzcvWords[:]...)
	}
	return words
}

// wordNames names the check of each CPUState word: the guest registers
// r0-r15, the flag words n z c v, the float registers f0-f15, and
// env<offset> for the rest.
var wordNames = func() (t [env.Size / 4]string) {
	for i := range t {
		off := uint32(4 * i)
		switch {
		case off < env.OffN:
			t[i] = "r" + strconv.Itoa(i)
		case off < env.OffF0:
			t[i] = [4]string{"n", "z", "c", "v"}[(off-env.OffN)/4]
		case off < env.OffF0+64:
			t[i] = "f" + strconv.Itoa(int(off-env.OffF0)/4)
		default:
			t[i] = "env" + strconv.Itoa(int(off))
		}
	}
	return t
}()

// buildBlockChecks lists the comparisons one path pair must pass: exit
// PC, the CPUState words at the given offsets (ascending) and the
// ordered guest store trace, which is checked after the guest-register
// words and before the rest. A store trace that differs in length or
// access size is a structural mismatch, reported with the side names.
func buildBlockChecks(g, h effects, words []uint32, sides [2]string) ([]checkPair, string) {
	gst, hst := g.gStores, h.gStores
	mk := func(name string, g, h *symexec.Expr) checkPair {
		return checkPair{name: name, g: g, h: h, gStores: gst, hStores: hst}
	}
	if len(gst) != len(hst) {
		return nil, fmt.Sprintf("store count mismatch: %d %s vs %d %s", len(gst), sides[0], len(hst), sides[1])
	}
	checks := make([]checkPair, 0, 1+len(words)+2*len(gst))
	checks = append(checks, mk("exit", g.exitExpr, h.exitExpr))
	split := 0
	for split < len(words) && words[split] < env.OffN {
		split++
	}
	for _, off := range words[:split] {
		checks = append(checks, mk(wordNames[off/4], g.words[off/4], h.words[off/4]))
	}
	for i := range gst {
		if gst[i].Size != hst[i].Size {
			return nil, fmt.Sprintf("store %d size mismatch", i)
		}
		name := "store" + strconv.Itoa(i)
		checks = append(checks, mk(name+"/addr", gst[i].Addr, hst[i].Addr))
		gv, hv := gst[i].Val, hst[i].Val
		if gst[i].Size == 8 {
			gv = symexec.Bin(symexec.XAnd, gv, symexec.Const(0xff))
			hv = symexec.Bin(symexec.XAnd, hv, symexec.Const(0xff))
		}
		checks = append(checks, mk(name+"/val", gv, hv))
	}
	for _, off := range words[split:] {
		checks = append(checks, mk(wordNames[off/4], g.words[off/4], h.words[off/4]))
	}
	return checks, ""
}

// decideBlockCheck runs the proof ladder on one comparison: structural
// equality (as built, then after normalization), then abstract-domain
// simplification, then a predicate-conditioned concrete sweep. A sweep
// divergence returns an (unconfirmed) witness; the caller replays it
// before treating it as a refutation.
func decideBlockCheck(p checkPair, cond *condPair) decision {
	if symexec.StructEqual(p.g, p.h) {
		// Equal as built is equal after normalization: skip the rewrite.
		return decision{proved: true, proof: ProofStructural}
	}
	ng, nh := symexec.Normalize(p.g), symexec.Normalize(p.h)
	if symexec.StructEqual(ng, nh) {
		return decision{proved: true, proof: ProofStructural}
	}
	if symexec.HasUnknown(ng) || symexec.HasUnknown(nh) {
		return decision{reason: "unmodeled operation (" + unknownTag(ng, nh) + ")"}
	}
	absEnv := flagAbsEnv()
	memo := map[*symexec.Expr]AbsVal{}
	ag := symexec.Normalize(AbsSimplify(ng, absEnv, memo))
	ah := symexec.Normalize(AbsSimplify(nh, absEnv, memo))
	if symexec.StructEqual(ag, ah) {
		return decision{proved: true, proof: ProofAbstract}
	}
	return sweepBlockCheck(p, ng, nh, cond)
}

func sweepBlockCheck(p checkPair, ng, nh *symexec.Expr, cond *condPair) decision {
	collect := []*symexec.Expr{ng, nh}
	var cg, ch *symexec.Expr
	if cond != nil {
		cg, ch = cond.g, cond.h
		if symexec.HasUnknown(cg) || symexec.HasUnknown(ch) {
			return decision{reason: "unmodeled path predicate"}
		}
		// Dead path: when both sides prove the predicate constant-false
		// in the abstract domain, no execution reaches this pair and
		// its effects are vacuously equivalent (the group's "pred"
		// check separately proves the predicates agree).
		absEnv := flagAbsEnv()
		memo := map[*symexec.Expr]AbsVal{}
		acg := symexec.Normalize(AbsSimplify(cg, absEnv, memo))
		ach := symexec.Normalize(AbsSimplify(ch, absEnv, memo))
		if isConstZero(acg) && isConstZero(ach) {
			return decision{proved: true, proof: ProofAbstract}
		}
		collect = append(collect, cg, ch)
	}
	for _, st := range p.gStores {
		collect = append(collect, st.Addr, st.Val)
	}
	for _, st := range p.hStores {
		collect = append(collect, st.Addr, st.Val)
	}
	syms := symexec.SortedSymbols(collect...)
	var hints map[string][]uint32
	if cg != nil {
		hints = eqHints(cg, ch)
	}
	rng := symexec.ReplayRand(0x76616c69) // deterministic: "vali"
	sat, swept := 0, 0
	for trial := 0; trial < validateTrials && sat < validateTarget; trial++ {
		vals := map[string]uint32{}
		for _, s := range syms {
			vals[s] = sampleSym(s, rng, trial)
		}
		if len(hints) > 0 && trial%4 == 3 {
			// Steer every fourth trial into the satisfying region of
			// equality guards the random pools cannot hit.
			for s, hs := range hints {
				vals[s] = hs[rng.Intn(len(hs))]
			}
		}
		seed := rng.Uint64()
		asG := &symexec.Assignment{Vals: vals, Seed: seed}
		asH := &symexec.Assignment{Vals: vals, Seed: seed}
		if err := asG.Materialize(p.gStores); err != nil {
			return decision{reason: "guest store trace: " + err.Error(), swept: swept}
		}
		if err := asH.Materialize(p.hStores); err != nil {
			return decision{reason: "host store trace: " + err.Error(), swept: swept}
		}
		if cg != nil {
			pg, e1 := asG.Eval(cg)
			ph, e2 := asH.Eval(ch)
			if e1 != nil || e2 != nil {
				return decision{reason: "predicate evaluation failed", swept: swept}
			}
			if pg == 0 || ph == 0 {
				continue
			}
		}
		sat++
		swept++
		vg, e1 := asG.Eval(ng)
		vh, e2 := asH.Eval(nh)
		if e1 != nil || e2 != nil {
			return decision{reason: "concrete evaluation failed", swept: swept}
		}
		if vg != vh {
			if validateDebug {
				fmt.Printf("WITNESS %s vals=%v\n g=%v\n h=%v\n", p.name, vals, ng, nh)
				for i, st := range p.gStores {
					fmt.Printf(" gstore%d [%v] <- %v (%d)\n", i, st.Addr, st.Val, st.Size)
				}
				for i, st := range p.hStores {
					fmt.Printf(" hstore%d [%v] <- %v (%d)\n", i, st.Addr, st.Val, st.Size)
				}
			}
			return decision{
				witness: &Witness{Vals: vals, Seed: seed, Check: p.name, Guest: vg, Host: vh},
				swept:   swept,
			}
		}
	}
	if sat < validateMinSat {
		if validateDebug {
			fmt.Printf("RARELY-SAT %s sat=%d\n cg=%v\n ch=%v\n", p.name, sat, cg, ch)
		}
		return decision{reason: "path predicate rarely satisfiable", swept: swept}
	}
	return decision{proved: true, proof: ProofSweep, swept: swept}
}

// sweepPredCover concretely checks predicate exhaustiveness for a
// guest path that owns several host paths: over random trials, the
// guest predicate must be true exactly when at least one owned host
// predicate is. Each host predicate is evaluated against its own
// path's store trace (their load versions index different traces, so
// a single symbolic disjunction would be ill-formed).
func sweepPredCover(gp *gPath, group []int, hps []*hPath) decision {
	pg := conj(gp.preds)
	phs := make([]*symexec.Expr, len(group))
	collect := []*symexec.Expr{pg}
	for i, hi := range group {
		phs[i] = conj(hps[hi].preds)
		collect = append(collect, phs[i])
	}
	for _, e := range collect {
		if symexec.HasUnknown(e) {
			return decision{reason: "unmodeled path predicate (" + unknownTag(e) + ")"}
		}
	}
	for _, st := range gp.gs.Stores {
		collect = append(collect, st.Addr, st.Val)
	}
	for _, hi := range group {
		for _, st := range hps[hi].gStores {
			collect = append(collect, st.Addr, st.Val)
		}
	}
	syms := symexec.SortedSymbols(collect...)
	rng := symexec.ReplayRand(0x70726564) // deterministic: "pred"
	swept := 0
	for trial := 0; trial < validateTarget; trial++ {
		vals := map[string]uint32{}
		for _, s := range syms {
			vals[s] = sampleSym(s, rng, trial)
		}
		seed := rng.Uint64()
		asG := &symexec.Assignment{Vals: vals, Seed: seed}
		if err := asG.Materialize(gp.gs.Stores); err != nil {
			return decision{reason: "guest store trace: " + err.Error(), swept: swept}
		}
		vg, err := asG.Eval(pg)
		if err != nil {
			return decision{reason: "predicate evaluation failed", swept: swept}
		}
		anyH := false
		for i, hi := range group {
			asH := &symexec.Assignment{Vals: vals, Seed: seed}
			if err := asH.Materialize(hps[hi].gStores); err != nil {
				return decision{reason: "host store trace: " + err.Error(), swept: swept}
			}
			vh, err := asH.Eval(phs[i])
			if err != nil {
				return decision{reason: "predicate evaluation failed", swept: swept}
			}
			if vh != 0 {
				anyH = true
			}
		}
		swept++
		if (vg != 0) != anyH {
			return decision{
				witness: &Witness{Vals: vals, Seed: seed, Check: "pred", Guest: vg, Host: b2u32(anyH)},
				swept:   swept,
			}
		}
	}
	return decision{proved: true, proof: ProofSweep, swept: swept}
}

// sampleSym draws a trial value: flag symbols respect the CPUState 0/1
// flag-word invariant (and host EFLAGS bits, which only rewrite
// validation leaves symbolic, are bits); other symbols mix a small
// collision-friendly pool (so equality predicates get satisfied) with
// boundary values.
func sampleSym(s string, rng *rand.Rand, trial int) uint32 {
	switch s {
	case "fn", "fz", "fc", "fv", "hz", "hs", "hc", "ho":
		return rng.Uint32() & 1
	}
	small := [...]uint32{0, 1, 2, 4, 0x7fffffff, 0x80000000, 0xffffffff, 0x100}
	tiny := [...]uint32{0, 1, 2}
	switch trial % 3 {
	case 0:
		return small[rng.Intn(len(small))]
	case 1:
		// Collision-maximizing trials: equality predicates (CMP/BEQ
		// guards) are near-unsatisfiable under uniform sampling.
		return tiny[rng.Intn(len(tiny))]
	}
	if rng.Intn(4) == 0 {
		return small[rng.Intn(len(small))]
	}
	return rng.Uint32()
}

// ---------------------------------------------------------------------
// Witness confirmation by concrete replay.

// replayDiverges runs the witness machine state through the real host
// simulator (executing hb) and the real guest interpreter (stepping the
// guest block insts at pc) and reports whether any architectural
// observation differs. Only a true result licenses a refuted verdict.
func replayDiverges(pc uint32, insts []guest.Inst, hb *host.Block, opts ValidateOpts, vals map[string]uint32) bool {
	val := func(name string) uint32 { return vals[name] }

	// Host side: a CPUState frame at StateBase seeded from the witness.
	hm := mem.New()
	cpu := host.NewCPU(hm)
	cpu.R[host.EBP] = env.StateBase
	cpu.R[host.ESP] = env.HostStackTop
	for i := 0; i < int(guest.NumRegs); i++ {
		hm.Write32(env.StateBase+uint32(env.OffReg(i)), val("g"+strconv.Itoa(i)))
	}
	hm.Write32(env.StateBase+env.OffN, val("fn")&1)
	hm.Write32(env.StateBase+env.OffZ, val("fz")&1)
	hm.Write32(env.StateBase+env.OffC, val("fc")&1)
	hm.Write32(env.StateBase+env.OffV, val("fv")&1)
	res, err := cpu.Exec(hb, replayMaxSteps)
	if err != nil {
		return false // cannot confirm
	}

	// Guest side: the reference interpreter on an identical initial
	// state (a separate, equally-zeroed memory).
	st := guest.NewState()
	for i := 0; i < int(guest.NumRegs); i++ {
		st.R[i] = val("g" + strconv.Itoa(i))
	}
	st.Flags = guest.Flags{
		N: val("fn")&1 != 0, Z: val("fz")&1 != 0,
		C: val("fc")&1 != 0, V: val("fv")&1 != 0,
	}
	st.SetPC(pc)
	for _, in := range insts {
		if st.Halted {
			break
		}
		if err := st.Step(in); err != nil {
			return false
		}
	}
	exitPC := st.PCVal()
	if st.Halted {
		exitPC = opts.HaltPC
	}

	if res.NextPC != exitPC {
		return true
	}
	for i := 0; i < 15; i++ {
		if hm.Read32(env.StateBase+uint32(env.OffReg(i))) != st.R[i] {
			return true
		}
	}
	if opts.CheckFlags {
		want := [4]uint32{b2u32(st.Flags.N), b2u32(st.Flags.Z), b2u32(st.Flags.C), b2u32(st.Flags.V)}
		offs := [4]uint32{env.OffN, env.OffZ, env.OffC, env.OffV}
		for i := range offs {
			if hm.Read32(env.StateBase+offs[i]) != want[i] {
				return true
			}
		}
	}
	// Guest-visible memory: everything below the CPUState frame.
	return len(hm.DiffBelow(st.Mem, env.StateBase, replayMemDiffMax)) > 0
}

// ---------------------------------------------------------------------
// Small helpers.

func notExpr(e *symexec.Expr) *symexec.Expr {
	return symexec.Bin(symexec.XXor, e, symexec.Const(1))
}

// eqHints scans path predicates for equality guards against constants
// and solves the affine ones for their symbol, yielding per-symbol
// candidate values that steer sweep trials into the satisfying region
// (a CMP r5, #imm / BEQ guard is unreachable under uniform sampling).
func eqHints(es ...*symexec.Expr) map[string][]uint32 {
	hints := map[string][]uint32{}
	var solve func(e *symexec.Expr, target uint32)
	solve = func(e *symexec.Expr, target uint32) {
		if e == nil {
			return
		}
		switch e.Op {
		case symexec.XSym:
			if !strings.HasPrefix(e.Name, "f") {
				hints[e.Name] = append(hints[e.Name], target)
			}
		case symexec.XAdd:
			if e.X.Op == symexec.XConst {
				solve(e.Y, target-e.X.C)
			} else if e.Y.Op == symexec.XConst {
				solve(e.X, target-e.Y.C)
			}
		case symexec.XSub:
			if e.Y.Op == symexec.XConst {
				solve(e.X, target+e.Y.C)
			} else if e.X.Op == symexec.XConst {
				solve(e.Y, e.X.C-target)
			}
		case symexec.XXor:
			if e.X.Op == symexec.XConst {
				solve(e.Y, target^e.X.C)
			} else if e.Y.Op == symexec.XConst {
				solve(e.X, target^e.Y.C)
			}
		case symexec.XNot:
			solve(e.X, ^target)
		case symexec.XNeg:
			solve(e.X, -target)
		}
	}
	var walk func(e *symexec.Expr)
	walk = func(e *symexec.Expr) {
		if e == nil {
			return
		}
		if e.Op == symexec.XEq {
			if e.X.Op == symexec.XConst {
				solve(e.Y, e.X.C)
			} else if e.Y.Op == symexec.XConst {
				solve(e.X, e.Y.C)
			}
		}
		walk(e.X)
		walk(e.Y)
		walk(e.Z)
	}
	for _, e := range es {
		walk(e)
	}
	return hints
}

// flagAbsEnv is the abstract environment every check shares: the NZCV
// seed symbols respect the CPUState 0/1 flag-word invariant.
func flagAbsEnv() map[string]AbsVal {
	return map[string]AbsVal{
		"fn": bool01(), "fz": bool01(), "fc": bool01(), "fv": bool01(),
	}
}

func isConstZero(e *symexec.Expr) bool {
	return e.Op == symexec.XConst && e.C == 0
}

// unknownTag names the first XUnknown node found in the given
// expressions, so inconclusive reasons identify the modeling gap.
func unknownTag(es ...*symexec.Expr) string {
	var find func(e *symexec.Expr) string
	find = func(e *symexec.Expr) string {
		if e == nil {
			return ""
		}
		if e.Op == symexec.XUnknown {
			return e.Name
		}
		for _, k := range []*symexec.Expr{e.X, e.Y, e.Z} {
			if t := find(k); t != "" {
				return t
			}
		}
		return ""
	}
	for _, e := range es {
		if t := find(e); t != "" {
			return t
		}
	}
	return "?"
}

// disj folds 0/1 predicates into one 0/1 disjunction (Const(0) when
// there are none).
func disj(ps []*symexec.Expr) *symexec.Expr {
	e := symexec.Const(0)
	for _, p := range ps {
		if p == nil {
			continue
		}
		e = symexec.Bin(symexec.XOr, e, p)
	}
	return symexec.Normalize(e)
}

// conj folds 0/1 predicates into one 0/1 conjunction (Const(1) when
// the path is unconditional).
func conj(ps []*symexec.Expr) *symexec.Expr {
	e := symexec.Const(1)
	for _, p := range ps {
		if p == nil {
			continue
		}
		e = symexec.Bin(symexec.XAnd, e, p)
	}
	return symexec.Normalize(e)
}

func cloneInsts(in []guest.Inst) []guest.Inst {
	return append([]guest.Inst(nil), in...)
}

func cloneDecs(in []gDecision) []gDecision {
	return append([]gDecision(nil), in...)
}

func cloneSeq(in []host.Inst) []host.Inst {
	return append([]host.Inst(nil), in...)
}

func cloneHDecs(in []hDecision) []hDecision {
	return append([]hDecision(nil), in...)
}

func popcount16(v uint16) int {
	n := 0
	for ; v != 0; v &= v - 1 {
		n++
	}
	return n
}

func b2u32(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
