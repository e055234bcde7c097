package dbt

import (
	"fmt"
	"sort"

	"paramdbt/internal/analysis"
	"paramdbt/internal/backend"
	"paramdbt/internal/core"
	"paramdbt/internal/env"
	"paramdbt/internal/guest"
	"paramdbt/internal/host"
	"paramdbt/internal/mem"
	"paramdbt/internal/obs"
	"paramdbt/internal/rule"
	"paramdbt/internal/tcg"
)

// codegenOptions is every knob that shapes translation output. It is
// comparable on purpose: two translators with equal options over the
// same rule store and backend emit identical host code for identical
// guest bytes — which is the shared service's whole attach test, and
// why a worker-translated block is interchangeable with a
// demand-translated one.
type codegenOptions struct {
	DelegateFlags   bool
	FlagWindow      int
	NoBlockRegAlloc bool
	ManualABI       bool
	Peephole        bool
	validateAll     bool // Config.Validate, resolved by ParseValidate
}

// codegenOf is the one place the codegen knobs are read off a Config
// (the FlagWindow default applied, the Validate enum resolved). A
// Config field that changes translation output must be copied here — and
// so into the attach comparison — or classified per-engine in
// TestConfigFieldsClassified.
func codegenOf(c *Config) codegenOptions {
	all, err := ParseValidate(c.Validate)
	if err != nil {
		panic(err)
	}
	o := codegenOptions{
		DelegateFlags:   c.DelegateFlags,
		FlagWindow:      c.FlagWindow,
		NoBlockRegAlloc: c.NoBlockRegAlloc,
		ManualABI:       c.ManualABI,
		Peephole:        c.Peephole,
		validateAll:     all,
	}
	if o.FlagWindow == 0 {
		o.FlagWindow = 3
	}
	return o
}

// ParseValidate resolves a Config.Validate spelling: "", "off" and
// "optimized" all mean "validate only what Peephole requires" (false),
// "all" validates every finalized translation (true). Anything else is
// an error — the CLIs report it as a usage error, New panics on it — so
// a typo can no longer silently mean off.
func ParseValidate(mode string) (all bool, err error) {
	switch mode {
	case "", "off", "optimized":
		return false, nil
	case "all":
		return true, nil
	}
	return false, fmt.Errorf("dbt: unknown Validate mode %q (want off, optimized or all)", mode)
}

// translator is the paper's pipeline — rule lookup, instantiate, TCG
// fallback, flag delegation, backend Finalize, validate — as what it is:
// a pure function of {code bytes, rule store, backend, codegenOptions}.
// It owns no guest memory, CPU, code cache or statistics, and is
// immutable after construction, so the Run goroutine, the background
// pool's workers and blame-isolation trials all call one instance
// concurrently, each with its own txctx. Engine and Service each hold
// one; equal translatorIDs mean interchangeable output.
type translator struct {
	translatorID
	be backend.Backend
	// blockRegs (host registers available for block-lifetime guest
	// register mapping) and tempPool (TCG temporaries, rule operand
	// staging, flag materialization) cache the backend's register policy
	// so the translation hot path never re-queries it.
	blockRegs []host.Reg
	tempPool  []host.Reg

	// Observers of the translation, none of which changes what is emitted
	// for a healthy rule store: the validator's verdict counters (on the
	// owner's registry), Config.ValidateHook, Config.ShadowElevate, and
	// the fault injector's optimized-stream mutation (the adversarial
	// hook the validator-rejects-broken-peephole tests use).
	validated    *obs.Counter
	fallbacks    *obs.Counter
	validateHook func(*analysis.BlockReport)
	elevate      func(*rule.Template) bool
	mutateOpt    func(*host.Block) *host.Block
}

// translatorID is everything translation output depends on besides the
// code bytes — what Service.attach compares with one ==.
type translatorID struct {
	rules   *rule.Store // nil for the pure-TCG baseline
	backend uint8       // be.ID()
	opt     codegenOptions
}

// newTranslator resolves c's translation-relevant half: the backend
// (nil selects backend.Default(), i.e. x86 or the PARAMDBT_BACKEND
// override), the rule store rekeyed into that backend's namespace, and
// the codegen knobs. validated and fallbacks are the owner's
// dbt.blocks_validated / dbt.validate_fallbacks counters.
func newTranslator(c *Config, validated, fallbacks *obs.Counter) *translator {
	be := c.Backend
	if be == nil {
		be = backend.Default()
	}
	if c.Rules != nil {
		// Rekey retrieval fingerprints (and hence every MissSet memo)
		// into the backend's namespace; quarantine state is
		// backend-neutral and survives the rekey.
		c.Rules.SetBackendID(be.ID())
	}
	tr := &translator{
		translatorID: translatorID{rules: c.Rules, backend: be.ID(), opt: codegenOf(c)},
		be:           be, blockRegs: be.BlockRegs(), tempPool: be.TempPool(),
		validated:    validated,
		fallbacks:    fallbacks,
		validateHook: c.ValidateHook,
		elevate:      c.ShadowElevate,
	}
	if f, ok := c.Faults.(interface {
		MutateOptimized(*host.Block) *host.Block
	}); ok {
		tr.mutateOpt = f.MutateOptimized
	}
	return tr
}

type pathKind uint8

const (
	pathTCG pathKind = iota
	pathRule
	pathRuleTail // covered by the rule headed at an earlier instruction
	pathTerm
)

// iplan is the per-instruction translation plan.
type iplan struct {
	kind pathKind
	tmpl *rule.Template
	bind rule.Binding
	// delegated: this flag-setting instruction leaves NZCV in the host
	// EFLAGS for the terminator branch instead of materializing.
	delegated bool
	// needsDeleg: the rule has no materialization recipe (S-shifts), so
	// it survives only if delegation lands; otherwise it demotes to TCG.
	needsDeleg bool
}

// txctx is per-goroutine translation scratch: the candidate-free
// lookup-window memo plus an arena of Binding slots, one per accepted
// rule window. Lookups write into the next free slot (rule.LookupInto),
// and the slot is kept only when the window is accepted — so a warm
// arena makes the whole rule fast path allocation-free per block. The
// engine owns one for the Run goroutine (Engine.tx); every pool worker
// and blame-isolation trial carries its own.
type txctx struct {
	miss  rule.MissSet
	binds []rule.Binding
	n     int
}

// reset starts a new translation unit (one block, or one superblock).
func (c *txctx) reset() {
	c.miss.Reset()
	c.n = 0
}

// slot returns the current scratch Binding (growing the arena on first
// use); keep advances past it once the lookup's result is accepted.
func (c *txctx) slot() *rule.Binding {
	if c.n == len(c.binds) {
		c.binds = append(c.binds, rule.Binding{})
	}
	return &c.binds[c.n]
}

func (c *txctx) keep() { c.n++ }

// blockPlan is the per-instruction plan for one basic block of a
// translation unit, produced by planBlock and refined by finishPlan.
type blockPlan struct {
	plans    []iplan
	termRule *iplan
}

// translate builds the host block for the guest block at pc, fetching
// code from m (live memory on the demand path, a code snapshot for pool
// workers). tx holds the per-goroutine translation scratch (miss memo +
// binding arena). Translation is a pure function of the code bytes and
// the translator, so concurrent callers produce identical blocks.
//
// skip and cur are the guard layer's extension points (nil elsewhere):
// skip excludes individual rule templates from retrieval (the
// blame-isolation trials translate with one suspect excluded —
// quarantined rules are excluded on every path by the store itself),
// and cur, when non-nil, tracks the template currently being
// instantiated so a panic inside rule emission can be attributed to
// the rule that caused it.
func (tr *translator) translate(m *mem.Memory, pc uint32, tx *txctx, skip func(*rule.Template) bool, cur **rule.Template) (*tblock, error) {
	insts, err := fetchBlockIn(m, pc)
	if err != nil {
		return nil, err
	}
	n := len(insts)
	term := insts[n-1]

	// Passes 1-4: rule windows, register allocation, staging demotion,
	// flag delegation.
	tx.reset()
	bp := tr.planBlock(insts, tx, skip)
	mapping := tr.allocRegs(insts)
	tr.finishPlan(&bp, insts, mapping)

	// Pass 5: emission. Alongside the host code, record the block's rule
	// provenance (the distinct templates whose code it contains) and
	// whether its NZCV state stays exact in the CPUState — both feed the
	// guard layer's shadow verification and blame isolation.
	a := host.NewAsm()
	tr.emitPrologue(a, mapping)
	em, err := tr.emitBody(a, pc, insts, bp.plans, mapping, cur)
	if err != nil {
		return nil, err
	}
	covered := em.covered
	termCovered, err := tr.emitTerminator(a, term, pc+uint32((n-1)*guest.InstBytes), bp.plans, bp.termRule, mapping)
	if err != nil {
		return nil, fmt.Errorf("terminator %q: %w", term, err)
	}
	if !termCovered && tr.opt.ManualABI && manualTerminatorCovered(term) {
		termCovered = true
	}
	if termCovered {
		if bp.termRule == nil {
			// Covered through delegation (a branch-tail rule's window
			// already counted its own branch).
			covered++
		}
	} else {
		em.uncovered = append(em.uncovered, term.Op)
		if bp.termRule != nil {
			// The branch of the matched branch-tail rule could not be
			// emitted; its body still counted itself.
			covered--
		}
	}

	// The backend finalizes the complete assembled stream — rule bodies
	// and TCG-lowered code alike — applying any legalization its encoder
	// requires before the block becomes executable.
	hb, err := tr.be.Finalize(a)
	if err != nil {
		return nil, err
	}
	hb = tr.finishBlock(hb, []analysis.GuestSeg{{PC: pc, Insts: insts}}, em.flagsExact)

	return &tblock{
		hb:         hb,
		insts:      insts,
		nGuest:     uint64(n),
		nCovered:   covered,
		nSeq:       em.seq,
		uncovered:  em.uncovered,
		links:      directLinks(pc, insts),
		rules:      em.used,
		flagsExact: em.flagsExact,
		elevated:   tr.elevates(em.used),
	}, nil
}

// planBlock is pass 1: choose rule windows greedily (longest match
// first) over one basic block. The window may extend through the
// terminator when a branch-tail rule (compare-and-branch) matches it.
func (tr *translator) planBlock(insts []guest.Inst, tx *txctx, skip func(*rule.Template) bool) blockPlan {
	n := len(insts)
	plans := make([]iplan, n)
	plans[n-1] = iplan{kind: pathTerm}
	bp := blockPlan{plans: plans}
	if tr.rules == nil {
		return bp
	}
	body := insts[:n-1]
	for i := 0; i < len(body); {
		in := body[i]
		if in.Cond != guest.AL {
			plans[i] = iplan{kind: pathTCG}
			i++
			continue
		}
		b := tx.slot()
		tmpl, l := tr.rules.LookupInto(insts[i:], &tx.miss, skip, b)
		usable, needsDeleg := tr.ruleUsable(tmpl)
		if tmpl != nil && usable {
			tx.keep()
			plans[i] = iplan{kind: pathRule, tmpl: tmpl, bind: *b, needsDeleg: needsDeleg}
			for j := 1; j < l; j++ {
				plans[i+j] = iplan{kind: pathRuleTail}
			}
			if tmpl.BranchTail {
				bp.termRule = &plans[i]
			}
			i += l
			continue
		}
		plans[i] = iplan{kind: pathTCG}
		i++
	}
	return bp
}

// finishPlan is passes 3-4 over one basic block, given the (block- or
// trace-wide) register mapping: demote rules whose operand staging
// exceeds the temp pool, then plan condition-flag delegation for the
// block's terminator branch; rules that required delegation but did
// not get it fall back to TCG.
func (tr *translator) finishPlan(bp *blockPlan, insts []guest.Inst, mapping map[guest.Reg]host.Reg) {
	body := insts[:len(insts)-1]
	plans := bp.plans
	for i := range body {
		p := &plans[i]
		if p.kind != pathRule {
			continue
		}
		need := tr.stagingNeed(p.tmpl, p.bind, mapping)
		if body[i].SetsFlags() {
			need++ // flag materialization needs one free register
		}
		if need > len(tr.tempPool) {
			demote(plans, i)
		}
	}
	tr.planDelegation(insts, plans)
	for i := range body {
		if plans[i].kind == pathRule && plans[i].needsDeleg && !plans[i].delegated {
			demote(plans, i)
		}
	}
}

// emitted aggregates what emitBody produced for one basic block's body
// (terminator accounting is the caller's, since seams and real
// terminators differ).
type emitted struct {
	covered, seq uint64
	uncovered    []guest.Op
	used         []*rule.Template
	flagsExact   bool
}

// emitBody emits the body (all but the terminator) of one basic block
// into the shared assembler.
func (tr *translator) emitBody(a *host.Asm, pc uint32, insts []guest.Inst, plans []iplan, mapping map[guest.Reg]host.Reg, cur **rule.Template) (emitted, error) {
	em := emitted{flagsExact: true}
	body := insts[:len(insts)-1]
	for i := range body {
		p := plans[i]
		if p.delegated {
			em.flagsExact = false
		}
		switch p.kind {
		case pathRule:
			if p.tmpl.BranchTail {
				em.flagsExact = false
			}
			seen := false
			for _, t := range em.used {
				if t == p.tmpl {
					seen = true
					break
				}
			}
			if !seen {
				em.used = append(em.used, p.tmpl)
			}
			if cur != nil {
				*cur = p.tmpl
			}
			if err := tr.emitRule(a, body[i], p, mapping); err != nil {
				return em, fmt.Errorf("inst %d %q: %w", i, body[i], err)
			}
			if cur != nil {
				*cur = nil
			}
			l := p.tmpl.GuestLen()
			em.covered += uint64(l)
			if l > 1 {
				em.seq += uint64(l)
			}
		case pathRuleTail:
			// emitted by the head
		case pathTCG:
			if tr.opt.ManualABI && manualEmittable(body[i]) {
				if err := tr.emitManual(a, body[i], mapping); err != nil {
					return em, fmt.Errorf("inst %d %q: %w", i, body[i], err)
				}
				em.covered++
				continue
			}
			em.uncovered = append(em.uncovered, body[i].Op)
			if err := tr.emitTCG(a, body[i], pc+uint32(i*guest.InstBytes), mapping); err != nil {
				return em, fmt.Errorf("inst %d %q: %w", i, body[i], err)
			}
		}
	}
	return em, nil
}

// elevates reports whether any used rule is flagged for elevated-rate
// shadow sampling.
func (tr *translator) elevates(used []*rule.Template) bool {
	if tr.elevate == nil {
		return false
	}
	for _, t := range used {
		if tr.elevate(t) {
			return true
		}
	}
	return false
}

// directLinks returns the statically known successor slots of the block
// at pc: the branch target and — for a conditional branch — the
// fallthrough. Indirect terminators (bx, pop {pc}, mov pc) have no
// static successors and never chain.
func directLinks(pc uint32, insts []guest.Inst) []blockLink {
	n := len(insts)
	term := insts[n-1]
	termPC := pc + uint32((n-1)*guest.InstBytes)
	fall := termPC + guest.InstBytes
	switch term.Op {
	case guest.B:
		target := fall + uint32(term.Ops[0].Imm)*guest.InstBytes
		if term.Cond == guest.AL || target == fall {
			return []blockLink{{target: target}}
		}
		return []blockLink{{target: fall}, {target: target}}
	case guest.BL:
		return []blockLink{{target: fall + uint32(term.Ops[0].Imm)*guest.InstBytes}}
	}
	return nil
}

// ruleUsable applies the static gating rules: flag-setting derived rules
// need the condition-flag machinery (paper §IV-B — without delegation,
// parameterized rules cannot absorb flag side effects), and every
// accepted flag-setting rule must either be materializable or — for
// rules with no materialization recipe, like S-shifts — actually get
// delegated (checked later; needsDeleg marks them for demotion if not).
func (tr *translator) ruleUsable(t *rule.Template) (usable, needsDeleg bool) {
	if t == nil {
		return false, false
	}
	if !t.SetsFlags || t.BranchTail {
		return true, false
	}
	if t.Origin != rule.OriginLearned && !tr.opt.DelegateFlags {
		return false, false
	}
	if core.FlagsMaterializable(t.Flags, t.FlagSrc == rule.FamLogic) {
		return true, false
	}
	if tr.opt.DelegateFlags && t.Flags.NZMatch {
		return true, true
	}
	return false, false
}

// demote turns a rule window back into per-instruction TCG.
func demote(plans []iplan, head int) {
	l := plans[head].tmpl.GuestLen()
	for j := 0; j < l; j++ {
		plans[head+j] = iplan{kind: pathTCG}
	}
}

// allocRegs maps the most-used guest registers onto blockRegs.
func (tr *translator) allocRegs(insts []guest.Inst) map[guest.Reg]host.Reg {
	if tr.opt.NoBlockRegAlloc {
		return map[guest.Reg]host.Reg{}
	}
	var counts [guest.NumRegs]int
	bump := func(r guest.Reg) {
		if r != guest.PC {
			counts[r]++
		}
	}
	for _, in := range insts {
		if d, ok := in.DstReg(); ok {
			bump(d)
		}
		for _, r := range in.SrcRegs(nil) {
			bump(r)
		}
	}
	type rc struct {
		r guest.Reg
		c int
	}
	var list []rc
	for r, c := range counts {
		if c > 0 {
			list = append(list, rc{guest.Reg(r), c})
		}
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].c != list[j].c {
			return list[i].c > list[j].c
		}
		return list[i].r < list[j].r
	})
	m := map[guest.Reg]host.Reg{}
	for i := 0; i < len(list) && i < len(tr.blockRegs); i++ {
		m[list[i].r] = tr.blockRegs[i]
	}
	return m
}

// stagingNeed counts temp-pool registers a rule application requires:
// one per distinct unmapped bound guest register plus the template's
// scratch demand.
func (tr *translator) stagingNeed(t *rule.Template, b rule.Binding, mapping map[guest.Reg]host.Reg) int {
	seen := map[guest.Reg]bool{}
	need := t.NScratch
	for p, k := range t.Params {
		if k != rule.PReg {
			continue
		}
		r := b.Regs[p]
		if _, mapped := mapping[r]; !mapped && !seen[r] {
			seen[r] = true
			need++
		}
	}
	return need
}

// planDelegation decides, per flag-setting instruction, whether its
// flags can stay in the host EFLAGS for the terminator branch.
func (tr *translator) planDelegation(insts []guest.Inst, plans []iplan) {
	if !tr.opt.DelegateFlags {
		return
	}
	n := len(insts)
	term := insts[n-1]
	if term.Op != guest.B || term.Cond == guest.AL {
		return
	}
	// Find the last flag setter before the terminator.
	setter := -1
	for i := n - 2; i >= 0; i-- {
		if insts[i].SetsFlags() {
			setter = i
			break
		}
	}
	if setter < 0 || plans[setter].kind != pathRule {
		return
	}
	t := plans[setter].tmpl
	if !t.SetsFlags {
		return
	}
	// Window check (paper: 3 instructions).
	if n-1-setter > tr.opt.FlagWindow {
		return
	}
	// No other consumer may sit between setter and terminator, and the
	// intervening instructions' host code must preserve EFLAGS.
	for j := setter + 1; j < n-1; j++ {
		if insts[j].ReadsFlags() || insts[j].SetsFlags() {
			return
		}
		p := plans[j]
		switch p.kind {
		case pathRule:
			for _, h := range p.tmpl.Host {
				if h.Op.WritesFlags() {
					return
				}
			}
		case pathRuleTail:
			// covered by its head's check
		default:
			return // TCG code clobbers EFLAGS
		}
	}
	// The terminator's condition must be expressible.
	if _, ok := core.DelegateCond(t.Flags, term.Cond); !ok {
		return
	}
	// The rule's own host code must not write EFLAGS after its anchor;
	// the verifier's correspondence was computed at sequence end, so any
	// final EFLAGS writer is the one it describes. Nothing to re-check.
	plans[setter].delegated = true
}

// emitPrologue loads mapped guest registers from the CPUState.
func (tr *translator) emitPrologue(a *host.Asm, mapping map[guest.Reg]host.Reg) {
	a.SetCat(host.CatDataTransfer)
	for _, gr := range sortedRegs(mapping) {
		a.Emit(host.I(host.MOVL, host.R(mapping[gr]), host.Mem(host.EBP, env.OffReg(int(gr)))))
	}
	a.SetCat(host.CatCompute)
}

// emitEpilogue stores mapped guest registers back to the CPUState.
func (tr *translator) emitEpilogue(a *host.Asm, mapping map[guest.Reg]host.Reg) {
	a.SetCat(host.CatDataTransfer)
	for _, gr := range sortedRegs(mapping) {
		a.Emit(host.I(host.MOVL, host.Mem(host.EBP, env.OffReg(int(gr))), host.R(mapping[gr])))
	}
	a.SetCat(host.CatControl)
}

func sortedRegs(m map[guest.Reg]host.Reg) []guest.Reg {
	var out []guest.Reg
	for r := range m {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// emitRule applies a matched rule: stage unmapped guest registers into
// temp registers, instantiate the template, materialize flags unless
// delegated, and write back.
func (tr *translator) emitRule(a *host.Asm, head guest.Inst, p iplan, mapping map[guest.Reg]host.Reg) error {
	t, b := p.tmpl, p.bind

	free := append([]host.Reg(nil), tr.tempPool...)
	take := func() (host.Reg, error) {
		if len(free) == 0 {
			return 0, fmt.Errorf("temp pool exhausted")
		}
		r := free[len(free)-1]
		free = free[:len(free)-1]
		return r, nil
	}

	staged := map[guest.Reg]host.Reg{}
	a.SetCat(host.CatDataTransfer)
	for pi, k := range t.Params {
		if k != rule.PReg {
			continue
		}
		gr := b.Regs[pi]
		if _, mapped := mapping[gr]; mapped {
			continue
		}
		if _, done := staged[gr]; done {
			continue
		}
		hr, err := take()
		if err != nil {
			return err
		}
		staged[gr] = hr
		a.Emit(host.I(host.MOVL, host.R(hr), host.Mem(host.EBP, env.OffReg(int(gr)))))
	}
	a.SetCat(host.CatCompute)

	var scratch []host.Reg
	for i := 0; i < t.NScratch; i++ {
		hr, err := take()
		if err != nil {
			return err
		}
		scratch = append(scratch, hr)
	}

	regOf := func(r guest.Reg) (host.Reg, bool) {
		if hr, ok := mapping[r]; ok {
			return hr, true
		}
		if hr, ok := staged[r]; ok {
			return hr, true
		}
		return 0, false
	}
	insts, err := rule.InstantiateChecked(t, b, regOf, scratch, tr.be.CheckRuleInst)
	if err != nil {
		return err
	}
	a.EmitAll(insts...)

	// Branch-tail rules consume their flags in the terminator's jcc;
	// everything else materializes unless delegated.
	if t.SetsFlags && !p.delegated && !t.BranchTail {
		mr, err := take()
		if err != nil {
			return err
		}
		emitMaterialize(a, t, mr)
	}

	// Write back unmapped written guest registers.
	a.SetCat(host.CatDataTransfer)
	for _, gr := range writtenRegs(t, b) {
		if hr, ok := staged[gr]; ok {
			a.Emit(host.I(host.MOVL, host.Mem(host.EBP, env.OffReg(int(gr))), host.R(hr)))
		}
	}
	a.SetCat(host.CatCompute)
	return nil
}

// emitMaterialize writes the guest NZCV words from the host EFLAGS per
// the rule's verified correspondence, using mr as the setcc staging
// register. For the logic family C is architecturally unchanged, so the
// CPUState C word stays valid and is not written.
func emitMaterialize(a *host.Asm, t *rule.Template, mr host.Reg) {
	set := func(c host.Cond, off int32) {
		a.Emit(host.Inst{Op: host.SETCC, Cond: c, Dst: host.R(mr)})
		a.Emit(host.I(host.MOVL, host.Mem(host.EBP, off), host.R(mr)))
	}
	// C and V must be captured before SETCC sequences… SETCC does not
	// modify EFLAGS, so order is free; match the TCG backend's order.
	if t.FlagSrc != rule.FamLogic {
		if t.Flags.CMatch {
			set(host.B, env.OffC)
		} else {
			set(host.AE, env.OffC)
		}
		set(host.O, env.OffV)
	} else {
		a.Emit(host.I(host.MOVL, host.Mem(host.EBP, env.OffV), host.Imm(0)))
	}
	set(host.S, env.OffN)
	set(host.E, env.OffZ)
}

// writtenRegs lists the distinct guest registers the rule writes.
func writtenRegs(t *rule.Template, b rule.Binding) []guest.Reg {
	var out []guest.Reg
	seen := map[guest.Reg]bool{}
	for _, g := range t.Guest {
		switch g.Op {
		case guest.CMP, guest.CMN, guest.TST, guest.TEQ, guest.STR, guest.STRB:
			continue
		}
		if len(g.Args) == 0 || g.Args[0].Kind != guest.KindReg {
			continue
		}
		r := b.Regs[g.Args[0].Param]
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	return out
}

// lowerIR routes one generated IR sequence through the backend's
// instruction emitter into the shared assembler — the single lowering
// entry both the TCG fallback and the terminator's condition
// evaluation use (they previously duplicated the NewGen/regmap/Lower
// plumbing).
func (tr *translator) lowerIR(a *host.Asm, g *tcg.Gen, mapping map[guest.Reg]host.Reg) error {
	return tr.be.Lower(a, g, tr.regmap(mapping), tr.tempPool)
}

// emitTCG lowers one guest instruction through the TCG pipeline.
func (tr *translator) emitTCG(a *host.Asm, in guest.Inst, pc uint32, mapping map[guest.Reg]host.Reg) error {
	g := tcg.NewGen(a.NewLabel)
	if err := g.Translate(in, pc); err != nil {
		return err
	}
	return tr.lowerIR(a, g, mapping)
}

func (tr *translator) regmap(mapping map[guest.Reg]host.Reg) func(guest.Reg) host.Operand {
	return func(r guest.Reg) host.Operand {
		if hr, ok := mapping[r]; ok {
			return host.R(hr)
		}
		return host.Mem(host.EBP, env.OffReg(int(r)))
	}
}

// emitTerminator ends the block: evaluate the branch, store mapped
// registers, and exit with the next guest PC. Both exit paths carry
// their own epilogue (QEMU's two goto_tb stubs). It reports whether the
// terminator itself counts as rule-covered: true for the jcc of a
// branch-tail rule and for a delegated conditional branch — in both
// cases no emulation code is emitted for it, only the universal exit
// stubs.
func (tr *translator) emitTerminator(a *host.Asm, term guest.Inst, pc uint32, plans []iplan, termRule *iplan, mapping map[guest.Reg]host.Reg) (bool, error) {
	fall := pc + guest.InstBytes
	exitImm := func(target uint32) { tr.exitTo(a, target, mapping) }

	switch term.Op {
	case guest.HLT:
		exitImm(HaltPC)
		return false, nil

	case guest.B:
		target := pc + guest.InstBytes + uint32(term.Ops[0].Imm)*guest.InstBytes
		if term.Cond == guest.AL {
			exitImm(target)
			return false, nil
		}
		taken := a.NewLabel()
		covered := false
		// Branch-tail rule: the matched rule's host code left EFLAGS
		// ready; finish with its jcc.
		delegatedFrom := -1
		for i := range plans {
			if plans[i].delegated {
				delegatedFrom = i
			}
		}
		switch {
		case termRule != nil:
			a.SetCat(host.CatControl)
			a.Emit(host.Jcc(termRule.tmpl.HCond, taken))
			a.SetCat(host.CatCompute)
			covered = true
		case delegatedFrom >= 0:
			hc, ok := core.DelegateCond(plans[delegatedFrom].tmpl.Flags, term.Cond)
			if !ok {
				return false, fmt.Errorf("delegation planned but condition unmappable")
			}
			a.SetCat(host.CatControl)
			a.Emit(host.Jcc(hc, taken))
			a.SetCat(host.CatCompute)
			covered = true
		default:
			start := a.Len()
			g := tcg.NewGen(a.NewLabel)
			v := g.EvalCond(term.Cond)
			g.Insts = append(g.Insts, tcg.Inst{Op: tcg.Brnz, A: v, Label: taken, Dst: -1})
			if err := tr.lowerIR(a, g, mapping); err != nil {
				return false, err
			}
			retag(a, start, host.CatControl)
		}
		exitImm(fall)
		a.Bind(taken)
		exitImm(target)
		return covered, nil

	case guest.BL:
		target := pc + guest.InstBytes + uint32(term.Ops[0].Imm)*guest.InstBytes
		a.SetCat(host.CatControl)
		if hr, ok := mapping[guest.LR]; ok {
			a.Emit(host.I(host.MOVL, host.R(hr), host.Imm(int32(fall))))
		} else {
			a.Emit(host.I(host.MOVL, host.Mem(host.EBP, env.OffReg(int(guest.LR))), host.Imm(int32(fall))))
		}
		a.SetCat(host.CatCompute)
		exitImm(target)
		return false, nil

	case guest.BX:
		r := term.Ops[0].Reg
		if hr, ok := mapping[r]; ok {
			tr.emitEpilogue(a, mapping)
			a.SetCat(host.CatControl)
			a.Emit(host.Exit(host.R(hr)))
			a.SetCat(host.CatCompute)
			return false, nil
		}
		a.SetCat(host.CatControl)
		a.Emit(host.I(host.MOVL, host.R(host.EAX), host.Mem(host.EBP, env.OffReg(int(r)))))
		a.SetCat(host.CatCompute)
		tr.emitEpilogue(a, mapping)
		a.SetCat(host.CatControl)
		a.Emit(host.Exit(host.R(host.EAX)))
		a.SetCat(host.CatCompute)
		return false, nil

	case guest.POP:
		// pop {..., pc}: pop the non-PC registers, bump SP over the PC
		// slot, and exit with the value that slot held.
		list := term.Ops[0].List &^ (1 << uint(guest.PC))
		if list != 0 {
			sub := guest.NewInst(guest.POP, guest.Operand{Kind: guest.KindRegList, List: list})
			if err := tr.emitTCG(a, sub, pc, mapping); err != nil {
				return false, err
			}
		}
		bump := guest.NewInst(guest.ADD, guest.RegOp(guest.SP), guest.RegOp(guest.SP), guest.ImmOp(4))
		if err := tr.emitTCG(a, bump, pc, mapping); err != nil {
			return false, err
		}
		a.SetCat(host.CatControl)
		spOp := tr.regmap(mapping)(guest.SP)
		if spOp.Kind == host.KindReg {
			a.Emit(host.I(host.MOVL, host.R(host.EAX), host.Mem(spOp.Reg, -4)))
		} else {
			a.Emit(host.I(host.MOVL, host.R(host.EAX), spOp))
			a.Emit(host.I(host.MOVL, host.R(host.EAX), host.Mem(host.EAX, -4)))
		}
		a.SetCat(host.CatCompute)
		tr.emitEpilogue(a, mapping)
		a.SetCat(host.CatControl)
		a.Emit(host.Exit(host.R(host.EAX)))
		a.SetCat(host.CatCompute)
		return false, nil
	}

	// PC-writing data instructions (mov pc, lr style).
	if d, ok := term.DstReg(); ok && d == guest.PC && term.Op == guest.MOV &&
		term.Cond == guest.AL && term.Ops[1].Kind == guest.KindReg {
		src := term.Ops[1].Reg
		a.SetCat(host.CatControl)
		srcOp := tr.regmap(mapping)(src)
		a.Emit(host.I(host.MOVL, host.R(host.EAX), srcOp))
		a.SetCat(host.CatCompute)
		tr.emitEpilogue(a, mapping)
		a.SetCat(host.CatControl)
		a.Emit(host.Exit(host.R(host.EAX)))
		a.SetCat(host.CatCompute)
		return false, nil
	}

	return false, fmt.Errorf("dbt: unsupported terminator %q", term)
}

// exitTo emits one complete immediate exit path: epilogue (store mapped
// guest registers) plus the exit_tb carrying the next guest pc (QEMU's
// goto_tb stub). Shared by block terminators and superblock side exits.
func (tr *translator) exitTo(a *host.Asm, target uint32, mapping map[guest.Reg]host.Reg) {
	tr.emitEpilogue(a, mapping)
	a.SetCat(host.CatControl)
	a.Emit(host.Exit(host.Imm(int32(target))))
	a.SetCat(host.CatCompute)
}

// retag rewrites the category of instructions emitted since start.
func retag(a *host.Asm, start int, cat host.Category) {
	insts := a.Insts()
	for i := start; i < len(insts); i++ {
		insts[i].Cat = cat
	}
}
