package dbt

import (
	"fmt"
	"slices"

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
// guest bytes — which is the shared service's whole attach test.
type codegenOptions struct {
	DelegateFlags bool
	ManualABI     bool
	Peephole      bool
}

// codegenOf is the one place the codegen knobs are read off a Config.
// A Config field that changes translation output must be copied here —
// and so into the attach comparison — or classified per-engine in
// TestConfigFieldsClassified.
func codegenOf(c *Config) codegenOptions {
	return codegenOptions{
		DelegateFlags: c.DelegateFlags,
		ManualABI:     c.ManualABI,
		Peephole:      c.Peephole,
	}
}

// flagWindow is the maximum setter-to-consumer distance, in guest
// instructions, flag delegation accepts; the paper fixes 3.
const flagWindow = 3

// translator is the paper's pipeline — rule lookup, instantiate, TCG
// fallback, flag delegation, backend Finalize, validate — as what it is:
// a pure function of {code bytes, rule store, backend, codegenOptions}.
// It owns no guest memory, CPU, code cache or statistics, and is
// immutable after construction, so the Run goroutines of a service's
// tenants and blame-isolation trials all call one instance
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

	// The rewrite validator's verdict counters, on the owner's registry.
	validated *obs.Counter
	fallbacks *obs.Counter
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
		// Rekey retrieval fingerprints into the backend's namespace;
		// quarantine state is backend-neutral and survives the rekey.
		c.Rules.SetBackendID(be.ID())
	}
	return &translator{
		translatorID: translatorID{rules: c.Rules, backend: be.ID(), opt: codegenOf(c)},
		be:           be, blockRegs: be.BlockRegs(), tempPool: be.TempPool(),
		validated: validated,
		fallbacks: fallbacks,
	}
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

// txctx is per-goroutine translation scratch, reused by every block its
// goroutine translates; its fields say what it holds. Nothing a unit
// keeps points into it: Finalize copies the host code, and the decoded
// instructions, rules and uncovered opcodes are copied out once per
// unit. So a block allocates only what its tblock keeps — those
// copies, the tblock, the host block and its micro-ops and a label map
// if it binds labels. The engine owns one for the Run goroutine
// (Engine.tx); every blame-isolation trial carries its own. Do not copy
// a used txctx: g and mapf hold its address.
type txctx struct {
	binds []rule.Binding // one slot per accepted rule window
	n     int            // slots in use

	fetch     []guest.Inst // the block being decoded
	plans     []iplan      // the block's per-instruction plan
	regs      regMap       // the block's register mapping
	asm       host.Asm
	g         tcg.Gen
	mapf      func(guest.Reg) host.Operand // regs.operand, bound once
	used      []*rule.Template             // distinct templates emitted, first use first
	uncovered []guest.Op                   // opcodes emitted through TCG
}

// reset starts a new translation unit.
func (c *txctx) reset() {
	c.n = 0
	c.used, c.uncovered = c.used[:0], c.uncovered[:0]
	c.asm.Reset()
	if c.mapf == nil {
		c.mapf = c.regs.operand
		c.g.NewLabel = c.asm.NewLabel
	}
}

// plansFor returns n zeroed plans (pathTCG), reusing the scratch.
func (c *txctx) plansFor(n int) []iplan {
	c.plans = slices.Grow(c.plans[:0], n)[:n]
	clear(c.plans)
	return c.plans
}

// own copies scratch into an exact-size slice a unit may keep (nil
// when empty, as the appends it replaces left it).
func own[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return append(make([]T, 0, len(s)), s...)
}

// regMap maps guest registers to host registers: bit r of set marks r
// mapped, to reg[r].
type regMap struct {
	set uint16
	reg [guest.NumRegs]host.Reg
}

func (m *regMap) get(r guest.Reg) (host.Reg, bool) { return m.reg[r], m.set&(1<<r) != 0 }

func (m *regMap) put(r guest.Reg, h host.Reg) {
	m.set |= 1 << r
	m.reg[r] = h
}

// operand is r's home: its host register if mapped, else its slot.
func (m *regMap) operand(r guest.Reg) host.Operand {
	if hr, ok := m.get(r); ok {
		return host.R(hr)
	}
	return host.Mem(host.EBP, env.OffReg(int(r)))
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

// blockPlan is the per-instruction plan for one block, produced by
// planBlock and refined by finishPlan.
type blockPlan struct {
	plans    []iplan
	termRule *iplan
}

// unit is one immutable translation unit: a guest basic block and the
// host block it was translated into. translate sets every field and
// nothing writes them after, so a unit is safe to share: service tenants
// copy a prototype's unit by value (adoptProto).
type unit struct {
	pc    uint32
	insts []guest.Inst // decoded guest block, reused instead of re-decoding

	hb *host.Block
	// rules lists the distinct rule templates whose host code the unit
	// contains — the provenance the guard layer's blame isolation walks
	// when a shadow-verification divergence implicates the unit.
	// flagsExact reports that the unit materializes every NZCV update into
	// the CPUState words (no delegation, no branch-tail rule), so the
	// shadow verifier may compare flags.
	rules      []*rule.Template
	flagsExact bool

	// What one execution retires: guest instructions, of which
	// rule-covered and covered by multi-instruction rules, and the
	// opcodes emitted through TCG.
	nGuest, nCovered, nSeq uint64
	uncovered              []guest.Op

	// SMC metadata (see smc.go): whether the unit contains guest store
	// instructions, and the guest [lo,hi) byte range it was decoded from,
	// as the one-range list mem.Memory.ArmSMC takes.
	hasStores bool
	ranges    [1][2]uint32
}

// translate fetches the guest block at pc from m (live memory on the
// demand path, the service's code snapshot for a service miss) and
// translates it into a unit, filling in tb's direct-exit links. tx holds
// the per-goroutine translation scratch. Translation is a pure function
// of the code bytes and the translator, so concurrent callers produce
// identical blocks.
//
// skip and cur are the guard layer's extension points (nil elsewhere):
// skip excludes individual rule templates from retrieval (the
// blame-isolation trials translate with one suspect excluded —
// quarantined rules are excluded on every path by the store itself),
// and cur, when non-nil, tracks the template currently being
// instantiated so a panic inside rule emission can be attributed to
// the rule that caused it.
func (tr *translator) translate(m *mem.Memory, pc uint32, tx *txctx, skip func(*rule.Template) bool, cur **rule.Template) (*tblock, error) {
	insts, err := tx.fetchBlock(m, pc)
	if err != nil {
		return nil, err
	}
	tb := &tblock{unit: unit{pc: pc, insts: insts}}
	u := &tb.unit
	n := len(insts)

	// Passes 1-4: rule windows, register allocation, staging demotion,
	// flag delegation.
	tx.reset()
	bp := tr.planBlock(insts, tx, skip)
	tr.allocRegs(insts, &tx.regs)
	tr.finishPlan(&bp, insts, &tx.regs)

	// Pass 5: emission. Alongside the host code, record the unit's rule
	// provenance (the distinct templates whose code it contains) and
	// whether its NZCV state stays exact in the CPUState — both feed the
	// guard layer's shadow verification and blame isolation — and what one
	// execution retires.
	tr.emitPrologue(tx)
	em, err := tr.emitBody(tx, pc, insts, bp.plans, cur)
	if err != nil {
		return nil, err
	}
	term := insts[n-1]
	termCovered, err := tr.emitTerminator(tx, term, pc+uint32((n-1)*guest.InstBytes), bp.plans, bp.termRule)
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
			em.covered++
		}
	} else {
		tx.uncovered = append(tx.uncovered, term.Op)
		if bp.termRule != nil {
			// The branch of the matched branch-tail rule could not be
			// emitted; its body still counted itself.
			em.covered--
		}
	}
	u.nGuest, u.nCovered, u.nSeq = uint64(n), em.covered, em.seq
	u.uncovered = own(tx.uncovered)
	u.flagsExact = em.flagsExact
	u.hasStores = slices.ContainsFunc(insts, instHasStore)
	u.ranges[0] = [2]uint32{pc, pc + uint32(n*guest.InstBytes)}

	// The backend finalizes the complete assembled stream — rule bodies
	// and TCG-lowered code alike — applying any legalization its encoder
	// requires before the unit becomes executable.
	hb, err := tr.be.Finalize(&tx.asm)
	if err != nil {
		return nil, err
	}
	u.hb = tr.finishBlock(hb)
	u.rules = own(tx.used)
	tb.links = u.directLinks(&tb.linkBuf)
	return tb, nil
}

// planBlock is pass 1: choose rule windows greedily (longest match
// first) over one basic block. The window may extend through the
// terminator when a branch-tail rule (compare-and-branch) matches it.
func (tr *translator) planBlock(insts []guest.Inst, tx *txctx, skip func(*rule.Template) bool) blockPlan {
	n := len(insts)
	plans := tx.plansFor(n)
	plans[n-1].kind = pathTerm
	bp := blockPlan{plans: plans}
	if tr.rules == nil {
		return bp
	}
	body := insts[:n-1]
	for i := 0; i < len(body); {
		if body[i].Cond != guest.AL {
			i++
			continue
		}
		b := tx.slot()
		tmpl, l := tr.rules.LookupInto(insts[i:], nil, skip, b)
		usable, needsDeleg := tr.ruleUsable(tmpl)
		if !usable {
			i++
			continue
		}
		tx.keep()
		plans[i] = iplan{kind: pathRule, tmpl: tmpl, bind: *b, needsDeleg: needsDeleg}
		for j := 1; j < l; j++ {
			plans[i+j].kind = pathRuleTail
		}
		if tmpl.BranchTail {
			bp.termRule = &plans[i]
		}
		i += l
	}
	return bp
}

// finishPlan is passes 3-4 over one block, given its register mapping:
// demote rules whose operand staging exceeds the temp pool, then plan
// condition-flag delegation for the block's terminator branch; rules
// that required delegation but did not get it fall back to TCG.
func (tr *translator) finishPlan(bp *blockPlan, insts []guest.Inst, mapping *regMap) {
	body := insts[:len(insts)-1]
	plans := bp.plans
	for i := range body {
		p := &plans[i]
		if p.kind != pathRule {
			continue
		}
		need := tr.stagingNeed(p.tmpl, &p.bind, mapping)
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

// emitted aggregates what emitBody produced for a block's body besides
// the txctx's used/uncovered accumulators (terminator accounting is
// translate's).
type emitted struct {
	covered, seq uint64
	flagsExact   bool
}

// emitBody emits the body (all but the terminator) of a block into the
// assembler.
func (tr *translator) emitBody(tx *txctx, pc uint32, insts []guest.Inst, plans []iplan, cur **rule.Template) (emitted, error) {
	em := emitted{flagsExact: true}
	body := insts[:len(insts)-1]
	for i := range body {
		p := &plans[i]
		if p.delegated {
			em.flagsExact = false
		}
		switch p.kind {
		case pathRule:
			if p.tmpl.BranchTail {
				em.flagsExact = false
			}
			if !slices.Contains(tx.used, p.tmpl) {
				tx.used = append(tx.used, p.tmpl)
			}
			if cur != nil {
				*cur = p.tmpl
			}
			if err := tr.emitRule(tx, p); err != nil {
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
				if err := tr.emitManual(tx, body[i]); err != nil {
					return em, fmt.Errorf("inst %d %q: %w", i, body[i], err)
				}
				em.covered++
				continue
			}
			tx.uncovered = append(tx.uncovered, body[i].Op)
			if err := tr.emitTCG(tx, body[i], pc+uint32(i*guest.InstBytes)); err != nil {
				return em, fmt.Errorf("inst %d %q: %w", i, body[i], err)
			}
		}
	}
	return em, nil
}

// directLinks returns the unit's statically known successor slots, in
// buf: a direct branch's target and — for a conditional branch — its
// fallthrough first. Indirect terminators (bx, pop {pc}, mov pc) have
// no static successors and never chain.
func (u *unit) directLinks(buf *[2]blockLink) []blockLink {
	term := u.insts[len(u.insts)-1]
	if term.Op != guest.B && term.Op != guest.BL {
		return nil
	}
	fall := u.pc + uint32(len(u.insts)*guest.InstBytes)
	target := fall + uint32(term.Ops[0].Imm)*guest.InstBytes
	out := buf[:0]
	if term.Op == guest.B && term.Cond != guest.AL && target != fall {
		out = append(out, blockLink{target: fall})
	}
	return append(out, blockLink{target: target})
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

// allocRegs maps the block's most-used guest registers onto blockRegs,
// in order of use count, ties to the lower register.
func (tr *translator) allocRegs(insts []guest.Inst, m *regMap) {
	*m = regMap{}
	var counts [guest.NumRegs]int
	var srcs [guest.NumRegs]guest.Reg
	for i := range insts {
		if d, ok := insts[i].DstReg(); ok {
			counts[d]++
		}
		for _, r := range insts[i].SrcRegs(srcs[:0]) {
			counts[r]++
		}
	}
	counts[guest.PC] = 0
	for _, hr := range tr.blockRegs {
		best := 0
		for r, c := range counts {
			if c > counts[best] {
				best = r
			}
		}
		if counts[best] == 0 {
			return
		}
		m.put(guest.Reg(best), hr)
		counts[best] = 0
	}
}

// stagingNeed counts temp-pool registers a rule application requires:
// one per distinct unmapped bound guest register plus the template's
// scratch demand.
func (tr *translator) stagingNeed(t *rule.Template, b *rule.Binding, mapping *regMap) int {
	var seen uint32
	need := t.NScratch
	for p, k := range t.Params {
		if k != rule.PReg {
			continue
		}
		r := b.Regs[p]
		if _, mapped := mapping.get(r); !mapped && seen&(1<<r) == 0 {
			seen |= 1 << r
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
	if n-1-setter > flagWindow {
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
func (tr *translator) emitPrologue(tx *txctx) {
	a := &tx.asm
	a.SetCat(host.CatDataTransfer)
	for gr := guest.Reg(0); gr < guest.NumRegs; gr++ {
		if hr, ok := tx.regs.get(gr); ok {
			a.Emit(host.I(host.MOVL, host.R(hr), host.Mem(host.EBP, env.OffReg(int(gr)))))
		}
	}
	a.SetCat(host.CatCompute)
}

// emitEpilogue stores mapped guest registers back to the CPUState and
// leaves the category at CatControl for the exit that follows.
func (tr *translator) emitEpilogue(tx *txctx) {
	a := &tx.asm
	a.SetCat(host.CatDataTransfer)
	for gr := guest.Reg(0); gr < guest.NumRegs; gr++ {
		if hr, ok := tx.regs.get(gr); ok {
			a.Emit(host.I(host.MOVL, host.Mem(host.EBP, env.OffReg(int(gr))), host.R(hr)))
		}
	}
	a.SetCat(host.CatControl)
}

// emitRule applies a matched rule: stage unmapped guest registers into
// temp registers, instantiate the template straight into the stream,
// materialize flags unless delegated, and write back the staged
// registers the rule writes.
func (tr *translator) emitRule(tx *txctx, p *iplan) error {
	a, t, b := &tx.asm, p.tmpl, &p.bind

	var pool [host.NumRegs]host.Reg
	free := append(pool[:0], tr.tempPool...)
	take := func() (host.Reg, error) {
		if len(free) == 0 {
			return 0, fmt.Errorf("temp pool exhausted")
		}
		r := free[len(free)-1]
		free = free[:len(free)-1]
		return r, nil
	}

	// view is the block mapping plus this window's staged registers.
	view, staged := tx.regs, uint32(0)
	a.SetCat(host.CatDataTransfer)
	for pi, k := range t.Params {
		if k != rule.PReg {
			continue
		}
		gr := b.Regs[pi]
		if _, ok := view.get(gr); ok {
			continue // mapped, or staged for an earlier parameter
		}
		hr, err := take()
		if err != nil {
			return err
		}
		view.put(gr, hr)
		staged |= 1 << gr
		a.Emit(host.I(host.MOVL, host.R(hr), host.Mem(host.EBP, env.OffReg(int(gr)))))
	}
	a.SetCat(host.CatCompute)

	var scratch [host.NumRegs]host.Reg
	for i := 0; i < t.NScratch; i++ {
		hr, err := take()
		if err != nil {
			return err
		}
		scratch[i] = hr
	}
	insts, err := rule.AppendInstantiated(a.Insts(), t, b, view.get, scratch[:t.NScratch], tr.be.CheckRuleInst)
	if err != nil {
		return err
	}
	a.Extend(insts)

	// Branch-tail rules consume their flags in the terminator's jcc;
	// everything else materializes unless delegated.
	if t.SetsFlags && !p.delegated && !t.BranchTail {
		mr, err := take()
		if err != nil {
			return err
		}
		emitMaterialize(a, t, mr)
	}

	// Write back the staged guest registers the rule writes, each once,
	// in first-write order.
	a.SetCat(host.CatDataTransfer)
	for _, g := range t.Guest {
		switch g.Op {
		case guest.CMP, guest.CMN, guest.TST, guest.TEQ, guest.STR, guest.STRB:
			continue
		}
		if len(g.Args) == 0 || g.Args[0].Kind != guest.KindReg {
			continue
		}
		if gr := b.Regs[g.Args[0].Param]; staged&(1<<gr) != 0 {
			staged &^= 1 << gr
			hr, _ := view.get(gr)
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

// lowerIR routes one generated IR sequence through the backend's
// instruction emitter into the shared assembler — the single lowering
// entry both the TCG fallback and the terminator's condition
// evaluation use.
func (tr *translator) lowerIR(tx *txctx, g *tcg.Gen) error {
	return tr.be.Lower(&tx.asm, g, tx.mapf, tr.tempPool)
}

// emitTCG lowers one guest instruction through the TCG pipeline.
func (tr *translator) emitTCG(tx *txctx, in guest.Inst, pc uint32) error {
	g := &tx.g
	g.Reset()
	if err := g.Translate(in, pc); err != nil {
		return err
	}
	return tr.lowerIR(tx, g)
}

// emitTerminator ends the block: evaluate the branch, store mapped
// registers, and exit with the next guest PC. Both exit paths carry
// their own epilogue (QEMU's two goto_tb stubs). It reports whether the
// terminator itself counts as rule-covered: true for the jcc of a
// branch-tail rule and for a delegated conditional branch — in both
// cases no emulation code is emitted for it, only the universal exit
// stubs.
func (tr *translator) emitTerminator(tx *txctx, term guest.Inst, pc uint32, plans []iplan, termRule *iplan) (bool, error) {
	a := &tx.asm
	fall := pc + guest.InstBytes
	exitImm := func(target uint32) { tr.exitTo(tx, target) }

	switch term.Op {
	case guest.HLT:
		exitImm(HaltPC)
		return false, nil

	case guest.B:
		target := fall + uint32(term.Ops[0].Imm)*guest.InstBytes
		if term.Cond == guest.AL {
			exitImm(target)
			return false, nil
		}
		taken := a.NewLabel()
		covered, err := tr.emitCondJump(tx, term.Cond, plans, termRule, taken)
		if err != nil {
			return false, err
		}
		exitImm(fall)
		a.Bind(taken)
		exitImm(target)
		return covered, nil

	case guest.BL:
		tr.emitLink(tx, fall)
		exitImm(fall + uint32(term.Ops[0].Imm)*guest.InstBytes)
		return false, nil

	case guest.BX:
		r := term.Ops[0].Reg
		if hr, ok := tx.regs.get(r); ok {
			tr.emitEpilogue(tx)
			a.Emit(host.Exit(host.R(hr)))
			a.SetCat(host.CatCompute)
			return false, nil
		}
		a.SetCat(host.CatControl)
		a.Emit(host.I(host.MOVL, host.R(host.EAX), host.Mem(host.EBP, env.OffReg(int(r)))))
		a.SetCat(host.CatCompute)
		tr.emitEpilogue(tx)
		a.Emit(host.Exit(host.R(host.EAX)))
		a.SetCat(host.CatCompute)
		return false, nil

	case guest.POP:
		// pop {..., pc}: pop the non-PC registers, bump SP over the PC
		// slot, and exit with the value that slot held.
		list := term.Ops[0].List &^ (1 << uint(guest.PC))
		if list != 0 {
			sub := guest.NewInst(guest.POP, guest.Operand{Kind: guest.KindRegList, List: list})
			if err := tr.emitTCG(tx, sub, pc); err != nil {
				return false, err
			}
		}
		bump := guest.NewInst(guest.ADD, guest.RegOp(guest.SP), guest.RegOp(guest.SP), guest.ImmOp(4))
		if err := tr.emitTCG(tx, bump, pc); err != nil {
			return false, err
		}
		a.SetCat(host.CatControl)
		spOp := tx.regs.operand(guest.SP)
		if spOp.Kind == host.KindReg {
			a.Emit(host.I(host.MOVL, host.R(host.EAX), host.Mem(spOp.Reg, -4)))
		} else {
			a.Emit(host.I(host.MOVL, host.R(host.EAX), spOp))
			a.Emit(host.I(host.MOVL, host.R(host.EAX), host.Mem(host.EAX, -4)))
		}
		a.SetCat(host.CatCompute)
		tr.emitEpilogue(tx)
		a.Emit(host.Exit(host.R(host.EAX)))
		a.SetCat(host.CatCompute)
		return false, nil
	}

	// PC-writing data instructions (mov pc, lr style).
	if d, ok := term.DstReg(); ok && d == guest.PC && term.Op == guest.MOV &&
		term.Cond == guest.AL && term.Ops[1].Kind == guest.KindReg {
		a.SetCat(host.CatControl)
		a.Emit(host.I(host.MOVL, host.R(host.EAX), tx.regs.operand(term.Ops[1].Reg)))
		a.SetCat(host.CatCompute)
		tr.emitEpilogue(tx)
		a.Emit(host.Exit(host.R(host.EAX)))
		a.SetCat(host.CatCompute)
		return false, nil
	}

	return false, fmt.Errorf("dbt: unsupported terminator %q", term)
}

// emitCondJump emits the jump of a conditional guest branch to label
// lbl, taken when the guest condition holds. The host condition comes from the matched branch-tail rule
// (whose host code left EFLAGS ready), from the delegated flag setter,
// or else from TCG's evaluation of the CPUState flag words. It reports
// whether the branch counts as rule-covered: true for the first two,
// where no emulation code is emitted for it.
func (tr *translator) emitCondJump(tx *txctx, cond guest.Cond, plans []iplan, termRule *iplan, lbl int) (bool, error) {
	a := &tx.asm
	delegatedFrom := -1
	for i := range plans {
		if plans[i].delegated {
			delegatedFrom = i
		}
	}
	var hc host.Cond
	switch {
	case termRule != nil:
		hc = termRule.tmpl.HCond
	case delegatedFrom >= 0:
		var ok bool
		if hc, ok = core.DelegateCond(plans[delegatedFrom].tmpl.Flags, cond); !ok {
			return false, fmt.Errorf("delegation planned but condition unmappable")
		}
	default:
		start := a.Len()
		g := &tx.g
		g.Reset()
		v := g.EvalCond(cond)
		g.Insts = append(g.Insts, tcg.Inst{Op: tcg.Brnz, A: v, Label: lbl, Dst: -1})
		if err := tr.lowerIR(tx, g); err != nil {
			return false, err
		}
		retag(a, start, host.CatControl)
		return false, nil
	}
	a.SetCat(host.CatControl)
	a.Emit(host.Jcc(hc, lbl))
	a.SetCat(host.CatCompute)
	return true, nil
}

// emitLink writes a bl's return address into the guest link register.
func (tr *translator) emitLink(tx *txctx, ret uint32) {
	a := &tx.asm
	a.SetCat(host.CatControl)
	a.Emit(host.I(host.MOVL, tx.regs.operand(guest.LR), host.Imm(int32(ret))))
	a.SetCat(host.CatCompute)
}

// exitTo emits one complete immediate exit path: epilogue (store mapped
// guest registers) plus the exit_tb carrying the next guest pc (QEMU's
// goto_tb stub).
func (tr *translator) exitTo(tx *txctx, target uint32) {
	tr.emitEpilogue(tx)
	tx.asm.Emit(host.Exit(host.Imm(int32(target))))
	tx.asm.SetCat(host.CatCompute)
}

// retag rewrites the category of instructions emitted since start.
func retag(a *host.Asm, start int, cat host.Category) {
	insts := a.Insts()
	for i := start; i < len(insts); i++ {
		insts[i].Cat = cat
	}
}
