package analysis

import (
	"fmt"
	"math/rand"
	"sort"

	"paramdbt/internal/guest"
	"paramdbt/internal/host"
	"paramdbt/internal/obs"
	"paramdbt/internal/rule"
	"paramdbt/internal/symexec"
)

// Verdict classifies a rule after auditing.
type Verdict string

// Verdicts.
const (
	VerdictSound        = Verdict("sound")        // equivalent over the whole instantiation domain
	VerdictUnsound      = Verdict("unsound")      // a confirmed witness instantiation diverges
	VerdictInconclusive = Verdict("inconclusive") // neither proved nor refuted
)

// Proof records the strongest machinery the auditor needed.
type Proof string

// Proof methods, ordered weakest-win: a rule proved structurally on one
// check but only by sweep on another reports "sweep".
const (
	ProofStructural = Proof("structural") // both sides normalize identically
	ProofAbstract   = Proof("abstract")   // equal after abstract-domain simplification
	ProofSweep      = Proof("sweep")      // exhaustive concrete sweep of the immediate domain
)

// Witness is a concrete instantiation on which a rule diverges: the
// immediate parameter values select the instantiation, and the register
// /flag assignment is the machine state exposing the divergence.
type Witness struct {
	Imms  map[int]int32     `json:"imms"`
	Vals  map[string]uint32 `json:"vals"`
	Seed  uint64            `json:"seed"`
	Check string            `json:"check"` // which comparison diverged
	Guest uint32            `json:"guest"` // value on the guest side
	Host  uint32            `json:"host"`  // value on the host side

	// Confirmed reports that replaying the witness instantiation
	// through symexec (CheckEquiv, or direct concrete evaluation for
	// informative flag claims) reproduces the divergence. Unconfirmed
	// witnesses never yield an unsound verdict.
	Confirmed   bool   `json:"confirmed"`
	ConfirmedBy string `json:"confirmed_by,omitempty"`
}

// RuleReport is the audit outcome for one rule.
type RuleReport struct {
	Fingerprint string    `json:"fingerprint"`
	Rule        string    `json:"rule"`
	Origin      string    `json:"origin"`
	Verdict     Verdict   `json:"verdict"`
	Proof       Proof     `json:"proof,omitempty"`
	Checks      int       `json:"checks"`           // comparisons decided
	Swept       int       `json:"swept,omitempty"`  // concrete points evaluated
	Reason      string    `json:"reason,omitempty"` // for inconclusive verdicts
	Findings    []Finding `json:"findings,omitempty"`
	Witness     *Witness  `json:"witness,omitempty"`
}

// StoreReport aggregates a whole-store audit.
type StoreReport struct {
	// Backend names the host evaluator the audit ran under; reports from
	// different backends are not comparable rule-for-rule because the
	// evaluator also gates instruction admissibility.
	Backend      string        `json:"backend,omitempty"`
	Total        int           `json:"total"`
	Sound        int           `json:"sound"`
	Unsound      int           `json:"unsound"`
	Inconclusive int           `json:"inconclusive"`
	ByProof      map[Proof]int `json:"by_proof"`
	Rules        []RuleReport  `json:"rules"`
}

// Sweep budget: a check is decided by exhaustive enumeration when the
// immediate-domain product is at most sweepExhaustive points; larger
// domains are sampled (never yielding a sound verdict) with sweepSample
// points. Each point is evaluated under sweepTrials register/flag
// vectors.
const (
	sweepExhaustive = 1 << 16
	sweepSample     = 2048
	sweepTrials     = 6
)

// checkPair is one guest-side / host-side expression comparison the
// rule's soundness requires, with the store traces that give loads
// their meaning.
type checkPair struct {
	name             string
	g, h             *symexec.Expr
	gStores, hStores []symexec.SymStore
}

// decision is the outcome of deciding one checkPair.
type decision struct {
	proof   Proof // valid when proved
	proved  bool
	witness *Witness // non-nil when a divergence was found
	reason  string   // valid when neither (inconclusive)
	swept   int
}

// AuditRule statically audits one template across its whole
// instantiation domain and classifies it, judging the host side under
// the default (x86) evaluator.
func AuditRule(t *rule.Template) *RuleReport {
	return AuditRuleWith(t, defaultEvaluator{})
}

// AuditRuleWith is AuditRule under an explicit host evaluator — pass a
// backend.Backend to audit the rule as the backend that will emit it
// sees it: instructions the backend cannot encode surface as
// inconclusive lift failures instead of silently auditing against the
// wrong semantics.
func AuditRuleWith(t *rule.Template, ev HostEvaluator) *RuleReport {
	rep := &RuleReport{
		Fingerprint: t.Fingerprint(),
		Rule:        t.String(),
		Origin:      t.Origin.String(),
	}
	defer func() {
		if obs.On() {
			metAudits.Inc()
			switch rep.Verdict {
			case VerdictSound:
				metSound.Inc()
			case VerdictUnsound:
				metUnsound.Inc()
			default:
				metInconclusive.Inc()
			}
		}
	}()

	lf, err := liftTemplateWith(t, ev)
	if err != nil {
		rep.Verdict = VerdictInconclusive
		rep.Reason = "lift failed: " + err.Error()
		return rep
	}
	gseq, hseq, _, _, _ := rule.Concretize(t, placeholderImm)
	rep.Findings = DataflowFindings(t, gseq, hseq, lf.binds, lf.scratch)

	pairs, perr := buildChecks(t, lf.gs, lf.hs, lf.binds, lf.scratch)
	if perr != "" {
		rep.Verdict = VerdictInconclusive
		rep.Reason = perr
		return rep
	}
	env := immEnv(t, lf.immParams)

	proof := ProofStructural
	inconclusive := ""
	for _, p := range pairs {
		d := decide(t, p, env)
		rep.Checks++
		rep.Swept += d.swept
		switch {
		case d.witness != nil:
			confirmWitness(t, d.witness, p)
			if obs.On() && d.witness.Confirmed {
				metWitnesses.Inc()
			}
			if d.witness.Confirmed {
				rep.Verdict = VerdictUnsound
				rep.Witness = d.witness
				return rep
			}
			// A witness symexec cannot reproduce stays a doubt, not a
			// refutation.
			rep.Witness = d.witness
			inconclusive = fmt.Sprintf("divergence on %q not confirmed by symexec replay", p.name)
		case d.proved:
			if proofRank(d.proof) > proofRank(proof) {
				proof = d.proof
			}
		default:
			if inconclusive == "" {
				inconclusive = fmt.Sprintf("%s: %s", p.name, d.reason)
			}
		}
	}
	if inconclusive != "" {
		rep.Verdict = VerdictInconclusive
		rep.Reason = inconclusive
		return rep
	}
	rep.Verdict = VerdictSound
	rep.Proof = proof
	if obs.On() {
		switch proof {
		case ProofStructural:
			metProofStruct.Inc()
		case ProofAbstract:
			metProofAbs.Inc()
		case ProofSweep:
			metProofSweep.Inc()
		}
	}
	return rep
}

func proofRank(p Proof) int {
	switch p {
	case ProofStructural:
		return 0
	case ProofAbstract:
		return 1
	}
	return 2
}

// buildChecks derives the comparison obligations from a pair of machine
// states, mirroring symexec.CheckEquiv's contract plus the rule's
// *claimed* flag correspondence (informative in CheckEquiv, audited
// here because the delegation machinery trusts it) and the branch-tail
// condition. The builder is deterministic in the states' structure, so
// the same pair index addresses the same obligation when the states are
// re-derived concretely for witness confirmation.
func buildChecks(t *rule.Template, gs *symexec.GState, hs *symexec.HState, binds []symexec.Binding, scratch []host.Reg) ([]checkPair, string) {
	var pairs []checkPair
	g2h := map[guest.Reg]host.Reg{}
	bound := map[host.Reg]bool{}
	for _, b := range binds {
		g2h[b.Guest] = b.Host
		bound[b.Host] = true
	}
	isScratch := map[host.Reg]bool{}
	for _, r := range scratch {
		isScratch[r] = true
	}

	for r := guest.Reg(0); r < guest.NumRegs; r++ {
		if !gs.Written[r] {
			continue
		}
		h, ok := g2h[r]
		if !ok {
			return nil, fmt.Sprintf("guest r%d written but unbound", r)
		}
		pairs = append(pairs, checkPair{
			name: fmt.Sprintf("guest r%d result in host %v", r, h),
			g:    gs.R[r], h: hs.R[h], gStores: gs.Stores, hStores: hs.Stores,
		})
	}
	for _, b := range binds {
		if gs.Written[b.Guest] {
			continue
		}
		pairs = append(pairs, checkPair{
			name: fmt.Sprintf("host %v preserves guest r%d", b.Host, b.Guest),
			g:    symexec.Sym(fmt.Sprintf("g%d", b.Guest)), h: hs.R[b.Host],
			hStores: hs.Stores,
		})
	}
	for r := host.Reg(0); r < host.NumRegs; r++ {
		if hs.Written[r] && !bound[r] && !isScratch[r] {
			pairs = append(pairs, checkPair{
				name: fmt.Sprintf("host %v untouched", r),
				g:    symexec.Sym(fmt.Sprintf("h%d", r)), h: hs.R[r],
				hStores: hs.Stores,
			})
		}
	}
	if len(gs.Stores) != len(hs.Stores) {
		return nil, fmt.Sprintf("store count mismatch: guest %d, host %d", len(gs.Stores), len(hs.Stores))
	}
	for i := range gs.Stores {
		g, h := gs.Stores[i], hs.Stores[i]
		if g.Size != h.Size {
			return nil, fmt.Sprintf("store %d size mismatch", i)
		}
		pairs = append(pairs, checkPair{
			name: fmt.Sprintf("store %d address", i),
			g:    g.Addr, h: h.Addr, gStores: gs.Stores[:i], hStores: hs.Stores[:i],
		})
		pairs = append(pairs, checkPair{
			name: fmt.Sprintf("store %d value", i),
			g:    g.Val, h: h.Val, gStores: gs.Stores[:i], hStores: hs.Stores[:i],
		})
	}
	if t.SetsFlags && t.Flags != (symexec.FlagCorrespondence{}) {
		fc := t.Flags
		add := func(name string, g, h *symexec.Expr) {
			pairs = append(pairs, checkPair{name: name, g: g, h: h, gStores: gs.Stores, hStores: hs.Stores})
		}
		if fc.NZMatch {
			add("claimed N==SF", gs.N, hs.SF)
			add("claimed Z==ZF", gs.Z, hs.ZF)
		}
		if fc.CMatch {
			add("claimed C==CF", gs.C, hs.CF)
		} else if fc.CInverted {
			add("claimed NOT C==CF", symexec.Bin(symexec.XXor, gs.C, symexec.Const(1)), hs.CF)
		}
		if fc.VMatch {
			add("claimed V==OF", gs.V, hs.OF)
		}
	}
	if t.BranchTail {
		pairs = append(pairs, checkPair{
			name: fmt.Sprintf("branch predicate %v==%v", t.GCond, t.HCond),
			g:    symexec.GuestCondExpr(gs, t.GCond), h: hs.CondExpr(t.HCond),
			gStores: gs.Stores, hStores: hs.Stores,
		})
	}
	return pairs, ""
}

// decide resolves one obligation: structural proof, then abstract
// proof, then a concrete sweep of the immediate domain.
func decide(t *rule.Template, p checkPair, env map[string]AbsVal) decision {
	ng, nh := symexec.Normalize(p.g), symexec.Normalize(p.h)
	if symexec.StructEqual(ng, nh) {
		return decision{proved: true, proof: ProofStructural}
	}
	if symexec.HasUnknown(ng) || symexec.HasUnknown(nh) {
		return decision{reason: "unmodeled effect (unknown expression)"}
	}
	memo := map[*symexec.Expr]AbsVal{}
	ag := AbsSimplify(ng, env, memo)
	ah := AbsSimplify(nh, env, memo)
	if symexec.StructEqual(ag, ah) {
		return decision{proved: true, proof: ProofAbstract}
	}
	return sweep(t, p, ng, nh)
}

// sweep concretely evaluates both sides over the immediate domain. Each
// immediate point is crossed with sweepTrials boundary-biased register
// and flag vectors. It returns a proved-by-sweep decision only when the
// whole domain was enumerated.
func sweep(t *rule.Template, p checkPair, ng, nh *symexec.Expr) decision {
	syms := symexec.SortedSymbols(ng, nh)
	for _, st := range p.gStores {
		syms = union(syms, symexec.SortedSymbols(st.Addr, st.Val))
	}
	for _, st := range p.hStores {
		syms = union(syms, symexec.SortedSymbols(st.Addr, st.Val))
	}

	// Split immediate symbols (swept over their domain) from machine
	// symbols (randomized per trial).
	var immPs []int
	var machineSyms []string
	for _, s := range syms {
		var pnum int
		if n, err := fmt.Sscanf(s, "i%d", &pnum); n == 1 && err == nil && s == immSymName(pnum) {
			immPs = append(immPs, pnum)
			continue
		}
		machineSyms = append(machineSyms, s)
	}
	sort.Ints(immPs)

	points := uint64(1)
	domains := make([][2]uint32, len(immPs))
	for i, pn := range immPs {
		lo, hi := immDomain(t, pn)
		domains[i] = [2]uint32{lo, hi}
		points *= uint64(hi-lo) + 1
	}
	exhaustive := points <= sweepExhaustive
	n := points
	if !exhaustive {
		n = sweepSample
	}

	// Match symexec's concrete-check confidence: a small immediate
	// domain (or none at all) must not shrink the total number of
	// machine-state vectors below checkTrials-equivalent coverage.
	trials := sweepTrials
	if n*uint64(trials) < 48 {
		trials = int(48/n) + 1
	}

	rng := symexec.ReplayRand(0xa0d17)
	d := decision{}
	for idx := uint64(0); idx < n; idx++ {
		// Decode idx into one immediate combination (mixed-radix for the
		// exhaustive walk, pseudo-random for sampling).
		imms := map[int]int32{}
		rem := idx
		if !exhaustive {
			rem = rng.Uint64()
		}
		for i, pn := range immPs {
			size := uint64(domains[i][1]-domains[i][0]) + 1
			imms[pn] = int32(domains[i][0] + uint32(rem%size))
			rem /= size
		}
		for trial := 0; trial < trials; trial++ {
			as := &symexec.Assignment{Vals: map[string]uint32{}, Seed: rng.Uint64()}
			for _, pn := range immPs {
				as.Vals[immSymName(pn)] = uint32(imms[pn])
			}
			for _, s := range machineSyms {
				as.Vals[s] = sweepValue(rng, trial)
			}
			bs := &symexec.Assignment{Vals: as.Vals, Seed: as.Seed}
			if err := as.Materialize(p.gStores); err != nil {
				return decision{reason: "sweep: " + err.Error(), swept: d.swept}
			}
			if err := bs.Materialize(p.hStores); err != nil {
				return decision{reason: "sweep: " + err.Error(), swept: d.swept}
			}
			vg, errg := as.Eval(ng)
			vh, errh := bs.Eval(nh)
			if errg != nil || errh != nil {
				return decision{reason: "sweep: evaluation failed", swept: d.swept}
			}
			d.swept++
			if vg != vh {
				vals := map[string]uint32{}
				for k, v := range as.Vals {
					vals[k] = v
				}
				d.witness = &Witness{
					Imms: imms, Vals: vals, Seed: as.Seed,
					Check: p.name, Guest: vg, Host: vh,
				}
				return d
			}
		}
	}
	if exhaustive {
		d.proved = true
		d.proof = ProofSweep
		return d
	}
	d.reason = fmt.Sprintf("immediate domain too large (%d points); sampled %d without divergence", points, sweepSample)
	return d
}

// sweepValue mirrors symexec's boundary-biased concrete vectors.
func sweepValue(rng *rand.Rand, trial int) uint32 {
	boundary := []uint32{0, 1, 2, 0x7fffffff, 0x80000000, 0xffffffff, 31, 32, 0xff, 0x100}
	if trial < 3 || rng.Intn(4) == 0 {
		return boundary[rng.Intn(len(boundary))]
	}
	return rng.Uint32()
}

func union(a, b []string) []string {
	seen := map[string]bool{}
	for _, s := range a {
		seen[s] = true
	}
	for _, s := range b {
		if !seen[s] {
			a = append(a, s)
			seen[s] = true
		}
	}
	return a
}

// confirmWitness replays the witness instantiation through symexec. The
// primary confirmation concretizes the rule at the witness immediates
// and runs the full CheckEquiv (CheckEquivBranch for branch tails); if
// the divergence lives in a claimed flag correspondence — informative
// to CheckEquiv — the fallback re-derives the same check pair on the
// concrete states and evaluates both sides under the witness
// assignment.
func confirmWitness(t *rule.Template, w *Witness, p checkPair) {
	immOf := func(pn int) int32 {
		if v, ok := w.Imms[pn]; ok {
			return v
		}
		return placeholderImm(pn)
	}
	gseq, hseq, binds, scratch, err := rule.Concretize(t, immOf)
	if err != nil {
		return
	}
	var res symexec.Result
	if t.BranchTail {
		res = symexec.CheckEquivBranch(gseq, hseq, binds, scratch, t.GCond, t.HCond)
	} else {
		res = symexec.CheckEquiv(gseq, hseq, binds, scratch)
	}
	if !res.Equivalent {
		w.Confirmed = true
		w.ConfirmedBy = "symexec.CheckEquiv: " + res.Reason
		return
	}

	// Flag-claim divergences: CheckEquiv accepts the rule but reports
	// the true correspondence; a mismatch with the template's claim
	// confirms the witness.
	if t.SetsFlags && res.GuestSetsFlags && res.Flags != t.Flags {
		w.Confirmed = true
		w.ConfirmedBy = fmt.Sprintf("symexec flag correspondence %+v contradicts claimed %+v", res.Flags, t.Flags)
		return
	}

	// Last resort: evaluate the concrete counterpart of the diverging
	// pair directly under the witness assignment.
	gs, err := symexec.EvalGuest(gseq)
	if err != nil {
		return
	}
	init := map[host.Reg]*symexec.Expr{}
	for _, b := range binds {
		init[b.Host] = symexec.Sym(fmt.Sprintf("g%d", b.Guest))
	}
	hs, err := symexec.EvalHost(hseq, init)
	if err != nil {
		return
	}
	pairs, perr := buildChecks(t, gs, hs, binds, scratch)
	if perr != "" {
		return
	}
	for _, cp := range pairs {
		if cp.name != p.name {
			continue
		}
		as := &symexec.Assignment{Vals: w.Vals, Seed: w.Seed}
		bs := &symexec.Assignment{Vals: w.Vals, Seed: w.Seed}
		if as.Materialize(cp.gStores) != nil || bs.Materialize(cp.hStores) != nil {
			return
		}
		vg, errg := as.Eval(symexec.Normalize(cp.g))
		vh, errh := bs.Eval(symexec.Normalize(cp.h))
		if errg == nil && errh == nil && vg != vh {
			w.Confirmed = true
			w.ConfirmedBy = "symexec concrete replay of the diverging check"
		}
		return
	}
}

// AuditStore audits every rule in the store under the default (x86)
// host evaluator.
func AuditStore(s *rule.Store) *StoreReport {
	return AuditStoreWith(s, defaultEvaluator{})
}

// AuditStoreWith audits every rule in the store under an explicit host
// evaluator (see AuditRuleWith).
func AuditStoreWith(s *rule.Store, ev HostEvaluator) *StoreReport {
	rep := &StoreReport{Backend: ev.Name(), ByProof: map[Proof]int{}}
	ts := s.All()
	sort.Slice(ts, func(i, j int) bool { return ts[i].Fingerprint() < ts[j].Fingerprint() })
	for _, t := range ts {
		rr := AuditRuleWith(t, ev)
		rep.Total++
		switch rr.Verdict {
		case VerdictSound:
			rep.Sound++
			rep.ByProof[rr.Proof]++
		case VerdictUnsound:
			rep.Unsound++
		default:
			rep.Inconclusive++
		}
		rep.Rules = append(rep.Rules, *rr)
	}
	return rep
}

// UnsoundEntries converts the report's unsound verdicts into quarantine
// entries for rule.Store.ApplyQuarantine, carrying the witness in the
// reason.
func (rep *StoreReport) UnsoundEntries() []rule.QuarantineEntry {
	var out []rule.QuarantineEntry
	for _, rr := range rep.Rules {
		if rr.Verdict != VerdictUnsound {
			continue
		}
		reason := "static-audit: " + rr.Witness.Check
		if len(rr.Witness.Imms) > 0 {
			reason += fmt.Sprintf(" at imms %v", rr.Witness.Imms)
		}
		out = append(out, rule.QuarantineEntry{
			Fingerprint: rr.Fingerprint,
			Rule:        rr.Rule,
			Reason:      reason,
		})
	}
	return out
}

// Gate is the static admission gate for the learn pipeline: it rejects
// a candidate template only on a confirmed-witness unsound verdict, so
// sound and inconclusive rules flow through unchanged (inconclusive
// ones are the shadow machinery's job, not admission's).
func Gate(t *rule.Template) (ok bool, reason string) {
	rr := AuditRule(t)
	if rr.Verdict == VerdictUnsound {
		if obs.On() {
			metGateRejects.Inc()
		}
		return false, fmt.Sprintf("static audit: %s diverges at imms %v", rr.Witness.Check, rr.Witness.Imms)
	}
	return true, ""
}
