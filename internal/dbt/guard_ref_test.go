package dbt

import (
	"fmt"
	"reflect"
	"testing"

	"paramdbt/internal/backend"
	"paramdbt/internal/core"
	"paramdbt/internal/env"
	"paramdbt/internal/guard"
	"paramdbt/internal/guard/faultinject"
	"paramdbt/internal/guest"
	"paramdbt/internal/host"
	"paramdbt/internal/learn"
	"paramdbt/internal/mem"
	"paramdbt/internal/minic"
	"paramdbt/internal/obs"
	"paramdbt/internal/rule"
	"paramdbt/internal/workload"
)

// This file keeps the shadow checker the engine shipped before the
// journal-based one (guard.go) as a test-only oracle, the way
// internal/host keeps its per-instruction loop in ref_test.go: clone
// the whole image before the block, let the translation run on live
// memory, replay the reference interpreter on a second clone, diff the
// two images page by page, restore from the reference image on a
// divergence. refShadowCheck is that body verbatim; runRef is the
// smallest dispatch loop that can carry it — Run without chaining,
// superblocks, speculation or the SMC machinery, none of which decides
// which block executes next or how often. The differential tests below
// run one engine through Run and one through runRef over the same
// program, rules and faults and require the same verdicts, records,
// quarantine set, recovered state and counts.

// refShadowCtx is the pre-block snapshot the old checker took.
type refShadowCtx struct {
	preMem *mem.Memory // pristine pre-block memory (guest + CPUState)
	pre    guest.State // pre-block registers/flags
	exec   uint64      // 1-based execution ordinal of the block
}

func refBeginShadow(e *Engine, exec uint64) *refShadowCtx {
	sc := &refShadowCtx{preMem: e.Mem.Clone(), exec: exec}
	readGuestState(e.Mem, &sc.pre)
	sc.pre.Mem = nil
	return sc
}

func refShadowCheck(e *Engine, tb *tblock, sc *refShadowCtx, pc, gotNext uint32) (uint32, bool) {
	e.met.shadowChecks.Inc()
	refMem := sc.preMem.Clone()
	ref := sc.pre.WithMem(refMem)
	refNext, err := guard.RunReference(ref, pc, tb.segs[0].insts, HaltPC)
	if err != nil {
		return gotNext, false
	}
	got := e.GuestState()
	mm := guard.CompareStates(ref, got, tb.flagsExact)
	if refNext != gotNext {
		mm = append(mm, guard.Mismatch{Kind: guard.MismatchNextPC, Want: refNext, Got: gotNext})
	}
	mm = append(mm, guard.CompareMemory(refMem, e.Mem, env.StateBase, 4)...)
	if len(mm) == 0 {
		return gotNext, false
	}

	e.met.divergences.Inc()
	if e.Cfg.Trace != nil {
		e.Cfg.Trace.Record(obs.EvDiverge, pc)
	}
	guilty := tb.rules
	if len(tb.rules) > 0 {
		guilty = nil
		for _, t := range tb.rules {
			if e.trialExcluding(sc.preMem, pc, ref, refNext, t) {
				guilty = append(guilty, t)
			}
		}
		if len(guilty) == 0 {
			guilty = tb.rules
		}
	}
	var blamed []string
	for _, t := range guilty {
		blamed = append(blamed, t.Fingerprint())
		if e.Cfg.Rules.Quarantine(t, fmt.Sprintf("shadow divergence at pc=%#x", pc)) {
			e.met.quarantined.Inc()
		}
	}
	if len(e.guard.divergences) < maxDivergenceLog {
		e.guard.divergences = append(e.guard.divergences, guard.Divergence{
			PC: pc, Exec: sc.exec, Backend: e.tr.be.Name(), Mismatches: mm, Blamed: blamed,
		})
	}
	e.Mem.RestoreBelow(refMem, env.StateBase)
	writeGuestState(e.Mem, ref)
	e.purgeRules(guilty)
	return refNext, true
}

// runRef drives e from entry to HLT around the old checker.
func runRef(e *Engine, entry uint32, maxHostSteps uint64) (Stats, error) {
	base := e.met.base()
	pc := entry
	for pc != HaltPC {
		e.met.dispatches.Inc()
		tb, terr := e.block(pc, false)
		if terr != nil {
			next, n, ferr := e.interpBlock(pc, "interpreter fallback")
			if ferr != nil {
				return e.met.delta(base), fmt.Errorf("translating block at %#x: %w", pc, terr)
			}
			e.met.interpFallbacks.Inc()
			e.met.guestInsts.Add(n)
			pc = next
			continue
		}
		tb.execs++
		var sc *refShadowCtx
		if e.guard.sampler.Select(tb.execs) {
			sc = refBeginShadow(e, tb.execs)
		}
		res, xerr := e.CPU.Exec(tb.hb, maxHostSteps)
		if xerr != nil {
			return e.met.delta(base), fmt.Errorf("executing block at %#x: %w", pc, xerr)
		}
		e.met.guestInsts.Add(tb.segs[0].nGuest)
		e.met.ruleCovered.Add(tb.segs[0].nCovered)
		e.met.seqRuleInsts.Add(tb.segs[0].nSeq)
		if sc != nil {
			next, diverged := refShadowCheck(e, tb, sc, pc, res.NextPC)
			if diverged {
				e.guardEvent()
				pc = next
				continue
			}
			e.guardClean()
		}
		pc = res.NextPC
	}
	e.Mem.Write32(env.StateBase+uint32(env.OffReg(int(guest.PC))), pc)
	return e.met.delta(base), nil
}

// twinOutcome is everything the two checkers must agree on.
type twinOutcome struct {
	stats Stats
	divs  []guard.Divergence
	quar  []string
	st    *guest.State
}

// runTwinEngines runs the program once under Run and once under runRef,
// each over its own memory, store and injector from mk, and fails on
// any difference in what the issue names: divergence records,
// quarantine set, post-run registers and memory below StateBase, R0,
// GuestExec and the check counts.
func runTwinEngines(t *testing.T, label string, c *minic.Compiled, mk func() Config) (product, oracle twinOutcome) {
	t.Helper()
	run := func(ref bool) twinOutcome {
		cfg := mk()
		// runRef translates every block at its first execution.
		cfg.TranslateFirst = true
		e := startEngine(t, c, cfg)
		var st Stats
		var err error
		if ref {
			st, err = runRef(e, env.CodeBase, 1<<40)
		} else {
			st, err = e.Run(env.CodeBase, 1<<40)
		}
		if err != nil {
			t.Fatalf("%s (oracle=%v): %v", label, ref, err)
		}
		out := twinOutcome{stats: st, divs: e.Divergences(), st: e.GuestState()}
		if cfg.Rules != nil {
			for _, q := range cfg.Rules.Quarantined() {
				out.quar = append(out.quar, q.Fingerprint)
			}
		}
		return out
	}
	product, oracle = run(false), run(true)
	p, o := product.stats, oracle.stats
	if p.ShadowChecks != o.ShadowChecks || p.Divergences != o.Divergences ||
		p.QuarantinedRules != o.QuarantinedRules || p.GuestExec != o.GuestExec ||
		p.Blocks != o.Blocks || p.Translations != o.Translations ||
		p.InterpFallbacks != o.InterpFallbacks || p.PanicsRecovered != o.PanicsRecovered ||
		p.RateSnaps != o.RateSnaps {
		t.Fatalf("%s: stats differ\n journal: %+v\n clone:   %+v", label, p, o)
	}
	if !reflect.DeepEqual(product.divs, oracle.divs) {
		t.Fatalf("%s: divergence records differ\n journal: %v\n clone:   %v", label, product.divs, oracle.divs)
	}
	if !reflect.DeepEqual(product.quar, oracle.quar) {
		t.Fatalf("%s: quarantine sets differ\n journal: %v\n clone:   %v", label, product.quar, oracle.quar)
	}
	ps, cs := product.st, oracle.st
	if ps.R != cs.R || ps.F != cs.F || ps.Flags != cs.Flags {
		t.Fatalf("%s: final registers differ\n journal: %s clone:   %s", label, ps.Snapshot(), cs.Snapshot())
	}
	if d := ps.Mem.DiffBelow(cs.Mem, env.StateBase, 1); len(d) > 0 {
		t.Fatalf("%s: memory differs at %#x: journal %#x, clone %#x", label, d[0], ps.Mem.Read32(d[0]), cs.Mem.Read32(d[0]))
	}
	return product, oracle
}

// TestShadowMatchesCloneCheckerOnProfiles: the twelve profile programs
// on both backends at shadow rate 1, the product side in its default
// configuration (chaining and write tracking on): no divergence under
// either checker and the same number of checks.
func TestShadowMatchesCloneCheckerOnProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole workload suite four times")
	}
	train := rule.NewStore()
	var compiled []*minic.Compiled
	for _, b := range workload.All(1) {
		c := compileT(t, b.Prog)
		compiled = append(compiled, c)
		learn.FromCompiled(c, train)
	}
	for _, be := range []string{"x86", "risc"} {
		// One store per backend: New rekeys the store it is given.
		par, _ := core.Parameterize(train, core.Config{Opcode: true, AddrMode: true})
		for i, b := range workload.All(1) {
			label := be + "/" + b.Name
			p, _ := runTwinEngines(t, label, compiled[i], func() Config {
				return Config{Rules: par, DelegateFlags: true, ShadowRate: 1, Backend: backend.MustLookup(be)}
			})
			if p.stats.ShadowChecks == 0 || p.stats.Divergences != 0 {
				t.Fatalf("%s: %d checks, %d divergences", label, p.stats.ShadowChecks, p.stats.Divergences)
			}
			want, err := compiled[i].RunInterp(1 << 40)
			if err != nil {
				t.Fatal(err)
			}
			if p.st.R[guest.R0] != want.R[guest.R0] || p.stats.GuestExec != want.InstCount {
				t.Fatalf("%s: r0 %#x after %d insts, interpreter %#x after %d", label,
					p.st.R[guest.R0], p.stats.GuestExec, want.R[guest.R0], want.InstCount)
			}
		}
	}
}

// usedTemplates runs the program once faultlessly, translating every
// block as the twins do, and returns the rule templates the run used
// (fingerprint order) with the engine, whose cache says which blocks
// used them.
func usedTemplates(t *testing.T, c *minic.Compiled, par *rule.Store) (*Engine, []*rule.Template) {
	t.Helper()
	warm := startEngine(t, c, Config{Rules: par, DelegateFlags: true, TranslateFirst: true})
	if _, err := warm.Run(env.CodeBase, 100_000_000); err != nil {
		t.Fatal(err)
	}
	return warm, warm.CachedRuleTemplates()
}

// firstRegParam returns the index of t's first register parameter.
func firstRegParam(t *rule.Template) (int, bool) {
	for p, k := range t.Params {
		if k == rule.PReg {
			return p, true
		}
	}
	return 0, false
}

// corruptSpuriousStore makes a rule used by a block without guest
// stores (tblock.hasStores false) store one of its registers through
// itself — a guest store the guest program never makes.
func corruptSpuriousStore(t *testing.T, c *minic.Compiled, par *rule.Store) *rule.Template {
	t.Helper()
	warm, used := usedTemplates(t, c, par)
	storeFree := map[*rule.Template]bool{}
	for _, tb := range warm.cache {
		if tb.hasStores {
			continue
		}
		for _, r := range tb.rules {
			storeFree[r] = true
		}
	}
	for _, tm := range used {
		p, ok := firstRegParam(tm)
		if !ok || !storeFree[tm] || tm.BranchTail {
			continue
		}
		tm.Host = append(tm.Host, rule.HPat{Op: host.MOVL, Dst: rule.MemArg(p, 0), Src: rule.RegArg(p)})
		return tm
	}
	t.Fatal("no rule with a register parameter in a store-free block")
	return nil
}

// corruptStoredValue makes a rule that stores a register store a
// constant instead: the right address, the wrong value.
func corruptStoredValue(t *testing.T, c *minic.Compiled, par *rule.Store) *rule.Template {
	t.Helper()
	_, used := usedTemplates(t, c, par)
	for _, tm := range used {
		for i, h := range tm.Host {
			if h.Op == host.MOVL && h.Dst.Kind == guest.KindMem && h.Src.Kind == guest.KindReg {
				tm.Host[i].Src = rule.FixedImmArg(0x5a)
				return tm
			}
		}
	}
	t.Fatal("no executed rule stores a register")
	return nil
}

// TestShadowMatchesCloneCheckerUnderFaults: every fault plan the suite
// uses and a corrupted-rule matrix, at a fixed and an adaptive rate,
// chaining off on the product side so both loops dispatch every block
// entry alike.
func TestShadowMatchesCloneCheckerUnderFaults(t *testing.T) {
	canned, err := faultinject.LoadPlan("testdata/faultplan.json")
	if err != nil {
		t.Fatal(err)
	}
	corruptions := []struct {
		name    string
		corrupt func(*testing.T, *minic.Compiled, *rule.Store) *rule.Template
		// wantMem: some divergence must carry a memory mismatch.
		wantMem bool
	}{
		{"none", nil, false},
		{"add-to-sub", corruptUsedAddRule, false},
		{"spurious-store", corruptSpuriousStore, true},
		{"wrong-stored-value", corruptStoredValue, true},
	}
	plans := []struct {
		name string
		plan *faultinject.Plan
	}{
		{"noplan", nil},
		{"canned", &canned},
		{"panics", &faultinject.Plan{TranslatePanics: 3}},
		{"decode-errors", &faultinject.Plan{DecodeErrors: 5, DecodeEvery: 3}},
	}
	c := compileT(t, testProgram())
	want := interpret(t, c)
	for _, halfLife := range []uint64{0, 8} {
		for _, cor := range corruptions {
			for _, pl := range plans {
				label := fmt.Sprintf("%s/%s/adaptive=%v", cor.name, pl.name, halfLife > 0)
				var bad []*rule.Template
				p, _ := runTwinEngines(t, label, c, func() Config {
					_, par := learnRules(t, testProgram(), core.Config{Opcode: true, AddrMode: true})
					if cor.corrupt != nil {
						bad = append(bad, cor.corrupt(t, c, par))
					}
					cfg := Config{
						Rules: par, DelegateFlags: true, NoChain: true,
						ShadowRate: 1, ShadowHalfLife: halfLife, ShadowSeed: 3,
					}
					if pl.plan != nil {
						cfg.Faults = faultinject.New(*pl.plan)
					}
					return cfg
				})
				sameResult(t, want, p.st, label)
				if cor.corrupt == nil {
					if p.stats.Divergences != 0 {
						t.Fatalf("%s: %d divergences without a corrupted rule", label, p.stats.Divergences)
					}
					continue
				}
				if bad[0].Fingerprint() != bad[1].Fingerprint() {
					t.Fatalf("%s: the two sides corrupted different rules", label)
				}
				if p.stats.Divergences == 0 || len(p.quar) == 0 {
					t.Fatalf("%s: corrupted rule went unnoticed: %+v", label, p.stats)
				}
				hasMem := false
				for _, d := range p.divs {
					for _, m := range d.Mismatches {
						hasMem = hasMem || m.Kind == guard.MismatchMem
					}
				}
				if cor.wantMem && !hasMem {
					t.Fatalf("%s: no memory mismatch recorded: %v", label, p.divs)
				}
			}
		}
	}
}
