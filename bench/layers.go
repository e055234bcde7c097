package main

import (
	"runtime"
	"time"

	"paramdbt/internal/backend"
	"paramdbt/internal/dbt"
	"paramdbt/internal/env"
	"paramdbt/internal/guest"
	"paramdbt/internal/host"
	"paramdbt/internal/mem"
	"paramdbt/internal/obs"
	"paramdbt/internal/rule"
	"paramdbt/internal/tcg"
)

// arm is one configuration of the traced run. All arms of a workload run
// the same programs, one pass each per round, so that drift on the box
// hits them alike. Arm 0 is always the product config with obs off (the
// untraced side of the overhead comparison) and arm 1 the product config
// with obs on and bench spans recorded.
type arm struct {
	name   string
	obsOn  bool
	spans  bool
	pass   func(tr *tracer, opBase int, window time.Time) []opResult
	ops    []opResult
	groups []group // one per pass
}

// summary is the arm's timed metrics as the untraced run defines them:
// medians over passes.
func (a *arm) summary() map[string]float64 { return summarize(a.groups) }

func engineArm(fx *fixture, name string, mutate func(*program) dbt.Config) *arm {
	return &arm{name: name, pass: func(tr *tracer, opBase int, window time.Time) []opResult {
		return enginePass(fx, mutate, tr, opBase, window)
	}}
}

func serveArm(fx *fixture, name string, sf *serveFixture) *arm {
	return &arm{name: name, pass: func(tr *tracer, opBase int, window time.Time) []opResult {
		return servePass(fx, sf, 1, time.Time{}, tr, opBase, window)
	}}
}

func buildArms(fx *fixture) []*arm {
	var arms []*arm
	if fx.workload == "serve" {
		arms = []*arm{serveArm(fx, "product", fx.serve), serveArm(fx, "traced", fx.serve), serveArm(fx, "noshadow", fx.noShadow)}
	} else {
		arms = []*arm{engineArm(fx, "product", productCfg), engineArm(fx, "traced", productCfg)}
	}
	arms[1].obsOn, arms[1].spans = true, true
	with := func(f func(*dbt.Config)) func(*program) dbt.Config {
		return func(p *program) dbt.Config { c := p.cfg; f(&c); return c }
	}
	onRisc := func(peephole bool) func(*program) dbt.Config {
		return func(p *program) dbt.Config {
			return dbt.Config{Rules: fx.riscRules[p.name], DelegateFlags: true, Backend: risc, Peephole: peephole}
		}
	}
	switch fx.workload {
	case "steady":
		arms = append(arms,
			engineArm(fx, "tcg", func(*program) dbt.Config { return dbt.Config{Backend: x86} }),
			engineArm(fx, "nochain", with(func(c *dbt.Config) { c.NoChain = true })),
			engineArm(fx, "superblock", with(func(c *dbt.Config) { c.HotThreshold, c.TraceBudget, c.SyncTraces = 4, 12, true })),
			engineArm(fx, "workers4", with(func(c *dbt.Config) { c.TranslateWorkers = 4 })),
			engineArm(fx, "risc", onRisc(false)),
			engineArm(fx, "risc-peephole", onRisc(true)),
		)
	case "validate":
		// The differential for analysis.validate_peephole_us_per_block
		// needs dbt.translate_ns, which the engine records only with obs on.
		a := engineArm(fx, "risc-nopeephole", with(func(c *dbt.Config) { c.Peephole = false }))
		a.obsOn = true
		arms = append(arms, a)
	}
	return arms
}

func armByName(arms []*arm, name string) *arm {
	for _, a := range arms {
		if a.name == name {
			return a
		}
	}
	return &arm{}
}

// ruleCounts is a snapshot of the retrieval telemetry on obs.Default.
type ruleCounts struct{ lookups, hits, memo, attempts, inst uint64 }

func readRuleCounts() ruleCounts {
	c := func(n string) uint64 { return obs.Default.Counter(n).Value() }
	return ruleCounts{c(rule.MetLookups), c(rule.MetLookupHits), c(rule.MetMissMemoHits), c(rule.MetMatchAttempts), c(rule.MetInstantiations)}
}

func (a ruleCounts) sub(b ruleCounts) ruleCounts {
	return ruleCounts{a.lookups - b.lookups, a.hits - b.hits, a.memo - b.memo, a.attempts - b.attempts, a.inst - b.inst}
}

func (a ruleCounts) add(b ruleCounts) ruleCounts {
	return ruleCounts{a.lookups + b.lookups, a.hits + b.hits, a.memo + b.memo, a.attempts + b.attempts, a.inst + b.inst}
}

// tracedRun is everything the traced run observed before it is boiled
// down to the per-layer metrics.
type tracedRun struct {
	fx     *fixture
	tr     *tracer
	arms   []*arm
	rules  ruleCounts       // obs.Default deltas over the traced arm's passes
	ms     runtime.MemStats // deltas over the product arm's passes
	svc    dbt.ServiceStats // serve: deltas over all rounds
	drives map[string]float64
	perBlk struct{ insts, uncovered float64 } // means over the entered blocks
	failed int
	ops    int
	batch  time.Duration // least duration of one direct-drive batch
}

// runTraced is the per-layer run: one traced set-up, interleaved arms,
// then the direct drives.
func runTraced(name string, seed int64, b budget, sz sizing) (*tracedRun, error) {
	tr := newTracer()
	fx, err := setup(name, seed, sz, setupOpts{traced: true}, tr)
	if err != nil {
		return nil, err
	}
	defer fx.close()
	pcs, mems, failed := warmup(fx, true)
	run := &tracedRun{fx: fx, tr: tr, arms: buildArms(fx), failed: failed, ops: len(fx.progs), batch: sz.driveBatch}

	var svc0 dbt.ServiceStats
	if fx.serve != nil {
		svc0 = fx.serve.srv.Stats()
	}
	// Never fewer than armPasses rounds: a median over fewer passes is not
	// worth reporting.
	b.loop(sz.armPasses, run.round)
	if fx.serve != nil {
		s := fx.serve.srv.Stats()
		run.svc = dbt.ServiceStats{Requests: s.Requests - svc0.Requests, CacheHits: s.CacheHits - svc0.CacheHits,
			DedupHits: s.DedupHits - svc0.DedupHits, Overloads: s.Overloads - svc0.Overloads,
			Translations: s.Translations, SpecTranslations: s.SpecTranslations, MaxQueueDepth: s.MaxQueueDepth}
	}
	for _, a := range run.arms {
		run.failed += countFailed(a.ops)
		run.ops += len(a.ops)
	}
	run.direct(pcs, mems)
	return run, nil
}

// round runs one pass of every arm.
func (run *tracedRun) round(int) {
	for _, a := range run.arms {
		var tr *tracer
		var m0, m1 runtime.MemStats
		var r0 ruleCounts
		if a.spans {
			tr, r0 = run.tr, readRuleCounts()
		}
		product := a == run.arms[0]
		if product {
			runtime.ReadMemStats(&m0)
		}
		obs.SetEnabled(a.obsOn)
		rs := a.pass(tr, len(a.ops), time.Now())
		obs.SetEnabled(false)
		if product {
			runtime.ReadMemStats(&m1)
			run.ms.TotalAlloc += m1.TotalAlloc - m0.TotalAlloc
			run.ms.Mallocs += m1.Mallocs - m0.Mallocs
			run.ms.NumGC += m1.NumGC - m0.NumGC
			run.ms.PauseTotalNs += m1.PauseTotalNs - m0.PauseTotalNs
		}
		if a.spans {
			run.rules = run.rules.add(readRuleCounts().sub(r0))
		}
		a.ops = append(a.ops, rs...)
		a.groups = append(a.groups, passGroup(rs))
	}
}

// ---- direct drives ----

// drive calls f (which performs `units` operations) in three batches of
// at least run.batch and returns the median batch's nanoseconds per
// operation.
func (run *tracedRun) drive(units int, f func()) float64 {
	if units == 0 {
		return 0
	}
	var per []float64
	for batch := 0; batch < 3; batch++ {
		t0 := time.Now()
		n := 0
		for time.Since(t0) < run.batch {
			f()
			n++
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n*units))
	}
	return median(per)
}

type block struct {
	pc    uint32
	insts []guest.Inst
}

// decodeBlock mirrors the engine's block fetch: decode up to and
// including the first branch or pop {.., pc}.
func decodeBlock(m *mem.Memory, pc uint32) (block, bool) {
	b := block{pc: pc}
	for len(b.insts) < 512 {
		in, err := guest.Decode(m.Read32(pc + uint32(len(b.insts)*guest.InstBytes)))
		if err != nil {
			return b, false
		}
		b.insts = append(b.insts, in)
		if in.IsBranch() || in.Op == guest.POP && in.Ops[0].List&(1<<uint(guest.PC)) != 0 {
			return b, true
		}
	}
	return b, false
}

// hit is one matching window with the register assignment the
// instantiate drive hands the template.
type hit struct {
	t       *rule.Template
	b       rule.Binding
	regs    [guest.NumRegs]host.Reg
	have    [guest.NumRegs]bool
	scratch []host.Reg
	be      backend.Backend
}

// progDrive is one program's share of the drives' inputs.
type progDrive struct {
	store  *rule.Store
	be     backend.Backend
	blocks []block
}

// sink keeps the drives' results live.
var sink uint32

var drivePool = []host.Reg{host.EAX, host.ECX, host.EDX, host.EBX, host.ESI, host.EDI}

func slotOperand(r guest.Reg) host.Operand { return host.Mem(host.EBP, env.OffReg(int(r))) }

// direct drives each layer's public entry point over the workload's own
// images and the blocks its warm-up pass entered. obs is off.
func (run *tracedRun) direct(pcs map[string][]uint32, mems map[string]*mem.Memory) {
	d := map[string]float64{}
	run.drives = d

	// guest: Decode over every code word of every image.
	var words []uint32
	for _, p := range run.fx.progs {
		m := mems[p.name]
		for i := range p.comp.GuestInsts {
			words = append(words, m.Read32(env.CodeBase+uint32(i*guest.InstBytes)))
		}
	}
	d["guest.decode_ns_per_inst"] = run.drive(len(words), func() {
		for _, w := range words {
			in, _ := guest.Decode(w)
			sink += uint32(in.Op)
		}
	})

	// The entered blocks, per program.
	var progs []progDrive
	nBlocks, nInsts := 0, 0
	for _, p := range run.fx.progs {
		pd := progDrive{store: p.cfg.Rules, be: p.cfg.Backend}
		for _, pc := range pcs[p.name] {
			if b, ok := decodeBlock(mems[p.name], pc); ok {
				pd.blocks = append(pd.blocks, b)
				nInsts += len(b.insts)
			}
		}
		nBlocks += len(pd.blocks)
		progs = append(progs, pd)
	}

	// rule: LookupInto at every window start; the untimed first sweep
	// collects the hits and the instructions no rule covers.
	var hits []hit
	type loose struct {
		in guest.Inst
		pc uint32
		be backend.Backend
	}
	var uncovered []loose
	windows := 0
	var miss rule.MissSet
	var bind rule.Binding
	for _, pd := range progs {
		for _, b := range pd.blocks {
			miss.Reset()
			for i := 0; i < len(b.insts)-1; i++ {
				var t *rule.Template
				if b.insts[i].Cond == guest.AL && pd.store != nil {
					windows++
					t, _ = pd.store.LookupInto(b.insts[i:], &miss, nil, &bind)
				}
				if t == nil {
					uncovered = append(uncovered, loose{b.insts[i], b.pc + uint32(i*guest.InstBytes), pd.be})
					continue
				}
				if h, ok := assign(t, bind, pd.be); ok {
					hits = append(hits, h)
				}
			}
		}
	}
	d["rule.lookup_ns_per_window"] = run.drive(windows, func() {
		for _, pd := range progs {
			for _, b := range pd.blocks {
				miss.Reset()
				for i := 0; i < len(b.insts)-1; i++ {
					if b.insts[i].Cond != guest.AL || pd.store == nil {
						continue
					}
					pd.store.LookupInto(b.insts[i:], &miss, nil, &bind)
				}
			}
		}
	})
	d["rule.instantiate_ns_per_hit"] = run.drive(len(hits), func() {
		for i := range hits {
			h := &hits[i]
			out, _ := rule.InstantiateChecked(h.t, h.b, func(r guest.Reg) (host.Reg, bool) { return h.regs[r], h.have[r] }, h.scratch, h.be.CheckRuleInst)
			sink += uint32(len(out))
		}
	})

	// tcg: NewGen + Translate + Lower over the uncovered instructions.
	lower := func(a *host.Asm, in guest.Inst, pc uint32, be backend.Backend) bool {
		g := tcg.NewGen(a.NewLabel)
		if g.Translate(in, pc) != nil {
			return false
		}
		return be.Lower(a, g, slotOperand, be.TempPool()) == nil
	}
	d["tcg.translate_lower_ns_per_inst"] = run.drive(len(uncovered), func() {
		for _, u := range uncovered {
			a := host.NewAsm()
			lower(a, u.in, u.pc, u.be)
			sink += uint32(a.Len())
		}
	})

	// backend: Finalize over one bench-built TCG stream per block.
	type stream struct {
		a  *host.Asm
		be backend.Backend
	}
	var streams []stream
	hostInsts := 0
	for _, pd := range progs {
		for _, b := range pd.blocks {
			a := host.NewAsm()
			for i, in := range b.insts[:len(b.insts)-1] {
				lower(a, in, b.pc+uint32(i*guest.InstBytes), pd.be)
			}
			a.Emit(host.Exit(host.Imm(int32(b.pc))))
			if hb, err := pd.be.Finalize(a); err == nil {
				streams = append(streams, stream{a, pd.be})
				hostInsts += len(hb.Insts)
			}
		}
	}
	d["backend.finalize_ns_per_block"] = run.drive(len(streams), func() {
		for _, s := range streams {
			hb, _ := s.be.Finalize(s.a)
			sink += uint32(len(hb.Insts))
		}
	})
	if len(streams) > 0 {
		d["backend.host_insts_per_block"] = float64(hostInsts) / float64(len(streams))
	}
	if nBlocks > 0 {
		run.perBlk.insts = float64(nInsts) / float64(nBlocks)
		run.perBlk.uncovered = float64(len(uncovered)) / float64(nBlocks)
	}

	// host: CPU.Exec on a fixed loop of ALU ops with memory operands.
	a := host.NewAsm()
	top := a.NewLabel()
	a.Emit(host.I(host.MOVL, host.R(host.ECX), host.Imm(20000)))
	a.Bind(top)
	a.Emit(host.I(host.ADDL, host.R(host.EAX), host.Mem(host.EBP, 0)))
	a.Emit(host.I(host.MOVL, host.Mem(host.EBP, 4), host.R(host.EAX)))
	a.Emit(host.I(host.XORL, host.R(host.EAX), host.R(host.ECX)))
	a.Emit(host.I(host.SUBL, host.R(host.ECX), host.Imm(1)))
	a.Emit(host.Jcc(host.NE, top))
	a.Emit(host.Exit(host.Imm(0)))
	loop := a.Block()
	cpu := host.NewCPU(mem.New())
	cpu.R[host.EBP] = env.StateBase
	cpu.Exec(loop, 1<<40)
	d["host.microloop_ns_per_inst"] = run.drive(int(cpu.Total()), func() { cpu.Exec(loop, 1<<40) })

	// mem: loads over the code words, stores over the data segment with
	// and without write tracking, snapshot/restore of a post-run image.
	p0 := run.fx.progs[0]
	img := mems[p0.name]
	nCode := len(p0.comp.GuestInsts)
	d["mem.read32_ns"] = run.drive(nCode, func() {
		for i := 0; i < nCode; i++ {
			sink += img.Read32(env.CodeBase + uint32(i*4))
		}
	})
	const nStores = 4096
	stores := func(m *mem.Memory) func() {
		return func() {
			for i := uint32(0); i < nStores; i++ {
				m.Write32(env.DataBase+i*4, i)
			}
		}
	}
	plain := mem.New()
	d["mem.write32_ns"] = run.drive(nStores, stores(plain))
	tracked := mem.New()
	tracked.EnableWriteTracking()
	tracked.TrackRange(env.CodeBase, env.CodeBase+uint32(nCode*4))
	d["mem.write32_tracked_ns"] = run.drive(nStores, stores(tracked))
	var clone *mem.Memory
	pages := 0
	for _, p := range run.fx.progs {
		pages += mems[p.name].PageCount()
	}
	d["mem.pages_per_image"] = float64(pages) / float64(len(run.fx.progs))
	d["mem.clone_below_us"] = run.drive(len(run.fx.progs), func() {
		for _, p := range run.fx.progs {
			clone = mems[p.name].CloneBelow(env.StateBase)
		}
	}) / 1e3
	d["mem.restore_below_us"] = run.drive(1, func() { img.RestoreBelow(clone, env.StateBase) }) / 1e3
}

// assign gives every guest register the template binds a distinct host
// register and the template its scratch registers, the way the engine's
// staging does; windows that need more registers than the host has are
// left out of the instantiate drive.
func assign(t *rule.Template, b rule.Binding, be backend.Backend) (hit, bool) {
	h := hit{t: t, be: be, b: rule.Binding{Regs: append([]guest.Reg(nil), b.Regs...), Imms: append([]int32(nil), b.Imms...)}}
	next := 0
	for p, k := range t.Params {
		if k != rule.PReg || h.have[b.Regs[p]] {
			continue
		}
		if next == len(drivePool) {
			return h, false
		}
		h.regs[b.Regs[p]], h.have[b.Regs[p]] = drivePool[next], true
		next++
	}
	if next+t.NScratch > len(drivePool) {
		return h, false
	}
	h.scratch = drivePool[next : next+t.NScratch]
	return h, true
}

// ---- boiling the run down to the catalogue ----

func sumOps(rs []opResult, f func(opResult) float64) float64 {
	s := 0.0
	for _, r := range rs {
		s += f(r)
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metrics computes every per-layer metric. A metric the workload does
// not exercise reads 0.
func (run *tracedRun) metrics() map[string]float64 {
	m := map[string]float64{}
	for k, v := range run.drives {
		m[k] = v
	}
	tot := run.tr.totals()
	spanS := func(name string) float64 { return float64(tot[name].TotalNs) / 1e9 }
	spanMean := func(name string) float64 { return ratio(float64(tot[name].TotalNs), float64(tot[name].Count)) }
	P, T := run.arms[0], run.arms[1]
	nT := float64(len(T.ops))

	m["minic.compile_s"] = spanS("minic.compile")
	m["learn.from_compiled_s"] = spanS("learn.from_compiled")
	m["core.parameterize_ms"] = spanS("core.parameterize") * 1e3
	m["core.rules_parameterized"] = float64(run.fx.rules)
	m["workload.generate_compile_ms"] = spanS("workload.generate_compile") * 1e3
	var interp uint64
	for _, p := range run.fx.progs {
		interp += p.wantInsts
	}
	m["guest.interp_mips"] = ratio(float64(interp)*1e3, float64(tot["guest.run_interp"].TotalNs))

	var guestExec, covered, wallNs, runNs, hostInsts, translations, blocks, txNs, txN, lookNs, lookN, chainNs, chainN,
		validated, fallbacks, dispatches, chained, shadow float64
	for _, r := range T.ops {
		guestExec += float64(r.stats.GuestExec)
		covered += float64(r.stats.RuleCovered)
		wallNs += float64(r.wall().Nanoseconds())
		runNs += float64(r.runNs)
		hostInsts += float64(r.hostInsts)
		translations += float64(r.stats.Translations)
		blocks += float64(r.stats.Blocks)
		txNs, txN = txNs+float64(r.translate.sumNs), txN+float64(r.translate.count)
		lookNs, lookN = lookNs+float64(r.lookup.sumNs), lookN+float64(r.lookup.count)
		chainNs, chainN = chainNs+float64(r.chain.sumNs), chainN+float64(r.chain.count)
		validated += float64(r.stats.BlocksValidated)
		fallbacks += float64(r.stats.ValidateFallbacks)
		dispatches += float64(r.stats.Dispatches)
		chained += float64(r.stats.ChainedExits)
		shadow += float64(r.stats.ShadowChecks)
	}

	rc := run.rules
	m["rule.lookups_per_op"] = ratio(float64(rc.lookups), nT)
	m["rule.hit_ratio"] = ratio(float64(rc.hits), float64(rc.lookups))
	m["rule.miss_memo_ratio"] = ratio(float64(rc.memo), float64(rc.lookups))
	m["rule.match_attempts_per_lookup"] = ratio(float64(rc.attempts), float64(rc.lookups))
	m["rule.coverage_pct"] = 100 * ratio(covered, guestExec)

	m["analysis.validate_blocks_per_op"] = ratio(validated+fallbacks, nT)
	m["analysis.proved_ratio"] = ratio(validated, validated+fallbacks)
	txUs := ratio(txNs, txN) / 1e3
	if run.fx.workload == "validate" {
		base := armByName(run.arms, "risc-nopeephole")
		baseUs := ratio(sumOps(base.ops, func(r opResult) float64 { return float64(r.translate.sumNs) }),
			sumOps(base.ops, func(r opResult) float64 { return float64(r.translate.count) })) / 1e3
		m["analysis.validate_peephole_us_per_block"] = txUs - baseUs
	}

	m["host.insts_per_guest_inst"] = ratio(hostInsts, guestExec)
	if hostInsts > 0 {
		m["host.exec_ns_per_inst"] = (runNs - txNs) / hostInsts
	}

	m["mem.load_guest_us"] = spanMean("mem.load_guest") / 1e3
	m["dbt.new_us"] = spanMean("dbt.new") / 1e3
	m["dbt.run_ms"] = ratio(runNs, nT) / 1e6
	m["dbt.translate_share_pct"] = 100 * ratio(txNs, wallNs)
	m["dbt.translate_us_per_block"] = txUs
	m["dbt.lookup_ns_mean"] = ratio(lookNs, lookN)
	m["dbt.chain_patch_ns_mean"] = ratio(chainNs, chainN)
	m["dbt.translations_per_op"] = ratio(translations, nT)
	m["dbt.blocks_per_op"] = ratio(blocks, nT)
	m["dbt.dispatches_per_kinst"] = 1e3 * ratio(dispatches, guestExec)
	m["dbt.chain_rate_pct"] = 100 * ratio(chained, dispatches+chained)

	// What the layer estimates explain of the traced ops' wall: each
	// drive's cost per unit times the units the ops consumed, plus the
	// spans and engine histograms that are measured rather than
	// estimated. The rest is what in-program tracing has to find.
	explained := m["guest.decode_ns_per_inst"]*run.perBlk.insts*translations +
		m["rule.lookup_ns_per_window"]*float64(rc.lookups) +
		m["rule.instantiate_ns_per_hit"]*float64(rc.inst) +
		m["tcg.translate_lower_ns_per_inst"]*run.perBlk.uncovered*translations +
		m["backend.finalize_ns_per_block"]*translations +
		m["analysis.validate_peephole_us_per_block"]*1e3*translations +
		m["host.microloop_ns_per_inst"]*hostInsts +
		lookNs + chainNs +
		float64(tot["mem.load_guest"].TotalNs) + float64(tot["dbt.new"].TotalNs)
	if run.fx.workload == "serve" {
		explained += wallNs - runNs // HTTP, JSON and handler time around the tenant run
	}
	m["dbt.unattributed_share_pct"] = 100 * ratio(wallNs-explained, wallNs)

	if run.fx.workload == "steady" {
		for _, a := range run.arms[2:] {
			m["dbt.arm."+a.name+".guest_mips"] = a.summary()["guest_mips"]
		}
		m["dbt.speedup_vs_tcg"] = ratio(P.summary()["guest_mips"], m["dbt.arm.tcg.guest_mips"])
	}

	var divergences float64
	for _, a := range run.arms {
		divergences += sumOps(a.ops, func(r opResult) float64 { return float64(r.stats.Divergences) })
	}
	m["guard.divergences"] = divergences
	m["guard.shadow_checks_per_op"] = ratio(shadow, nT)

	if sf := run.fx.serve; sf != nil {
		reqs := float64(len(P.ops) + len(T.ops))
		s := run.svc
		m["dbt.serve_requests_per_op"] = ratio(float64(s.Requests), reqs)
		m["dbt.serve_cache_hit_ratio"] = ratio(float64(s.CacheHits), float64(s.Requests))
		m["dbt.serve_dedup_ratio"] = ratio(float64(s.DedupHits), float64(s.Requests))
		m["dbt.serve_overloads"] = float64(s.Overloads)
		m["dbt.serve_max_queue_depth"] = float64(s.MaxQueueDepth)
		m["dbt.serve_wait_us_mean"] = sf.srv.Metrics().Histogram(dbt.MetServeWaitNs).Mean() / 1e3
		m["dbt.serve_translations_total"] = float64(s.Translations)
		m["dbt.serve_spec_translations_total"] = float64(s.SpecTranslations)
		last := T.groups[len(T.groups)-1].ops
		m["guard.rate_final_ppm"] = 1e6 * ratio(sumOps(last, func(r opResult) float64 { return r.shadowRate }), float64(len(last)))
		p50 := P.summary()["op_ms_p50"]
		m["guard.shadow_share_pct"] = 100 * ratio(p50-armByName(run.arms, "noshadow").summary()["op_ms_p50"], p50)
		m["serve.new_server_s"] = spanS("serve.new_server")
		over := make([]float64, len(P.ops))
		for i, r := range P.ops {
			over[i] = float64(r.wall().Nanoseconds()-r.runNs) / 1e3
		}
		m["serve.http_overhead_us"] = median(over)
		m["serve.response_kb"] = ratio(sumOps(P.ops, func(r opResult) float64 { return float64(r.bodyBytes) }), float64(len(P.ops))) / 1024
		m["serve.registry_series"] = float64(len(sf.srv.Metrics().Names()))
	}

	m["obs.enabled_overhead_pct"] = 100 * (ratio(T.summary()["op_ms_p50"], P.summary()["op_ms_p50"]) - 1)
	m["bench.span_count"] = float64(run.tr.count())
	nP := float64(len(P.ops))
	m["runtime.alloc_kb_per_op"] = ratio(float64(run.ms.TotalAlloc), nP) / 1024
	m["runtime.mallocs_per_op"] = ratio(float64(run.ms.Mallocs), nP)
	m["runtime.gc_cycles"] = float64(run.ms.NumGC)
	m["runtime.gc_pause_ms"] = float64(run.ms.PauseTotalNs) / 1e6
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["runtime.heap_live_mb"] = float64(ms.HeapAlloc) / (1 << 20)
	return m
}
