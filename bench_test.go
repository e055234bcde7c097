// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation section, plus the ablation benches DESIGN.md calls
// out and micro-benchmarks of the pipeline's hot components. Run with
//
//	go test -bench=. -benchmem
//
// Each paper-level bench regenerates its table/figure end to end and
// reports the headline metric via b.ReportMetric, so the bench output
// doubles as the reproduction record (see EXPERIMENTS.md).
package paramdbt_test

import (
	"sync"
	"testing"
	"time"

	"paramdbt/internal/backend"
	"paramdbt/internal/core"
	"paramdbt/internal/dbt"
	"paramdbt/internal/env"
	"paramdbt/internal/exp"
	"paramdbt/internal/guest"
	"paramdbt/internal/host"
	"paramdbt/internal/mem"
	"paramdbt/internal/obs"
	"paramdbt/internal/rule"
	"paramdbt/internal/tcg"
	"paramdbt/internal/workload"
)

var (
	corpusOnce sync.Once
	corpus     *exp.Corpus
	looOnce    sync.Once
	loo        []exp.ModeResults
)

func getCorpus(b *testing.B) *exp.Corpus {
	b.Helper()
	corpusOnce.Do(func() {
		c, err := exp.BuildCorpus(1)
		if err != nil {
			b.Fatal(err)
		}
		corpus = c
	})
	return corpus
}

func getLOO(b *testing.B) []exp.ModeResults {
	b.Helper()
	c := getCorpus(b)
	looOnce.Do(func() {
		rs, err := exp.LeaveOneOut(c)
		if err != nil {
			b.Fatal(err)
		}
		loo = rs
	})
	return loo
}

// BenchmarkTable1LearningFunnel regenerates Table I: the full
// compile-and-learn pipeline over the 12 benchmarks.
func BenchmarkTable1LearningFunnel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := exp.BuildCorpus(1)
		if err != nil {
			b.Fatal(err)
		}
		rows := exp.Table1(c)
		var stmts, unique int
		for _, r := range rows {
			stmts += r.Statements
			unique += r.Unique
		}
		b.ReportMetric(float64(unique)/float64(stmts)*100, "%unique-of-stmts")
	}
}

// BenchmarkFig2RuleGrowth regenerates the rule-growth curve.
func BenchmarkFig2RuleGrowth(b *testing.B) {
	c := getCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points := exp.Fig2(c, 1)
		b.ReportMetric(float64(points[len(points)-1].Rules), "rules-at-12")
	}
}

// BenchmarkFig11Speedup regenerates the headline speedup figure.
func BenchmarkFig11Speedup(b *testing.B) {
	rs := getLOO(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var overQ, overBase []float64
		for _, r := range rs {
			overQ = append(overQ, exp.Speedup(r.QEMU, r.Flags))
			overBase = append(overBase, exp.Speedup(r.Base, r.Flags))
		}
		b.ReportMetric(exp.Geomean(overQ), "speedup-vs-qemu")
		b.ReportMetric(exp.Geomean(overBase), "speedup-vs-baseline")
	}
}

// BenchmarkFig12Coverage regenerates the coverage figure.
func BenchmarkFig12Coverage(b *testing.B) {
	rs := getLOO(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var base, para []float64
		for _, r := range rs {
			base = append(base, r.Base.Stats.Coverage())
			para = append(para, r.Flags.Stats.Coverage())
		}
		b.ReportMetric(100*exp.Geomean(base), "%cov-w/o-para")
		b.ReportMetric(100*exp.Geomean(para), "%cov-para")
	}
}

// BenchmarkFig13Expansion regenerates the host-per-guest instruction
// ratios.
func BenchmarkFig13Expansion(b *testing.B) {
	rs := getLOO(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var q, p []float64
		for _, r := range rs {
			q = append(q, float64(r.QEMU.Total)/float64(r.QEMU.Stats.GuestExec))
			p = append(p, float64(r.Flags.Total)/float64(r.Flags.Stats.GuestExec))
		}
		b.ReportMetric(exp.Geomean(q), "host/guest-qemu")
		b.ReportMetric(exp.Geomean(p), "host/guest-para")
	}
}

// BenchmarkTable2Breakdown regenerates the per-category breakdown.
func BenchmarkTable2Breakdown(b *testing.B) {
	rs := getLOO(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := exp.Table2(rs)
		var rt, dt, cc float64
		for _, r := range rows {
			rt += r.RuleTranslated
			dt += r.DataTransfer
			cc += r.ControlCode
		}
		n := float64(len(rows))
		b.ReportMetric(rt/n, "rule-translated")
		b.ReportMetric(dt/n, "data-transfer")
		b.ReportMetric(cc/n, "control-code")
	}
}

// BenchmarkFig14CoverageAblation regenerates the per-factor coverage.
func BenchmarkFig14CoverageAblation(b *testing.B) {
	rs := getLOO(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var base, op, md, fl []float64
		for _, r := range rs {
			base = append(base, r.Base.Stats.Coverage())
			op = append(op, r.Op.Stats.Coverage())
			md = append(md, r.Mode.Stats.Coverage())
			fl = append(fl, r.Flags.Stats.Coverage())
		}
		b.ReportMetric(100*exp.Geomean(base), "%w/o")
		b.ReportMetric(100*exp.Geomean(op), "%opcode")
		b.ReportMetric(100*exp.Geomean(md), "%addrmode")
		b.ReportMetric(100*exp.Geomean(fl), "%condition")
	}
}

// BenchmarkFig15SpeedupAblation regenerates the per-factor speedups.
func BenchmarkFig15SpeedupAblation(b *testing.B) {
	rs := getLOO(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var base, op, md, fl []float64
		for _, r := range rs {
			base = append(base, exp.Speedup(r.QEMU, r.Base))
			op = append(op, exp.Speedup(r.QEMU, r.Op))
			md = append(md, exp.Speedup(r.QEMU, r.Mode))
			fl = append(fl, exp.Speedup(r.QEMU, r.Flags))
		}
		b.ReportMetric(exp.Geomean(base), "x-w/o")
		b.ReportMetric(exp.Geomean(op), "x-opcode")
		b.ReportMetric(exp.Geomean(md), "x-addrmode")
		b.ReportMetric(exp.Geomean(fl), "x-condition")
	}
}

// BenchmarkFig16TrainingSets regenerates the training-set-size sweep
// (reduced repeats keep the bench under a minute).
func BenchmarkFig16TrainingSets(b *testing.B) {
	c := getCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err := exp.Fig16(c, 8, 2, 7)
		if err != nil {
			b.Fatal(err)
		}
		last := points[len(points)-1]
		b.ReportMetric(100*last.CovBase, "%cov-w/o-k8")
		b.ReportMetric(100*last.CovPara, "%cov-para-k8")
	}
}

// BenchmarkTable3RuleCounts regenerates the rule accounting.
func BenchmarkTable3RuleCounts(b *testing.B) {
	c := getCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counts := exp.Table3(c)
		b.ReportMetric(float64(counts.Learned), "learned")
		b.ReportMetric(float64(counts.AddrModeParam), "parameterized")
		b.ReportMetric(float64(counts.Instantiated), "instantiated")
	}
}

// ---- ablation benches (design choices from DESIGN.md) ----

// BenchmarkAblationFlagWindow varies the delegation kill window the
// paper fixes at 3.
func BenchmarkAblationFlagWindow(b *testing.B) {
	c := getCorpus(b)
	union := c.Union(c.Others("gcc"))
	full, _ := core.Parameterize(union, core.Config{Opcode: true, AddrMode: true})
	for _, w := range []int{-1, 1, 3, 8} {
		name := map[int]string{-1: "w0", 1: "w1", 3: "w3", 8: "w8"}[w]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := c.Run("gcc", dbt.Config{Rules: full, DelegateFlags: true, FlagWindow: w})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*r.Stats.Coverage(), "%coverage")
				b.ReportMetric(float64(r.Total)/float64(r.Stats.GuestExec), "host/guest")
			}
		})
	}
}

// BenchmarkAblationSeqRules compares full rule tables against tables
// with the multi-instruction (sequence and branch-tail) rules removed —
// the paper's §V-D discussion of parameterizing only single-instruction
// rules.
func BenchmarkAblationSeqRules(b *testing.B) {
	c := getCorpus(b)
	union := c.Union(c.Others("perlbench"))
	full, _ := core.Parameterize(union, core.Config{Opcode: true, AddrMode: true})
	single := rule.NewStore()
	for _, t := range full.All() {
		if t.GuestLen() == 1 {
			cp := *t
			single.Add(&cp)
		}
	}
	run := func(b *testing.B, s *rule.Store) {
		for i := 0; i < b.N; i++ {
			r, err := c.Run("perlbench", dbt.Config{Rules: s, DelegateFlags: true})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(100*r.Stats.Coverage(), "%coverage")
			b.ReportMetric(float64(r.Total)/float64(r.Stats.GuestExec), "host/guest")
		}
	}
	seqPar, _ := core.Parameterize(union, core.Config{Opcode: true, AddrMode: true, Sequences: true})
	b.Run("with-seq-rules", func(b *testing.B) { run(b, full) })
	b.Run("single-only", func(b *testing.B) { run(b, single) })
	// The paper's §V-D future work: sequence rules themselves
	// parameterized along the opcode dimension.
	b.Run("seq-parameterized", func(b *testing.B) { run(b, seqPar) })
}

// BenchmarkAblationRegAlloc toggles per-block guest-register allocation,
// quantifying the data-transfer overhead Table II discusses.
func BenchmarkAblationRegAlloc(b *testing.B) {
	c := getCorpus(b)
	union := c.Union(c.Others("mcf"))
	full, _ := core.Parameterize(union, core.Config{Opcode: true, AddrMode: true})
	for _, noAlloc := range []bool{false, true} {
		name := "block-regalloc"
		if noAlloc {
			name = "state-resident"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := c.Run("mcf", dbt.Config{Rules: full, DelegateFlags: true, NoBlockRegAlloc: noAlloc})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(r.Executed[1])/float64(r.Stats.GuestExec), "data-transfer")
				b.ReportMetric(float64(r.Total)/float64(r.Stats.GuestExec), "host/guest")
			}
		})
	}
}

// ---- micro-benchmarks of the pipeline's hot paths ----

// BenchmarkHostCPUExec measures the host simulator's raw throughput.
func BenchmarkHostCPUExec(b *testing.B) {
	const lbl = 1
	insts := []host.Inst{
		host.I(host.MOVL, host.R(host.EAX), host.Imm(0)),
		host.I(host.MOVL, host.R(host.ECX), host.Imm(1000)),
		host.I(host.ADDL, host.R(host.EAX), host.R(host.ECX)),
		host.I(host.SUBL, host.R(host.ECX), host.Imm(1)),
		host.Jcc(host.NE, lbl),
		host.Exit(host.Imm(0)),
	}
	blk := host.NewBlock(insts, map[int]int{lbl: 2})
	cpu := host.NewCPU(mem.New())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cpu.Exec(blk, 1e9); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cpu.Total())/float64(b.N), "host-insts/op")
}

// BenchmarkRuleLookup measures rule-table retrieval (the runtime hash
// lookup of §IV-D).
func BenchmarkRuleLookup(b *testing.B) {
	c := getCorpus(b)
	full, _ := core.Parameterize(c.Union(c.Names), core.Config{Opcode: true, AddrMode: true})
	seq := guest.MustAssemble("eor r3, r4, r5\nhlt")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if t, _, _ := full.Lookup(seq); t == nil {
			b.Fatal("lookup failed")
		}
	}
}

// BenchmarkLookupKey measures the allocation-free retrieval-key paths:
// fingerprint computation over a block-sized window, a hit lookup, and
// a miss that ends at the first prefix. All three report 0 allocs/op
// (TestLookupIntoAllocs pins the lookups) — retrieval runs once per
// window position per block.
func BenchmarkLookupKey(b *testing.B) {
	c := getCorpus(b)
	full, _ := core.Parameterize(c.Union(c.Names), core.Config{Opcode: true, AddrMode: true})
	hit := guest.MustAssemble("eor r3, r4, r5\nhlt")
	missSeq := guest.MustAssemble("hlt")
	if t, _, _ := full.Lookup(missSeq); t != nil {
		b.Fatal("miss sequence unexpectedly matched a rule")
	}
	block := guest.MustAssemble(`
		ldr r1, [sp, #4]
		add r2, r1, #1
		eor r3, r2, r1
		str r3, [sp, #8]
		cmp r3, r1
		beq done
		sub r4, r3, r2
		orr r5, r4, r1
		done: hlt
	`)

	b.Run("fingerprint", func(b *testing.B) {
		b.ReportAllocs()
		var sink uint64
		for i := 0; i < b.N; i++ {
			h := rule.KeyFpSeed
			for j := range block {
				h = rule.ExtendKeyFp(h, block[j])
			}
			sink ^= h
		}
		_ = sink
	})
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		var bind rule.Binding
		full.LookupInto(hit, nil, nil, &bind) // warm the scratch binding
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if t, _ := full.LookupInto(hit, nil, nil, &bind); t == nil {
				b.Fatal("lookup failed")
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		var bind rule.Binding
		for i := 0; i < b.N; i++ {
			if t, _ := full.LookupInto(missSeq, nil, nil, &bind); t != nil {
				b.Fatal("miss sequence matched")
			}
		}
	})
}

// BenchmarkDispatchChaining compares dispatcher traffic with and
// without translation-block chaining on the largest benchmark, and
// checks that chaining changes nothing guest-visible. The third
// sub-bench adds background translation workers on top of chaining.
func BenchmarkDispatchChaining(b *testing.B) {
	c := getCorpus(b)
	full, _ := core.Parameterize(c.Union(c.Others("gcc")), core.Config{Opcode: true, AddrMode: true})
	base := dbt.Config{Rules: full, DelegateFlags: true}
	ref, err := c.Run("gcc", base)
	if err != nil {
		b.Fatal(err)
	}
	if ref.Stats.ChainedExits == 0 {
		b.Fatal("reference run recorded no chained exits")
	}
	for _, bc := range []struct {
		name string
		cfg  dbt.Config
	}{
		{"chained", base},
		{"no-chain", func() dbt.Config { c := base; c.NoChain = true; return c }()},
		{"chained-workers4", func() dbt.Config { c := base; c.TranslateWorkers = 4; return c }()},
		{"superblocks", func() dbt.Config {
			c := base
			c.HotThreshold = 4
			// A low threshold forms traces early (maximum remaining run to
			// amortize them) and the budget keeps the long tail of
			// barely-hot heads from paying translation they never earn
			// back.
			c.TraceBudget = 12
			// One dispatch goroutine per CPU on the bench box: background
			// formation cannot be scheduled inside a ~16ms op on a single
			// core, so the bench measures the synchronous path.
			c.SyncTraces = true
			return c
		}()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := c.Run("gcc", bc.cfg)
				if err != nil {
					b.Fatal(err)
				}
				// Superblock runs retire fewer HOST instructions (that is
				// the optimization: seam epilogues/prologues and dead flag
				// stores disappear), so Total is compared one-sided there,
				// and coverage may shift within a small tolerance — the
				// trace-wide register mapping changes which rule windows'
				// operand staging fits the temp pool. Everything
				// guest-visible must still be identical.
				if r.Stats.GuestExec != ref.Stats.GuestExec || r.R0 != ref.R0 {
					b.Fatalf("guest-visible results diverge from reference: %+v vs %+v",
						r.Stats, ref.Stats)
				}
				if bc.cfg.HotThreshold > 0 {
					b.ReportMetric(float64(r.Stats.TracesFormed), "traces")
					if r.Stats.TracesFormed == 0 || r.Stats.SuperblockExecs == 0 {
						b.Fatalf("no superblocks formed on the gcc workload: %+v", r.Stats)
					}
					if d := r.Stats.Coverage() - ref.Stats.Coverage(); d < -0.01 || d > 0.01 {
						b.Fatalf("superblock coverage drifted: %.4f vs %.4f",
							r.Stats.Coverage(), ref.Stats.Coverage())
					}
					if r.Total >= ref.Total {
						b.Fatalf("superblocks did not reduce host instructions: %d vs %d",
							r.Total, ref.Total)
					}
					b.ReportMetric(100*r.Stats.SuperblockShare(), "%superblock")
					b.ReportMetric(100*r.Stats.SideExitRate(), "%side-exit")
				} else {
					if r.Stats.Coverage() != ref.Stats.Coverage() {
						b.Fatalf("coverage diverges from reference: %+v vs %+v", r.Stats, ref.Stats)
					}
					if r.Total != ref.Total {
						b.Fatalf("host instruction count diverges from reference: %d vs %d",
							r.Total, ref.Total)
					}
				}
				if !bc.cfg.NoChain && r.Stats.ChainedExits == 0 {
					b.Fatal("no chained exits in a chained configuration")
				}
				b.ReportMetric(float64(r.Stats.Dispatches), "dispatches")
				b.ReportMetric(float64(r.Stats.ChainedExits), "chained-exits")
				b.ReportMetric(100*r.Stats.ChainRate(), "%chained")
			}
		})
	}
}

// BenchmarkBackendDispatch is the cross-backend twin of
// BenchmarkDispatchChaining: the same chained gcc workload, once per
// registered host backend, with each backend getting its own freshly
// parameterized store (engines rekey the store's retrieval index to
// their backend's fingerprint namespace, so sharing one store across
// backends would measure rekeying, not execution). The measured
// cross-backend comparison is `go run ./bench -workload steady -trace 1`
// (the dbt.arm.risc.guest_mips arm).
func BenchmarkBackendDispatch(b *testing.B) {
	c := getCorpus(b)
	for _, name := range backend.Names() {
		be := backend.MustLookup(name)
		b.Run(name, func(b *testing.B) {
			full, _ := core.Parameterize(c.Union(c.Others("gcc")), core.Config{Opcode: true, AddrMode: true})
			cfg := dbt.Config{Rules: full, DelegateFlags: true, Backend: be}
			for i := 0; i < b.N; i++ {
				r, err := c.Run("gcc", cfg)
				if err != nil {
					b.Fatal(err)
				}
				if r.Stats.ChainedExits == 0 {
					b.Fatal("no chained exits")
				}
				b.ReportMetric(float64(r.Stats.GuestExec), "guest-insts")
				b.ReportMetric(float64(r.Total)/float64(r.Stats.GuestExec), "host-per-guest")
				b.ReportMetric(100*r.Stats.ChainRate(), "%chained")
			}
		})
	}
}

// BenchmarkBackendWorkload runs the guest-loop workloads end to end
// under each backend, pinning the relative cost of the RISC legalizer's
// load/store expansion on real translated code.
func BenchmarkBackendWorkload(b *testing.B) {
	c := getCorpus(b)
	for _, bench := range []string{"mcf", "bzip2"} {
		for _, name := range backend.Names() {
			be := backend.MustLookup(name)
			b.Run(bench+"/"+name, func(b *testing.B) {
				full, _ := core.Parameterize(c.Union(c.Others(bench)), core.Config{Opcode: true, AddrMode: true})
				cfg := dbt.Config{Rules: full, DelegateFlags: true, Backend: be}
				for i := 0; i < b.N; i++ {
					r, err := c.Run(bench, cfg)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(r.Total)/float64(r.Stats.GuestExec), "host-per-guest")
					b.ReportMetric(100*r.Stats.Coverage(), "%coverage")
				}
			})
		}
	}
}

// BenchmarkWarmstart measures what warm-start persistence buys: the
// same workload run cold (a fresh artifact store each op — every block
// demand-translated, then published) versus warm (a store populated
// once up front — the code cache and traces restored before dispatch).
// Both arms report their demand-translation count (warm must stay
// strictly below cold; `go run ./cmd/experiments -only warmstart` checks
// that for the whole suite).
func BenchmarkWarmstart(b *testing.B) {
	c := getCorpus(b)
	const bench = "gcc"
	full, _ := core.Parameterize(c.Union(c.Others(bench)), core.Config{Opcode: true, AddrMode: true})
	cfg := func(dir string) dbt.Config {
		return dbt.Config{Rules: full, DelegateFlags: true, HotThreshold: 16, SyncTraces: true, ArtifactDir: dir}
	}
	b.Run("cold", func(b *testing.B) {
		var tx float64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dir := b.TempDir() // nothing to restore: every op pays full translation
			b.StartTimer()
			r, err := c.Run(bench, cfg(dir))
			if err != nil {
				b.Fatal(err)
			}
			if r.Stats.Translations == 0 {
				b.Fatal("cold run demand-translated nothing")
			}
			tx += float64(r.Stats.Translations)
		}
		b.ReportMetric(tx/float64(b.N), "translations")
	})
	b.Run("warm", func(b *testing.B) {
		dir := b.TempDir()
		if _, err := c.Run(bench, cfg(dir)); err != nil { // populate the store
			b.Fatal(err)
		}
		b.ResetTimer()
		var tx, restored float64
		for i := 0; i < b.N; i++ {
			r, err := c.Run(bench, cfg(dir))
			if err != nil {
				b.Fatal(err)
			}
			if r.Warm.Blocks == 0 {
				b.Fatalf("warm run restored nothing: %+v", r.Warm)
			}
			tx += float64(r.Stats.Translations)
			restored += float64(r.Warm.Blocks)
		}
		b.ReportMetric(tx/float64(b.N), "translations")
		b.ReportMetric(restored/float64(b.N), "restored-blocks")
	})
}

// BenchmarkSMC prices the self-modifying-code safety layer. The
// "tracked" and "untracked" arms run the exact superblock configuration
// of BenchmarkDispatchChaining/superblocks on a guest that never writes
// code — their gap is the write tracker's pure overhead (page lookups
// on stores plus the fence check per dispatch; the bench's
// mem.write32_tracked_ns layer metric prices the store half).
// The "smc-heavy" arm runs the hostile smc-async workload (an
// instruction toggled every four iterations under asynchronous trace
// formation) and reports what each hazard costs in invalidations and
// aborted executions.
func BenchmarkSMC(b *testing.B) {
	c := getCorpus(b)
	full, _ := core.Parameterize(c.Union(c.Others("gcc")), core.Config{Opcode: true, AddrMode: true})
	sbCfg := dbt.Config{
		Rules: full, DelegateFlags: true,
		HotThreshold: 4, TraceBudget: 12, SyncTraces: true,
	}
	for _, bc := range []struct {
		name string
		cfg  dbt.Config
	}{
		{"tracked", sbCfg},
		{"untracked", func() dbt.Config { c := sbCfg; c.NoWriteTrack = true; return c }()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := c.Run("gcc", bc.cfg)
				if err != nil {
					b.Fatal(err)
				}
				if r.Stats.SMCInvalidations != 0 || r.Stats.SMCSelfAborts != 0 {
					b.Fatalf("non-modifying workload tripped SMC machinery: %+v", r.Stats)
				}
				b.ReportMetric(float64(r.Stats.GuestExec), "guest-insts")
			}
		})
	}
	b.Run("smc-heavy", func(b *testing.B) {
		var p workload.SMCProfile
		for _, q := range workload.SMCProfiles() {
			if q.Name == "smc-async" {
				p = q
			}
		}
		for i := 0; i < b.N; i++ {
			m := mem.New()
			if err := guest.LoadProgram(m, env.CodeBase, p.Prog); err != nil {
				b.Fatal(err)
			}
			e := dbt.New(m, dbt.Config{Rules: full, DelegateFlags: true, HotThreshold: p.HotThreshold})
			e.SetGuestState(&guest.State{Mem: m})
			st, err := e.Run(env.CodeBase, 1<<30)
			if err != nil {
				b.Fatal(err)
			}
			if st.SMCInvalidations == 0 {
				b.Fatalf("smc-async tripped no invalidations: %+v", st)
			}
			b.ReportMetric(float64(st.SMCInvalidations), "invalidations")
			b.ReportMetric(float64(st.SMCSelfAborts), "self-aborts")
		}
	})
}

// BenchmarkPeephole measures what the validator-licensed peephole pass
// buys back of the risc legalizer's +6.7% host-instruction overhead
// (BenchmarkBackendDispatch/risc's host-insts/guest-inst vs x86). Three
// arms on the same chained gcc workload: risc as lowered, risc with
// Config.Peephole (every optimized stream proved by the translation
// validator before install — see docs/ANALYSIS.md), and the x86
// baseline the overhead is measured against. The headline metric is
// host-insts/guest-inst, which is deterministic; what the pass costs
// and buys in wall clock is the bench's `validate` workload and the
// dbt.arm.risc-peephole.guest_mips arm of `steady`.
func BenchmarkPeephole(b *testing.B) {
	c := getCorpus(b)
	for _, bc := range []struct {
		name     string
		backend  string
		peephole bool
	}{
		{"risc-base", "risc", false},
		{"risc-peephole", "risc", true},
		{"x86", "x86", false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			full, _ := core.Parameterize(c.Union(c.Others("gcc")), core.Config{Opcode: true, AddrMode: true})
			cfg := dbt.Config{Rules: full, DelegateFlags: true,
				Backend: backend.MustLookup(bc.backend), Peephole: bc.peephole}
			for i := 0; i < b.N; i++ {
				r, err := c.Run("gcc", cfg)
				if err != nil {
					b.Fatal(err)
				}
				if bc.peephole && r.Stats.BlocksValidated == 0 {
					b.Fatal("peephole arm proved and installed no optimized stream")
				}
				b.ReportMetric(float64(r.Total)/float64(r.Stats.GuestExec), "host-per-guest")
				if bc.peephole {
					b.ReportMetric(float64(r.Stats.BlocksValidated), "validated")
				}
			}
		})
	}
}

// BenchmarkObsDisabledOverhead pins the observability layer's core
// invariant: with telemetry disabled (the default), an instrumented hot
// path pays one atomic load and allocates nothing. "guard" is the exact
// sequence the dispatcher runs per iteration when obs is off; "product"
// is the always-on atomic counter backing dbt.Stats. Both must report
// 0 allocs/op, and the guard must stay within ~2 ns/op.
func BenchmarkObsDisabledOverhead(b *testing.B) {
	obs.SetEnabled(false)
	reg := obs.NewRegistry()
	hist := reg.Histogram("bench.telemetry_ns")
	ctr := reg.Counter("bench.product")

	b.Run("guard", func(b *testing.B) {
		b.ReportAllocs()
		taken := 0
		for i := 0; i < b.N; i++ {
			if obs.On() {
				t0 := time.Now()
				taken++
				hist.ObserveSince(t0)
			}
		}
		if taken != 0 {
			b.Fatal("telemetry branch taken while disabled")
		}
	})
	b.Run("product", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctr.Inc()
		}
		if ctr.Value() == 0 {
			b.Fatal("counter did not count")
		}
	})
	b.Run("enabled-histogram", func(b *testing.B) {
		obs.SetEnabled(true)
		defer obs.SetEnabled(false)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if obs.On() {
				t0 := time.Now()
				hist.ObserveSince(t0)
			}
		}
	})
}

// BenchmarkVerifyRule measures one symbolic rule verification.
func BenchmarkVerifyRule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := &rule.Template{
			Guest:  []rule.GPat{{Op: guest.ADD, Args: []rule.Arg{rule.RegArg(0), rule.RegArg(0), rule.RegArg(1)}}},
			Host:   []rule.HPat{{Op: host.ADDL, Dst: rule.RegArg(0), Src: rule.RegArg(1)}},
			Params: []rule.ParamKind{rule.PReg, rule.PReg},
		}
		if _, ok := rule.Verify(t); !ok {
			b.Fatal("verification failed")
		}
	}
}

// BenchmarkTCGLowering measures the emulation path's per-instruction
// translation cost.
func BenchmarkTCGLowering(b *testing.B) {
	in := guest.MustAssemble("adds r0, r1, r2")[0]
	pool := []host.Reg{host.EAX, host.ECX, host.EDX}
	mapf := func(r guest.Reg) host.Operand {
		return host.Mem(host.EBP, int32(4*int(r)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := host.NewAsm()
		g := tcg.NewGen(a.NewLabel)
		if err := g.Translate(in, 0x1000); err != nil {
			b.Fatal(err)
		}
		if err := tcg.Lower(a, g, mapf, pool); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParameterize measures the full derivation pass.
func BenchmarkParameterize(b *testing.B) {
	c := getCorpus(b)
	union := c.Union(c.Names)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, counts := core.Parameterize(union, core.Config{Opcode: true, AddrMode: true}); counts.Derived == 0 {
			b.Fatal("nothing derived")
		}
	}
}

// BenchmarkEndToEndMCF measures one complete translate-and-run of the
// smallest benchmark under the full system.
func BenchmarkEndToEndMCF(b *testing.B) {
	c := getCorpus(b)
	full, _ := core.Parameterize(c.Union(c.Others("mcf")), core.Config{Opcode: true, AddrMode: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := c.Run("mcf", dbt.Config{Rules: full, DelegateFlags: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Stats.GuestExec), "guest-insts")
	}
}
