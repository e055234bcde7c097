package main

// The names in this file are the contract later issues measure against:
// BENCHMARK.json lists exactly these workloads and metrics (the test
// checks the two agree), and README.md documents them.

// runSeconds is how long one run measures unless -seconds or -passes
// says otherwise; BENCHMARK.json's run_seconds is the same number.
const runSeconds = 20

type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{"steady", "12 paper workloads at scale 10 under leave-one-out rules: execution-bound, translation under 2% of wall, so host CPU, guest memory and dispatch/chaining do the work"},
	{"cold", "4 seed-generated wide programs, every function run once: translation-bound, so decode, rule lookup, instantiate, tcg, Finalize and code-cache insert dominate"},
	{"validate", "4 seed-generated wide programs on the risc backend with the peephole on: the validator and symexec run on the translate path for every block"},
	{"serve", "in-process paradbtd over HTTP, 2 closed-loop clients cycling 12 programs: shared prototype cache, per-tenant shadow verification, labeled metrics, JSON"},
}

// e2eMetric is one end-to-end metric. Bound is the share of the
// parent's median by which it may worsen before -compare (and the
// driver) calls it a regression. The bounds are what the box this
// benchmark was defined on can repeat, not what one would wish for: its
// speed wanders by 10-20% in waves a minute or two long, so ten
// back-to-back runs of one commit spread (quartile distance over median)
// by anything from 2% to 21%, whatever the run measures (README.md has
// the table).
type e2eMetric struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Def    string
}

var endToEnd = []e2eMetric{
	{"setup_s", "s", "lower", 0.25, "median over the run's set-ups of: corpus build, parameterization, program generation, reference-interpreter runs, server start, warm-up pass"},
	{"guest_mips", "Minst/s", "higher", 0.25, "median over passes of sum(Stats.GuestExec)/sum(op wall); serve: per 100-request slice of window wall"},
	{"ops_per_s", "ops/s", "higher", 0.25, "median over passes (serve: slices) of ops / window wall spanned"},
	{"op_ms_p50", "ms", "lower", 0.25, "median over passes (serve: slices) of the median op latency"},
	{"op_ms_p90", "ms", "lower", 0.25, "median over passes (serve: slices) of the nearest-rank 90th percentile op latency"},
	{"peak_rss_mb", "MB", "lower", 0.25, "VmHWM of the workload's process at exit"},
}

// failShare is the seventh end-to-end number. It is 0 on a healthy
// build, so it cannot carry a relative bound in BENCHMARK.json; the
// driver reads it from the result line's attempted/failed instead and
// -compare treats any rise as a regression.
const failShare = "fail_share"

// layerMetric is one per-layer metric of the traced run. Exact metrics
// are ratios of deterministic counts: they repeat bit for bit at a fixed
// seed on steady, cold and validate, and -compare demands equality.
type layerMetric struct {
	Name   string
	Unit   string
	Better string
	Exact  bool
	Source string
}

var perLayer = []layerMetric{
	// Set-up layers.
	{"minic.compile_s", "s", "lower", false, "spans around minic.Compile in set-up"},
	{"learn.from_compiled_s", "s", "lower", false, "spans around learn.FromCompiled in set-up"},
	{"core.parameterize_ms", "ms", "lower", false, "spans around core.Parameterize in set-up"},
	{"core.rules_parameterized", "count", "higher", true, "Store.Len summed over the parameterized stores the workload uses"},
	{"workload.generate_compile_ms", "ms", "lower", false, "spans around workload.Generate + minic.Compile of the seed-generated programs"},

	{"guest.decode_ns_per_inst", "ns/inst", "lower", false, "guest.Decode driven over every code word of every image"},
	{"guest.interp_mips", "Minst/s", "higher", false, "Compiled.RunInterp in set-up: instructions / span time"},

	{"rule.lookup_ns_per_window", "ns/window", "lower", false, "Store.LookupInto driven over every window of every block the run entered"},
	{"rule.instantiate_ns_per_hit", "ns/hit", "lower", false, "rule.InstantiateChecked driven over every matching window"},
	{"rule.lookups_per_op", "count/op", "lower", true, "obs.Default rule.lookups delta / traced ops"},
	{"rule.hit_ratio", "ratio", "higher", true, "rule.lookup_hits / rule.lookups"},
	{"rule.miss_memo_ratio", "ratio", "higher", true, "rule.miss_memo_hits / rule.lookups"},
	{"rule.match_attempts_per_lookup", "ratio", "lower", true, "rule.match_attempts / rule.lookups"},
	{"rule.coverage_pct", "%", "higher", true, "Stats.RuleCovered / Stats.GuestExec"},

	{"tcg.translate_lower_ns_per_inst", "ns/inst", "lower", false, "tcg.NewGen + Gen.Translate + Backend.Lower driven over the instructions no rule covers"},

	{"backend.finalize_ns_per_block", "ns/block", "lower", false, "Backend.Finalize driven over bench-built TCG streams of the entered blocks"},
	{"backend.host_insts_per_block", "insts/block", "lower", true, "finalized host instructions per block of those streams"},

	{"analysis.validate_peephole_us_per_block", "us/block", "lower", false, "validate only: dbt.translate_us_per_block minus the same images on risc without Peephole, interleaved"},
	{"analysis.validate_blocks_per_op", "count/op", "lower", true, "(Stats.BlocksValidated + Stats.ValidateFallbacks) / ops"},
	{"analysis.proved_ratio", "ratio", "higher", true, "BlocksValidated / (BlocksValidated + ValidateFallbacks)"},

	{"host.insts_per_guest_inst", "ratio", "lower", true, "Engine.CPU.Total / Stats.GuestExec, the paper's Fig. 13 proxy"},
	{"host.exec_ns_per_inst", "ns/inst", "lower", false, "(sum Run wall - sum dbt.translate_ns) / host instructions"},
	{"host.microloop_ns_per_inst", "ns/inst", "lower", false, "CPU.Exec on a fixed ALU + memory-operand loop"},

	{"mem.read32_ns", "ns", "lower", false, "Memory.Read32 driven over a loaded image's code words"},
	{"mem.write32_ns", "ns", "lower", false, "Memory.Write32 driven over the data segment, tracking off"},
	{"mem.write32_tracked_ns", "ns", "lower", false, "the same stores with write tracking on and the code range tracked"},
	{"mem.load_guest_us", "us", "lower", false, "span around Compiled.LoadGuest, mean per op"},
	{"mem.clone_below_us", "us", "lower", false, "Memory.CloneBelow(StateBase) on a post-run image"},
	{"mem.restore_below_us", "us", "lower", false, "Memory.RestoreBelow from that clone"},
	{"mem.pages_per_image", "pages", "lower", true, "Memory.PageCount of a post-run image, mean over programs"},

	{"dbt.new_us", "us", "lower", false, "span around dbt.New, mean per op"},
	{"dbt.run_ms", "ms", "lower", false, "span around Engine.Run, mean per op"},
	{"dbt.translate_share_pct", "%", "lower", false, "sum dbt.translate_ns / sum op wall"},
	{"dbt.translate_us_per_block", "us/block", "lower", false, "dbt.translate_ns histogram: sum / count"},
	{"dbt.lookup_ns_mean", "ns", "lower", false, "dbt.lookup_ns histogram mean"},
	{"dbt.chain_patch_ns_mean", "ns", "lower", false, "dbt.chain_ns histogram mean"},
	{"dbt.translations_per_op", "count/op", "lower", true, "Stats.Translations / ops"},
	{"dbt.blocks_per_op", "count/op", "lower", true, "Stats.Blocks / ops"},
	{"dbt.dispatches_per_kinst", "count/kinst", "lower", true, "Stats.Dispatches per 1000 guest instructions"},
	{"dbt.chain_rate_pct", "%", "higher", true, "ChainedExits / (Dispatches + ChainedExits)"},
	{"dbt.unattributed_share_pct", "%", "lower", false, "op wall the layer estimates above do not cover"},

	// Pay-for-itself rows: steady only, arms interleaved with the
	// product config, obs off. No gate.
	{"dbt.arm.tcg.guest_mips", "Minst/s", "higher", false, "steady with no rules (pure TCG)"},
	{"dbt.arm.nochain.guest_mips", "Minst/s", "higher", false, "steady with NoChain"},
	{"dbt.arm.superblock.guest_mips", "Minst/s", "higher", false, "steady with HotThreshold 4, TraceBudget 12, SyncTraces"},
	{"dbt.arm.workers4.guest_mips", "Minst/s", "higher", false, "steady with TranslateWorkers 4"},
	{"dbt.arm.risc.guest_mips", "Minst/s", "higher", false, "steady on the risc backend"},
	{"dbt.arm.risc-peephole.guest_mips", "Minst/s", "higher", false, "steady on risc with Peephole"},
	{"dbt.speedup_vs_tcg", "ratio", "higher", false, "product guest_mips / tcg arm guest_mips, the paper's 1.29x"},

	// The shared translation service, serve only.
	{"dbt.serve_requests_per_op", "count/op", "lower", false, "ServiceStats.Requests delta / requests"},
	{"dbt.serve_cache_hit_ratio", "ratio", "higher", false, "ServiceStats.CacheHits / Requests over the window"},
	{"dbt.serve_dedup_ratio", "ratio", "higher", false, "ServiceStats.DedupHits / Requests over the window"},
	{"dbt.serve_overloads", "count", "lower", false, "ServiceStats.Overloads delta"},
	{"dbt.serve_max_queue_depth", "count", "lower", false, "ServiceStats.MaxQueueDepth"},
	{"dbt.serve_wait_us_mean", "us", "lower", false, "dbt.serve_wait_ns histogram mean from Server.Metrics"},
	{"dbt.serve_translations_total", "count", "lower", false, "ServiceStats.Translations at the end of the run"},
	{"dbt.serve_spec_translations_total", "count", "lower", false, "ServiceStats.SpecTranslations at the end of the run"},

	{"guard.shadow_checks_per_op", "count/op", "lower", false, "Stats.ShadowChecks / ops (TenantResult.Stats on serve)"},
	{"guard.divergences", "count", "lower", false, "Stats.Divergences summed; must be 0"},
	{"guard.rate_final_ppm", "ppm", "lower", false, "serve: mean TenantResult.ShadowRate of the last pass"},
	{"guard.shadow_share_pct", "%", "lower", false, "serve: op_ms_p50 against a NoShadow server, interleaved"},

	{"serve.new_server_s", "s", "lower", false, "span around serve.NewServer"},
	{"serve.http_overhead_us", "us", "lower", false, "median of client latency - TenantResult.ElapsedNs"},
	{"serve.response_kb", "KB", "lower", false, "mean response body size"},
	{"serve.registry_series", "count", "lower", false, "names in Server.Metrics() after the window: per-tenant label growth"},

	{"obs.enabled_overhead_pct", "%", "lower", false, "traced / untraced op_ms_p50 - 1, passes interleaved"},
	{"bench.span_count", "count", "lower", false, "spans the bench recorded"},
	{"runtime.alloc_kb_per_op", "KB/op", "lower", false, "MemStats.TotalAlloc delta over the untraced passes / ops"},
	{"runtime.mallocs_per_op", "count/op", "lower", false, "MemStats.Mallocs delta / ops"},
	{"runtime.gc_cycles", "count", "lower", false, "MemStats.NumGC delta over the untraced passes"},
	{"runtime.gc_pause_ms", "ms", "lower", false, "MemStats.PauseTotalNs delta over the untraced passes"},
	{"runtime.heap_live_mb", "MB", "lower", false, "HeapAlloc after a forced GC with the fixtures live"},
}
