// Command paradbt runs one guest binary under the DBT, with a choice of
// translation strategy, and reports the evaluation metrics.
//
//	go run ./cmd/paradbt -bench mcf -mode para
//	go run ./cmd/paradbt -bench gcc -mode qemu -scale 2
//	go run ./cmd/paradbt -bench sjeng -mode learned -train-all
//
// Modes: qemu (pure TCG), learned (the enhanced learning-based
// baseline), opcode, mode, para (full parameterization + condition-flag
// delegation).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sort"
	"strings"

	"paramdbt/internal/backend"
	"paramdbt/internal/core"
	"paramdbt/internal/dbt"
	"paramdbt/internal/env"
	"paramdbt/internal/exp"
	"paramdbt/internal/guard/faultinject"
	"paramdbt/internal/guest"
	"paramdbt/internal/learn"
	"paramdbt/internal/mem"
	"paramdbt/internal/obs"
	"paramdbt/internal/rule"
)

// corruptUsedRules runs the benchmark once faultlessly and corrupts up
// to n rules that run actually executed (in deterministic fingerprint
// order). Corrupting used rules rather than arbitrary table entries
// guarantees the fault is live — the point of a -inject campaign with
// corruptRules is to watch shadow verification catch it.
func corruptUsedRules(corpus *exp.Corpus, bench string, cfg dbt.Config, n int) ([]string, error) {
	e, _, err := corpus.RunEngine(bench, cfg)
	if err != nil {
		return nil, fmt.Errorf("warm run for rule corruption: %w", err)
	}
	return faultinject.CorruptTemplates(e.CachedRuleTemplates(), n), nil
}

// serveMetrics starts the observability endpoint: the obs.Default JSON
// snapshot on /metrics, the trace-ring dump on /trace, and the standard
// pprof profiles under /debug/pprof/. It returns once the listener is
// bound so a scrape can never race the run starting.
func serveMetrics(addr string) error {
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.Default.Handler())
	mux.Handle("/trace", obs.Default.TraceHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			fmt.Fprintln(os.Stderr, "metrics server:", err)
		}
	}()
	fmt.Fprintf(os.Stderr, "serving metrics on http://%s/metrics\n", ln.Addr())
	return nil
}

// loadRuleTable reads a rule table file (JSON Lines, see rulegen -o)
// through the learning pipeline's admission gate (learn.ImportPack): a
// table file is outside input, and nothing enters the store that the
// local auditor would refuse at learning time.
func loadRuleTable(path string) (*rule.Store, learn.ImportStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, learn.ImportStats{}, err
	}
	defer f.Close()
	return learn.ImportPack(f)
}

// dump translates the benchmark's blocks in code order on a fresh
// engine, up to n of them or the end of the loaded image, and writes
// their listings to w.
func dump(w io.Writer, corpus *exp.Corpus, bench string, cfg dbt.Config, n int) error {
	m := mem.New()
	comp := corpus.Comp[bench]
	if _, err := comp.LoadGuest(m); err != nil {
		return err
	}
	e := dbt.New(m, cfg)
	init := &guest.State{Mem: m}
	init.R[guest.SP] = env.StackTop
	e.SetGuestState(init)
	pc := uint32(env.CodeBase)
	end := pc + uint32(len(comp.GuestInsts)*guest.InstBytes)
	for i := 0; i < n && pc < end; i++ {
		s, err := e.BlockListing(pc)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, s)
		// Walk forward past this block (next sequential block start).
		insts := 0
		for {
			in, err := guest.Decode(m.Read32(pc + uint32(insts*guest.InstBytes)))
			if err != nil {
				return err
			}
			insts++
			if in.IsBranch() {
				break
			}
		}
		pc += uint32(insts * guest.InstBytes)
	}
	return nil
}

func main() {
	bench := flag.String("bench", "mcf", "benchmark name (see -list)")
	mode := flag.String("mode", "para", "qemu | learned | opcode | mode | para")
	scale := flag.Int("scale", 1, "dynamic work multiplier")
	trainAll := flag.Bool("train-all", false, "train on all 12 benchmarks instead of leave-one-out")
	list := flag.Bool("list", false, "list benchmarks and exit")
	rulesPath := flag.String("rules", "", "load the rule table from this file (JSON Lines, see rulegen -o) instead of training")
	manual := flag.Bool("manual", false, "add the manual ABI/special-instruction translations (paper §V-B2)")
	dumpBlocks := flag.Int("dump-blocks", 0, "print the first N translated blocks (guest disassembly + host listing)")
	noChain := flag.Bool("no-chain", false, "disable translation-block chaining (dispatch every block boundary)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics (JSON snapshot), /trace and /debug/pprof on this address (e.g. :6060); enables telemetry")
	traceN := flag.Int("trace", 0, "record the last N block transitions in a ring buffer, dumped to stderr after the run and on panic")
	shadowRate := flag.Float64("shadow-rate", 0, "shadow-verify this fraction of block executions against the reference interpreter (1 = every execution)")
	quarFile := flag.String("quarantine-file", "", "load previously quarantined rules from this file before the run and persist the quarantine set after it (JSON Lines)")
	injectPath := flag.String("inject", "", "fault-injection plan (JSON, see docs/ROBUSTNESS.md); corruptRules entries are applied to rules the benchmark actually uses")
	beName := flag.String("backend", "", "host backend to translate for (default: $"+backend.EnvVar+" or x86); one of "+strings.Join(backend.Names(), ","))
	peephole := flag.Bool("peephole", false, "enable the backend's post-Finalize peephole optimizer; the optimized stream is installed only when it is proved equivalent to the unoptimized one (see docs/ANALYSIS.md)")
	flag.Parse()

	be := backend.Default()
	if *beName != "" {
		var err error
		be, err = backend.Lookup(*beName)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	corpus, err := exp.BuildCorpus(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *list {
		for _, n := range corpus.Names {
			fmt.Println(n)
		}
		return
	}
	if _, ok := corpus.Comp[*bench]; !ok {
		fmt.Fprintf(os.Stderr, "unknown benchmark %q (try -list)\n", *bench)
		os.Exit(1)
	}

	switch *mode {
	case "qemu", "learned", "opcode", "mode", "para":
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		os.Exit(1)
	}

	train := corpus.Others(*bench)
	if *trainAll {
		train = corpus.Names
	}

	var cfg dbt.Config
	if *rulesPath != "" {
		rules, istats, err := loadRuleTable(*rulesPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cfg.Rules = rules
		fmt.Fprintf(os.Stderr, "rules: %d loaded, %d gate-rejected\n", istats.Loaded, istats.GateRejected)
	} else if *mode != "qemu" {
		union := corpus.Union(train)
		switch *mode {
		case "learned":
			cfg.Rules = union
		case "opcode":
			cfg.Rules, _ = core.Parameterize(union, core.Config{Opcode: true})
		case "mode", "para":
			cfg.Rules, _ = core.Parameterize(union, core.Config{Opcode: true, AddrMode: true})
		}
	}
	if *mode == "para" || *rulesPath != "" {
		cfg.DelegateFlags = true
	}
	cfg.Backend = be
	cfg.ManualABI = *manual
	cfg.NoChain = *noChain
	cfg.ShadowRate = *shadowRate
	cfg.Peephole = *peephole

	var inj *faultinject.Injector
	if *injectPath != "" {
		plan, err := faultinject.LoadPlan(*injectPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		inj = faultinject.New(plan)
		if plan.CorruptRules > 0 {
			if cfg.Rules == nil {
				fmt.Fprintln(os.Stderr, "plan corrupts rules but no rule table is loaded")
				os.Exit(1)
			}
			// Warm run without faults or shadowing to find the used rules.
			warmCfg := cfg
			warmCfg.ShadowRate = 0
			fps, err := corruptUsedRules(corpus, *bench, warmCfg, plan.CorruptRules)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "inject: corrupted %d used rule(s)\n", len(fps))
			if cfg.ShadowRate == 0 {
				// Silent corruption without shadow verification would just
				// produce wrong results; catching it is the experiment.
				cfg.ShadowRate = 1
				fmt.Fprintln(os.Stderr, "inject: enabling -shadow-rate 1 to detect corrupted rules")
			}
		}
		cfg.Faults = inj
	}

	// The quarantine file applies after the plan's rule corruption: an
	// entry names a rule as it was quarantined, so a corrupted rule
	// persisted by an earlier run under the same plan matches only in
	// its corrupted form.
	if *quarFile != "" {
		if cfg.Rules == nil {
			fmt.Fprintln(os.Stderr, "-quarantine-file requires a rule table (a non-qemu mode or -rules)")
			os.Exit(1)
		}
		if f, err := os.Open(*quarFile); err == nil {
			entries, lerr := rule.LoadQuarantine(f)
			f.Close()
			if lerr != nil {
				fmt.Fprintln(os.Stderr, lerr)
				os.Exit(1)
			}
			n := cfg.Rules.ApplyQuarantine(entries)
			fmt.Fprintf(os.Stderr, "quarantine: re-demoted %d of %d persisted rules\n", n, len(entries))
		} else if !os.IsNotExist(err) {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	var ring *obs.TraceRing
	if *traceN > 0 {
		ring = obs.NewTraceRing(*traceN)
		cfg.Trace = ring
	}
	if *metricsAddr != "" {
		obs.SetEnabled(true)
		cfg.Metrics = obs.Default
		if err := serveMetrics(*metricsAddr); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	res, err := corpus.Run(*bench, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *dumpBlocks > 0 {
		if err := dump(os.Stdout, corpus, *bench, cfg, *dumpBlocks); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	st := res.Stats
	fmt.Printf("benchmark          %s (mode %s, scale %d, backend %s)\n", *bench, *mode, *scale, be.Name())
	fmt.Printf("guest instructions %d\n", st.GuestExec)
	fmt.Printf("host instructions  %d (%.2f per guest)\n", res.Total,
		float64(res.Total)/float64(st.GuestExec))
	fmt.Printf("  compute          %d\n", res.Executed[0])
	fmt.Printf("  data transfer    %d\n", res.Executed[1])
	fmt.Printf("  control          %d\n", res.Executed[2])
	fmt.Printf("dynamic coverage   %.1f%%\n", 100*st.Coverage())
	fmt.Printf("distinct blocks    %d\n", st.Blocks)
	fmt.Printf("dispatches         %d\n", st.Dispatches)
	fmt.Printf("chained exits      %d (%.1f%% of block transitions)\n", st.ChainedExits, 100*st.ChainRate())
	if cfg.Rules != nil {
		fmt.Printf("rule table size    %d\n", cfg.Rules.Len())
	}
	if cfg.Peephole {
		fmt.Printf("blocks validated   %d\n", st.BlocksValidated)
		fmt.Printf("validate fallbacks %d\n", st.ValidateFallbacks)
	}
	if cfg.ShadowRate > 0 || cfg.Faults != nil {
		fmt.Printf("shadow checks      %d\n", st.ShadowChecks)
		fmt.Printf("divergences        %d\n", st.Divergences)
		fmt.Printf("quarantined rules  %d\n", st.QuarantinedRules)
		fmt.Printf("panics recovered   %d\n", st.PanicsRecovered)
		fmt.Printf("interp fallbacks   %d\n", st.InterpFallbacks)
		if inj != nil {
			p, d := inj.Counts()
			fmt.Printf("injected faults    %d panics, %d decode errors\n", p, d)
		}
	}
	if *quarFile != "" && cfg.Rules != nil {
		// Serialize to memory and write-temp-then-rename: a crash mid-write
		// must leave the previous quarantine file intact, never a torn one
		// that silently drops demotions on the next run.
		entries := cfg.Rules.Quarantined()
		var buf bytes.Buffer
		if err := rule.SaveQuarantine(&buf, entries); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := rule.WriteFileAtomic(*quarFile, buf.Bytes(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "quarantine: persisted %d rule(s) to %s\n", len(entries), *quarFile)
	}
	if len(res.Uncovered) > 0 {
		type kv struct {
			op guest.Op
			n  uint64
		}
		var ops []kv
		for op, n := range res.Uncovered {
			ops = append(ops, kv{op, n})
		}
		sort.Slice(ops, func(i, j int) bool {
			if ops[i].n != ops[j].n {
				return ops[i].n > ops[j].n
			}
			return ops[i].op < ops[j].op
		})
		fmt.Printf("emulated (top):   ")
		for i, e := range ops {
			if i == 6 {
				break
			}
			fmt.Printf(" %s=%.1f%%", e.op, 100*float64(e.n)/float64(st.GuestExec))
		}
		fmt.Println()
	}

	if ring != nil {
		ring.Dump(os.Stderr)
	}
}
