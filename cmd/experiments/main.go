// Command experiments regenerates every table and figure of the paper's
// evaluation section from the synthetic SPEC CINT 2006 stand-ins.
//
//	go run ./cmd/experiments            # everything, scale 1
//	go run ./cmd/experiments -scale 3   # longer "reference input"
//	go run ./cmd/experiments -only fig14,table3
//	go run ./cmd/experiments -json results.json
//
// With -json, every selected section is additionally written as one
// machine-readable report (schema exp.ReportSchema, see
// internal/exp.Report); "-" writes to stdout and suppresses the text
// tables.
//
// -backend routes every engine the suite builds through the named host
// backend (see internal/backend); the "backends" section instead runs
// the workload matrix under every registered backend at shadow rate 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"paramdbt/internal/backend"
	"paramdbt/internal/exp"
)

func main() {
	scale := flag.Int("scale", 1, "dynamic work multiplier (1 = reference input)")
	only := flag.String("only", "", "comma-separated subset: table1,fig2,fig11,fig12,fig13,table2,fig14,fig15,fig16,table3,dispatch,trace,guard,analysis,backends,smc,validate,serve")
	serveTenants := flag.Int("serve-tenants", 2, "concurrent tenants per workload in the serve section")
	guardBench := flag.String("guard-bench", "mcf", "benchmark for the guard divergence/recovery experiment")
	jsonPath := flag.String("json", "", "also write the selected sections as a JSON report to this file (\"-\" = stdout, text tables suppressed)")
	beName := flag.String("backend", "", "host backend for all engine runs (default: $"+backend.EnvVar+" or x86); one of "+strings.Join(backend.Names(), ","))
	flag.Parse()

	be := backend.Default()
	if *beName != "" {
		var err error
		be, err = backend.Lookup(*beName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}

	want := map[string]bool{}
	if *only != "" {
		for _, s := range strings.Split(*only, ",") {
			want[strings.TrimSpace(s)] = true
		}
	}
	sel := func(name string) bool { return len(want) == 0 || want[name] }

	start := time.Now()
	fmt.Fprintf(os.Stderr, "building corpus (compile + learn, scale %d)...\n", *scale)
	corpus, err := exp.BuildCorpus(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "corpus:", err)
		os.Exit(1)
	}
	corpus.Backend = be

	report := &exp.Report{
		Schema:  exp.ReportSchema,
		Date:    time.Now().UTC().Format(time.RFC3339),
		Command: strings.Join(os.Args, " "),
		GOOS:    runtime.GOOS,
		GOARCH:  runtime.GOARCH,
		Scale:   *scale,
		Backend: be.Name(),
	}
	text := *jsonPath != "-"
	section := func(title string) {
		if text {
			fmt.Printf("\n==== %s ====\n", title)
		}
	}
	render := func(s string) {
		if text {
			fmt.Print(s)
		}
	}

	if sel("table1") {
		section("Table I: rules learned per benchmark")
		report.Table1 = exp.Table1(corpus)
		render(exp.RenderTable1(report.Table1))
	}
	if sel("fig2") {
		section("Fig 2: learned rules vs training benchmarks")
		report.Fig2 = exp.Fig2(corpus, 1)
		render(exp.RenderFig2(report.Fig2))
	}

	needLOO := sel("fig11") || sel("fig12") || sel("fig13") || sel("table2") ||
		sel("fig14") || sel("fig15") || sel("dispatch") || sel("trace")
	var loo []exp.ModeResults
	if needLOO {
		fmt.Fprintln(os.Stderr, "leave-one-out evaluation (5 configurations x 12 benchmarks)...")
		loo, err = exp.LeaveOneOut(corpus)
		if err != nil {
			fmt.Fprintln(os.Stderr, "leave-one-out:", err)
			os.Exit(1)
		}
	}
	if sel("fig11") {
		section("Fig 11: speedup over QEMU")
		report.Fig11 = exp.Fig11Data(loo)
		render(exp.RenderFig11(report.Fig11))
	}
	if sel("fig12") {
		section("Fig 12: dynamic coverage")
		report.Fig12 = exp.Fig12Data(loo)
		render(exp.RenderFig12(report.Fig12))
	}
	if sel("fig13") {
		section("Fig 13: host instructions per guest instruction")
		report.Fig13 = exp.Fig13Data(loo)
		render(exp.RenderFig13(report.Fig13))
	}
	if sel("table2") {
		section("Table II: host-instruction breakdown per guest instruction")
		report.Table2 = exp.Table2(loo)
		render(exp.RenderTable2(report.Table2))
	}
	if sel("fig14") {
		section("Fig 14: coverage by parameterization factor")
		report.Fig14 = exp.Fig14Data(loo)
		render(exp.RenderFig14(report.Fig14))
	}
	if sel("fig15") {
		section("Fig 15: speedup by parameterization factor")
		report.Fig15 = exp.Fig15Data(loo)
		render(exp.RenderFig15(report.Fig15))
	}
	if needLOO {
		section("Uncovered instruction kinds (cf. the paper's seven)")
		report.Uncovered = exp.UncoveredKinds(loo)
		if text {
			fmt.Println(strings.Join(report.Uncovered, ", "))
		}
	}
	if sel("dispatch") {
		section("Dispatch & block chaining (full configuration)")
		report.Dispatch = exp.DispatchData(loo)
		render(exp.RenderDispatch(report.Dispatch))
	}

	if sel("trace") {
		section("Hot traces: superblock formation & dispatch share")
		tr, err := exp.TraceExperiment(corpus, loo)
		if err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
			os.Exit(1)
		}
		report.Trace = tr
		render(exp.RenderTrace(tr))
	}

	if sel("fig16") {
		section("Fig 16: coverage vs training-set size")
		points, err := exp.Fig16(corpus, 8, 5, 7)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fig16:", err)
			os.Exit(1)
		}
		report.Fig16 = points
		render(exp.RenderFig16(points))
	}
	if sel("guard") {
		section("Guard: divergence detection & recovery under a corrupted rule")
		g, err := exp.GuardExperiment(corpus, *guardBench)
		if err != nil {
			fmt.Fprintln(os.Stderr, "guard:", err)
			os.Exit(1)
		}
		report.Guard = g
		render(exp.RenderGuard(g))
	}
	if sel("analysis") {
		section("Static audit: rule-store verdicts & seeded corruption")
		a, err := exp.AnalysisExperiment(corpus)
		if err != nil {
			fmt.Fprintln(os.Stderr, "analysis:", err)
			os.Exit(1)
		}
		report.Analysis = a
		render(exp.RenderAnalysis(a))
	}
	if sel("backends") {
		section("Backend matrix: workloads under every host backend, shadow rate 1")
		b, err := exp.BackendsExperiment(corpus, backend.Names(), 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "backends:", err)
			os.Exit(1)
		}
		report.Backends = b
		render(exp.RenderBackends(b))
	}
	if sel("smc") {
		section("Self-modifying code: engine vs interpreter, shadow rate 1")
		sm, err := exp.SMCExperiment(corpus)
		if err != nil {
			fmt.Fprintln(os.Stderr, "smc:", err)
			os.Exit(1)
		}
		report.Smc = sm
		render(exp.RenderSMC(sm))
	}
	if sel("validate") {
		section("Translation validation: per-backend verdicts & peephole payoff")
		v, err := exp.ValidateExperiment(corpus, backend.Names())
		if err != nil {
			fmt.Fprintln(os.Stderr, "validate:", err)
			os.Exit(1)
		}
		report.Validate = v
		render(exp.RenderValidate(v))
	}
	if sel("serve") {
		section("Multi-tenant serving: shared-service replay vs single-tenant, shadow rate 1")
		sv, err := exp.ServeExperiment(corpus, backend.Names(), *serveTenants)
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		report.Serve = sv
		render(exp.RenderServe(sv))
	}
	if sel("table3") {
		section("Table III: rule number comparison")
		counts := exp.Table3(corpus)
		report.Table3 = &counts
		render(exp.RenderTable3(counts))
	}

	if *jsonPath != "" {
		out := os.Stdout
		if *jsonPath != "-" {
			f, err := os.Create(*jsonPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		if err := report.WriteJSON(out); err != nil {
			fmt.Fprintln(os.Stderr, "json report:", err)
			os.Exit(1)
		}
		if *jsonPath != "-" {
			fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonPath)
		}
	}

	fmt.Fprintf(os.Stderr, "done in %s\n", time.Since(start).Round(time.Millisecond))
}
