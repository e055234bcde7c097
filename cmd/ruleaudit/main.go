// Command ruleaudit statically audits the full parameterized rule
// space: it learns rules from every workload benchmark, parameterizes
// them (opcode + addressing mode, the paper's full configuration), and
// pushes the whole store through internal/analysis — dataflow passes
// plus abstract-domain equivalence over the symbolic immediate
// parameters. The result is one JSON report with a verdict per rule:
//
//	sound         proved over the whole parameter domain (the report
//	              names the proof: structural, abstract, or sweep)
//	unsound       a concrete witness instantiation is included, and has
//	              been confirmed divergent by symexec's concrete replay
//	inconclusive  neither proved nor refuted (admitted; shadow
//	              verification samples them like any rule, see
//	              docs/ROBUSTNESS.md)
//
//	go run ./cmd/ruleaudit                 # audit, JSON to stdout
//	go run ./cmd/ruleaudit -o audit.json   # write to a file
//	go run ./cmd/ruleaudit -summary        # verdict counts only (text)
//	go run ./cmd/ruleaudit -inject 2       # corrupt 2 rules first (demo)
//	go run ./cmd/ruleaudit -fail-unsound   # exit 2 if anything is unsound
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"paramdbt/internal/analysis"
	"paramdbt/internal/backend"
	"paramdbt/internal/core"
	"paramdbt/internal/exp"
	"paramdbt/internal/guard/faultinject"
	"paramdbt/internal/rule"
)

func main() {
	scale := flag.Int("scale", 1, "workload scale used while learning (1 = reference input)")
	out := flag.String("o", "", "write the JSON report to this file instead of stdout")
	summary := flag.Bool("summary", false, "print verdict counts as text instead of the JSON report")
	inject := flag.Int("inject", 0, "corrupt this many learned rules before auditing (fault-injection demo)")
	failUnsound := flag.Bool("fail-unsound", false, "exit with status 2 when any rule audits unsound")
	beName := flag.String("backend", "", "host backend to audit under (default: $"+backend.EnvVar+" or x86)")
	flag.Parse()

	be := backend.Default()
	if *beName != "" {
		var err error
		be, err = backend.Lookup(*beName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ruleaudit:", err)
			os.Exit(1)
		}
	}

	corpus, err := exp.BuildCorpus(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ruleaudit: corpus:", err)
		os.Exit(1)
	}
	union := corpus.Union(corpus.Names)
	store, _ := core.Parameterize(union, core.Config{Opcode: true, AddrMode: true})

	if *inject > 0 {
		fps := faultinject.CorruptTemplates(store.All(), *inject)
		fmt.Fprintf(os.Stderr, "ruleaudit: corrupted %d rule(s)\n", len(fps))
		// The store indexes templates by their pre-corruption
		// fingerprints; rebuild so report fingerprints match the table —
		// the same thing loading a corrupted table from disk would do.
		fresh := rule.NewStore()
		for _, tm := range store.All() {
			fresh.Add(tm)
		}
		store = fresh
	}

	rep := analysis.AuditStoreWith(store, be)
	fmt.Fprintf(os.Stderr, "ruleaudit: backend %s: %d rules: %d sound, %d unsound, %d inconclusive\n",
		rep.Backend, rep.Total, rep.Sound, rep.Unsound, rep.Inconclusive)

	if *summary {
		fmt.Printf("rules        %d\n", rep.Total)
		fmt.Printf("sound        %d\n", rep.Sound)
		for _, p := range []analysis.Proof{analysis.ProofStructural, analysis.ProofAbstract, analysis.ProofSweep} {
			if n := rep.ByProof[p]; n > 0 {
				fmt.Printf("  by %-10s %d\n", p, n)
			}
		}
		fmt.Printf("unsound      %d\n", rep.Unsound)
		for _, rr := range rep.Rules {
			if rr.Verdict == analysis.VerdictUnsound {
				fmt.Printf("  %s\n    witness: %s at imms %v\n", rr.Rule, rr.Witness.Check, rr.Witness.Imms)
			}
		}
		fmt.Printf("inconclusive %d\n", rep.Inconclusive)
	} else {
		w := os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ruleaudit:", err)
				os.Exit(1)
			}
			defer f.Close()
			w = f
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "ruleaudit: encode:", err)
			os.Exit(1)
		}
	}

	if *failUnsound && rep.Unsound > 0 {
		os.Exit(2)
	}
}
