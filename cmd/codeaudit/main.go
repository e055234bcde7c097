// Command codeaudit runs translation validation over every block the
// workload suite translates: each benchmark executes under the engine,
// then every host block the run installed is symbolically checked
// against the guest reference semantics by
// internal/analysis.ValidateBlock, offline (exp.Audit over
// Engine.Translations). The result is one JSON report with a verdict
// per block:
//
//	proved        every execution-path pair decided equivalent (the
//	              report names the proof: structural, abstract, sweep)
//	inconclusive  not provable by the symbolic layer; the engine keeps
//	              the stream but it stays under shadow verification
//	refuted       a replay-confirmed divergence — translator bug; the
//	              report carries the concrete witness
//
//	go run ./cmd/codeaudit                  # audit, JSON to stdout
//	go run ./cmd/codeaudit -o blocks.json   # write to a file
//	go run ./cmd/codeaudit -summary         # verdict counts only (text)
//	go run ./cmd/codeaudit -backend risc    # audit the risc legalizer
//	go run ./cmd/codeaudit -peephole        # audit optimized streams too
//	go run ./cmd/codeaudit -fail-refuted    # exit 2 on any refutation
//
// With -peephole (risc), every peephole candidate also gets a rewrite
// verdict — analysis.ValidateRewrite, the optimized stream against the
// finalized one, which is what licenses the candidate's install — and
// the guest verdicts then cover the streams the engine would install.
// Rewrite verdicts carry "obligation": "rewrite" in the JSON and are
// counted in their own "rewrites" block, apart from the guest-vs-host
// counts.
//
// Within each bench, blocks are listed in ascending head pc, a
// candidate's rewrite verdict just before its guest verdict, so two
// audits of one build emit byte-identical JSON.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"paramdbt/internal/analysis"
	"paramdbt/internal/backend"
	"paramdbt/internal/core"
	"paramdbt/internal/dbt"
	"paramdbt/internal/exp"
)

// report is the JSON document codeaudit emits. The top-level counts are
// the guest-vs-host verdicts; Rewrites counts the peephole's rewrite
// verdicts and is present only with -peephole.
type report struct {
	Backend string `json:"backend"`
	Scale   int    `json:"scale"`
	tally
	Rewrites *tally        `json:"rewrites,omitempty"`
	Benches  []benchBlocks `json:"benches"`
}

// tally counts the verdicts of one obligation.
type tally struct {
	Blocks       int            `json:"blocks"`
	Proved       int            `json:"proved"`
	Inconclusive int            `json:"inconclusive"`
	Refuted      int            `json:"refuted"`
	ByProof      map[string]int `json:"by_proof,omitempty"`
}

func (t *tally) add(r *analysis.BlockReport) {
	t.Blocks++
	switch r.Verdict {
	case analysis.VerdictProved:
		t.Proved++
		t.ByProof[string(r.Proof)]++
	case analysis.VerdictRefuted:
		t.Refuted++
	default:
		t.Inconclusive++
	}
}

type benchBlocks struct {
	Bench  string                  `json:"bench"`
	Blocks []*analysis.BlockReport `json:"blocks"`
}

func main() {
	scale := flag.Int("scale", 1, "workload scale (1 = reference input)")
	out := flag.String("o", "", "write the JSON report to this file instead of stdout")
	summary := flag.Bool("summary", false, "print verdict counts as text instead of the JSON report")
	peephole := flag.Bool("peephole", false, "also run the peephole pass: report each candidate's rewrite verdict apart, and audit the streams it installs")
	failRefuted := flag.Bool("fail-refuted", false, "exit with status 2 when any block validation is refuted")
	beName := flag.String("backend", "", "host backend to audit under (default: $"+backend.EnvVar+" or x86)")
	flag.Parse()

	be := backend.Default()
	if *beName != "" {
		var err error
		be, err = backend.Lookup(*beName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "codeaudit:", err)
			os.Exit(1)
		}
	}

	corpus, err := exp.BuildCorpus(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "codeaudit: corpus:", err)
		os.Exit(1)
	}
	full, _ := core.Parameterize(corpus.Union(corpus.Names), core.Config{Opcode: true, AddrMode: true})

	rep := report{Backend: be.Name(), Scale: *scale, tally: tally{ByProof: map[string]int{}}}
	if *peephole {
		rep.Rewrites = &tally{ByProof: map[string]int{}}
	}
	for _, bench := range corpus.Names {
		e, _, err := corpus.RunEngine(bench, dbt.Config{Rules: full, DelegateFlags: true, Backend: be})
		if err != nil {
			fmt.Fprintf(os.Stderr, "codeaudit: %s: %v\n", bench, err)
			os.Exit(1)
		}
		bb := benchBlocks{Bench: bench, Blocks: exp.Audit(e, be, *peephole)}
		for _, r := range bb.Blocks {
			if r.Obligation == analysis.ObligationRewrite {
				rep.Rewrites.add(r)
			} else {
				rep.add(r)
			}
		}
		rep.Benches = append(rep.Benches, bb)
	}
	fmt.Fprintf(os.Stderr, "codeaudit: backend %s: %d validations: %d proved, %d inconclusive, %d refuted\n",
		rep.Backend, rep.Blocks, rep.Proved, rep.Inconclusive, rep.Refuted)
	if rw := rep.Rewrites; rw != nil {
		fmt.Fprintf(os.Stderr, "codeaudit: backend %s: %d rewrite validations: %d proved, %d inconclusive, %d refuted\n",
			rep.Backend, rw.Blocks, rw.Proved, rw.Inconclusive, rw.Refuted)
	}

	if *summary {
		printSummary(&rep.tally, rep.Benches, analysis.ObligationGuest, "")
		if rep.Rewrites != nil {
			fmt.Println("rewrites")
			printSummary(rep.Rewrites, rep.Benches, analysis.ObligationRewrite, "  ")
		}
	} else {
		w := os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fmt.Fprintln(os.Stderr, "codeaudit:", err)
				os.Exit(1)
			}
			defer f.Close()
			w = f
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(&rep); err != nil {
			fmt.Fprintln(os.Stderr, "codeaudit: encode:", err)
			os.Exit(1)
		}
	}

	if *failRefuted && (rep.Refuted > 0 || rep.Rewrites != nil && rep.Rewrites.Refuted > 0) {
		os.Exit(2)
	}
}

// printSummary prints one obligation's verdict counts, each line
// prefixed with indent, listing the blocks that were not proved.
func printSummary(t *tally, benches []benchBlocks, ob analysis.Obligation, indent string) {
	fmt.Printf("%sblocks       %d\n", indent, t.Blocks)
	fmt.Printf("%sproved       %d\n", indent, t.Proved)
	for _, p := range []analysis.Proof{analysis.ProofStructural, analysis.ProofAbstract, analysis.ProofSweep} {
		if n := t.ByProof[string(p)]; n > 0 {
			fmt.Printf("%s  by %-10s %d\n", indent, p, n)
		}
	}
	fmt.Printf("%sinconclusive %d\n", indent, t.Inconclusive)
	for _, bb := range benches {
		for _, r := range bb.Blocks {
			if r.Obligation == ob && r.Verdict != analysis.VerdictProved && r.Verdict != analysis.VerdictRefuted {
				fmt.Printf("%s  %s pc=%#x: %s\n", indent, bb.Bench, r.PC, r.Reason)
			}
		}
	}
	fmt.Printf("%srefuted      %d\n", indent, t.Refuted)
	for _, bb := range benches {
		for _, r := range bb.Blocks {
			if r.Obligation == ob && r.Verdict == analysis.VerdictRefuted {
				fmt.Printf("%s  %s pc=%#x: %s (witness %s)\n", indent, bb.Bench, r.PC, r.Reason, r.Witness.Check)
			}
		}
	}
}
