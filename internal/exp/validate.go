package exp

import (
	"fmt"
	"strings"

	"paramdbt/internal/analysis"
	"paramdbt/internal/backend"
	"paramdbt/internal/core"
	"paramdbt/internal/dbt"
)

// The translation-validation experiment runs the workload suite under
// each backend and audits every installed translation offline (Audit),
// so every finalized block (and superblock) is symbolically proved
// equivalent to its guest semantics, and measures what the
// validator-licensed peephole optimizer buys: the risc legalizer's
// host-instructions-per-guest-instruction overhead with and without
// optimization. The acceptance
// invariants are a prove rate at or above 95% per backend and zero
// refuted verdicts — a refutation would mean the translator emitted
// wrong code and the validator caught it escaping.

// ValidateRow is one benchmark's audit under one backend.
type ValidateRow struct {
	Bench     string  `json:"bench"`
	Blocks    uint64  `json:"blocks"`    // validations attempted
	Proved    uint64  `json:"proved"`    // verdicts: proved
	Fallbacks uint64  `json:"fallbacks"` // verdicts: inconclusive (conservative fallback)
	Refuted   uint64  `json:"refuted"`   // verdicts: refuted (confirmed witness)
	ProveRate float64 `json:"prove_rate"`
}

// ValidateResults aggregates one backend's column, including the
// peephole payoff measured as host-insts/guest-inst across the suite.
type ValidateResults struct {
	Backend       string        `json:"backend"`
	Rows          []ValidateRow `json:"rows"`
	Proved        uint64        `json:"proved"`
	Fallbacks     uint64        `json:"fallbacks"`
	Refuted       uint64        `json:"refuted"`
	ProveRate     float64       `json:"prove_rate"`
	RatioBase     float64       `json:"ratio_base"`     // host/guest, peephole off
	RatioPeephole float64       `json:"ratio_peephole"` // host/guest, peephole on
}

// ValidateSection is the full validation matrix.
type ValidateSection struct {
	Backends []ValidateResults `json:"backends"`
}

// Audit is the offline guest-vs-host translation validation: it proves
// every unit e installed (Engine.Translations, in head-pc order) against
// its guest block with analysis.ValidateBlock and returns the reports,
// stamped with be's name and the unit's head pc. e must have run with
// Peephole off, so each stream is the finalized one. With peephole,
// Audit first replays the engine's install decision — be's
// backend.Optimizer, then analysis.ValidateRewrite, the optimized stream
// replacing the finalized one only when that proves — and the unit's
// rewrite report precedes its guest report. Both validators sweep from
// fixed seeds, so a rewrite verdict here is the one the engine reached
// when it translated the unit with Peephole on.
func Audit(e *dbt.Engine, be backend.Backend, peephole bool) []*analysis.BlockReport {
	opt, _ := be.(backend.Optimizer)
	var reps []*analysis.BlockReport
	stamp := func(rep *analysis.BlockReport, pc uint32) *analysis.BlockReport {
		rep.Backend, rep.PC = be.Name(), pc
		reps = append(reps, rep)
		return rep
	}
	for _, t := range e.Translations() {
		pc, installed := t.Segs[0].PC, t.Host
		if opt != nil && peephole {
			if ob, st, err := opt.OptimizeBlock(t.Host); err == nil && st.Deleted() > 0 {
				if stamp(analysis.ValidateRewrite(t.Host, ob), pc).Verdict == analysis.VerdictProved {
					installed = ob
				}
			}
		}
		opts := analysis.ValidateOpts{CheckFlags: t.FlagsExact, HaltPC: dbt.HaltPC}
		stamp(analysis.ValidateBlock(t.Segs, installed, opts), pc)
	}
	return reps
}

// ValidateExperiment runs every benchmark under each named backend and
// audits what each run installed, counting per-verdict outcomes, then
// reruns the suite with the peephole optimizer enabled to measure the
// translation-quality ratio it licenses.
func ValidateExperiment(c *Corpus, names []string) (*ValidateSection, error) {
	sec := &ValidateSection{}
	full, _ := core.Parameterize(c.Union(c.Names), core.Config{Opcode: true, AddrMode: true})
	for _, bn := range names {
		be, err := backend.Lookup(bn)
		if err != nil {
			return nil, err
		}
		res := ValidateResults{Backend: be.Name()}
		var baseHost, baseGuest, peepHost, peepGuest uint64
		for _, bench := range c.Names {
			e, r, err := c.RunEngine(bench, dbt.Config{Rules: full, DelegateFlags: true, Backend: be})
			if err != nil {
				return nil, fmt.Errorf("validate %s: %w", be.Name(), err)
			}
			row := ValidateRow{Bench: bench}
			for _, rep := range Audit(e, be, false) {
				switch rep.Verdict {
				case analysis.VerdictProved:
					row.Proved++
				case analysis.VerdictRefuted:
					row.Refuted++
				default:
					row.Fallbacks++
				}
			}
			baseHost += r.Total
			baseGuest += r.Stats.GuestExec
			row.Blocks = row.Proved + row.Fallbacks + row.Refuted
			if row.Blocks > 0 {
				row.ProveRate = float64(row.Proved) / float64(row.Blocks)
			}
			res.Proved += row.Proved
			res.Fallbacks += row.Fallbacks
			res.Refuted += row.Refuted
			res.Rows = append(res.Rows, row)

			rp, err := c.Run(bench, dbt.Config{
				Rules:         full,
				DelegateFlags: true,
				Backend:       be,
				Peephole:      true,
			})
			if err != nil {
				return nil, fmt.Errorf("peephole %s: %w", be.Name(), err)
			}
			peepHost += rp.Total
			peepGuest += rp.Stats.GuestExec
		}
		if t := res.Proved + res.Fallbacks + res.Refuted; t > 0 {
			res.ProveRate = float64(res.Proved) / float64(t)
		}
		if baseGuest > 0 {
			res.RatioBase = float64(baseHost) / float64(baseGuest)
		}
		if peepGuest > 0 {
			res.RatioPeephole = float64(peepHost) / float64(peepGuest)
		}
		sec.Backends = append(sec.Backends, res)
	}
	return sec, nil
}

// RenderValidate formats the validation matrix.
func RenderValidate(s *ValidateSection) string {
	var b strings.Builder
	fmt.Fprintf(&b, "translation validation (offline audit of every installed translation, union-trained rules)\n")
	for _, r := range s.Backends {
		fmt.Fprintf(&b, "%-6s\n", r.Backend)
		fmt.Fprintf(&b, "  %-12s %7s %7s %10s %8s %10s\n",
			"bench", "blocks", "proved", "fallbacks", "refuted", "prove-rate")
		for _, row := range r.Rows {
			fmt.Fprintf(&b, "  %-12s %7d %7d %10d %8d %9.1f%%\n",
				row.Bench, row.Blocks, row.Proved, row.Fallbacks, row.Refuted, 100*row.ProveRate)
		}
		fmt.Fprintf(&b, "  total: %.1f%% proved (%d/%d), %d refuted\n",
			100*r.ProveRate, r.Proved, r.Proved+r.Fallbacks+r.Refuted, r.Refuted)
		fmt.Fprintf(&b, "  peephole payoff: host/guest %.2f -> %.2f\n",
			r.RatioBase, r.RatioPeephole)
	}
	return b.String()
}
