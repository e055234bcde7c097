package exp

import (
	"fmt"
	"strings"

	"paramdbt/internal/core"
	"paramdbt/internal/dbt"
	"paramdbt/internal/env"
	"paramdbt/internal/guard"
	"paramdbt/internal/guest"
	"paramdbt/internal/mem"
	"paramdbt/internal/workload"
)

// The SMC experiment replays the self-modifying workloads
// (internal/workload/smc.go) on the full engine at shadow rate 1 and
// demands bit-identical final state against the pure reference
// interpreter — registers, flags and all guest memory below the CPUState
// region. Each profile stresses one hazard: write-then-execute in the
// store's own block, cross-block overwrite, overwrite in the later block
// of a chained hot loop, and an instruction of such a loop toggled
// between two encodings. The engines run
// with the corpus's full parameterized rule table, so the invalidated
// translations are the same rule-covered blocks the headline evaluation
// executes. See docs/ROBUSTNESS.md "Self-modifying code".

// SMCRow is one self-modifying workload's engine-vs-interpreter verdict.
type SMCRow struct {
	Name string `json:"name"`
	Desc string `json:"desc"`

	GuestInsts       uint64 `json:"guest_insts"`       // dynamic guest instructions, engine run
	SMCInvalidations uint64 `json:"smc_invalidations"` // translations fenced out by code writes
	SMCSelfAborts    uint64 `json:"smc_self_aborts"`   // executions aborted at their own store
	Divergences      uint64 `json:"divergences"`       // shadow divergences (expect 0)

	Mismatches int  `json:"mismatches"` // register/flag/memory deltas vs the interpreter
	Match      bool `json:"match"`      // final state identical to the interpreter
}

// SMCSection is the self-modifying-code safety report.
type SMCSection struct {
	ShadowRate float64  `json:"shadow_rate"`
	Rows       []SMCRow `json:"rows"`
	AllMatch   bool     `json:"all_match"`
}

// smcHostBudget bounds each engine run; the profiles retire a few
// thousand guest instructions, so this is pure safety margin.
const smcHostBudget = 1 << 30

// SMCExperiment runs every self-modifying profile under the corpus's
// full rule table and compares against the reference interpreter.
func SMCExperiment(c *Corpus) (*SMCSection, error) {
	union := c.Union(c.Names)
	rules, _ := core.Parameterize(union, core.Config{Opcode: true, AddrMode: true})

	s := &SMCSection{ShadowRate: 1, AllMatch: true}
	for _, p := range workload.SMCProfiles() {
		// Reference: the pure interpreter over its own copy of memory —
		// the self-modifying stores land there too, so it replays the
		// exact instruction sequence the guest's writes produce.
		rm := mem.New()
		if err := guest.LoadProgram(rm, env.CodeBase, p.Prog); err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		ref := &guest.State{Mem: rm}
		ref.SetPC(env.CodeBase)
		if _, err := ref.Run(p.MaxGuestInsts); err != nil {
			return nil, fmt.Errorf("%s: interpreter oracle: %w", p.Name, err)
		}
		if !ref.Halted {
			return nil, fmt.Errorf("%s: interpreter oracle did not halt", p.Name)
		}

		m := mem.New()
		if err := guest.LoadProgram(m, env.CodeBase, p.Prog); err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		cfg := dbt.Config{
			Rules:         rules,
			Backend:       c.Backend,
			DelegateFlags: true,
			ShadowRate:    1,
			// Like Run: the section counts translations and fences.
			TranslateFirst: true,
		}
		e := dbt.New(m, cfg)
		e.SetGuestState(&guest.State{Mem: m})
		st, err := e.Run(env.CodeBase, smcHostBudget)
		if err != nil {
			return nil, fmt.Errorf("%s: engine: %w", p.Name, err)
		}

		got := e.GuestState()
		mis := guard.CompareStates(ref, got, true)
		mis = append(mis, guard.CompareMemory(ref.Mem, got.Mem, env.StateBase, 8)...)
		row := SMCRow{
			Name:             p.Name,
			Desc:             p.Desc,
			GuestInsts:       st.GuestExec,
			SMCInvalidations: st.SMCInvalidations,
			SMCSelfAborts:    st.SMCSelfAborts,
			Divergences:      st.Divergences,
			Mismatches:       len(mis),
			Match:            len(mis) == 0 && st.Divergences == 0,
		}
		if !row.Match {
			s.AllMatch = false
		}
		s.Rows = append(s.Rows, row)
	}
	return s, nil
}

// RenderSMC formats the self-modifying-code report.
func RenderSMC(s *SMCSection) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %8s %7s %7s %8s %6s  %s\n",
		"Workload", "insts", "inval", "aborts", "diverge", "state", "scenario")
	for _, r := range s.Rows {
		ok := "match"
		if !r.Match {
			ok = "DIFFER"
		}
		fmt.Fprintf(&b, "%-10s %8d %7d %7d %8d %6s  %s\n",
			r.Name, r.GuestInsts, r.SMCInvalidations, r.SMCSelfAborts,
			r.Divergences, ok, r.Desc)
	}
	fmt.Fprintf(&b, "shadow rate %g, all states %s\n", s.ShadowRate,
		map[bool]string{true: "identical to the reference interpreter", false: "NOT identical — investigate"}[s.AllMatch])
	return b.String()
}
