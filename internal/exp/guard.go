package exp

import (
	"fmt"
	"strings"

	"paramdbt/internal/core"
	"paramdbt/internal/dbt"
	"paramdbt/internal/env"
	"paramdbt/internal/guard/faultinject"
	"paramdbt/internal/guest"
	"paramdbt/internal/host"
	"paramdbt/internal/mem"
	"paramdbt/internal/rule"
)

// GuardSection is the divergence/recovery experiment: one benchmark run
// with a silently corrupted learned rule under full shadow
// verification, demonstrating that the guard layer detects the
// corruption, quarantines the rule, and still finishes with the
// interpreter-correct final state (see docs/ROBUSTNESS.md).
type GuardSection struct {
	Bench           string                 `json:"bench"`
	CorruptedRule   string                 `json:"corrupted_rule"`
	ShadowChecks    uint64                 `json:"shadow_checks"`
	Divergences     uint64                 `json:"divergences"`
	Quarantined     []rule.QuarantineEntry `json:"quarantined"`
	PanicsRecovered uint64                 `json:"panics_recovered"`
	InterpFallbacks uint64                 `json:"interp_fallbacks"`
	FinalStateMatch bool                   `json:"final_state_match"`
}

// guardEngine loads bench into fresh memory and builds an engine. Like
// Run, it translates first and defaults to the corpus-wide backend when
// the config names none.
func (c *Corpus) guardEngine(bench string, cfg dbt.Config) (*dbt.Engine, error) {
	if cfg.Backend == nil {
		cfg.Backend = c.Backend
	}
	cfg.TranslateFirst = true
	m := mem.New()
	if _, err := c.Comp[bench].LoadGuest(m); err != nil {
		return nil, err
	}
	e := dbt.New(m, cfg)
	init := &guest.State{Mem: m}
	init.R[guest.SP] = env.StackTop
	e.SetGuestState(init)
	return e, nil
}

// GuardExperiment corrupts one learned rule the benchmark actually uses
// (found by a preliminary faultless run; an ADDL host op is flipped to
// SUBL, so the rule still matches and instantiates but computes wrong
// values) and re-runs under ShadowRate=1. Rules are trained leave-one-out,
// matching the main evaluation.
func GuardExperiment(c *Corpus, bench string) (*GuardSection, error) {
	union := c.Union(c.Others(bench))
	full, _ := core.Parameterize(union, core.Config{Opcode: true, AddrMode: true})
	cfg := dbt.Config{Rules: full, DelegateFlags: true}

	// Oracle: the pure reference interpreter.
	want, err := c.Comp[bench].RunInterp(4_000_000_000)
	if err != nil {
		return nil, fmt.Errorf("%s: interpreter oracle: %w", bench, err)
	}

	// Preliminary run to discover which rules the benchmark executes.
	warm, err := c.guardEngine(bench, cfg)
	if err != nil {
		return nil, err
	}
	if _, err := warm.Run(env.CodeBase, 4_000_000_000); err != nil {
		return nil, fmt.Errorf("%s: warm run: %w", bench, err)
	}
	var bad *rule.Template
	for _, tm := range warm.CachedRuleTemplates() {
		for _, h := range tm.Host {
			if h.Op == host.ADDL {
				bad = tm
				break
			}
		}
		if bad != nil {
			break
		}
	}
	if bad == nil || !faultinject.CorruptTemplate(bad) {
		return nil, fmt.Errorf("%s: no executed rule with a corruptible host op", bench)
	}

	guarded := cfg
	guarded.ShadowRate = 1
	e, err := c.guardEngine(bench, guarded)
	if err != nil {
		return nil, err
	}
	st, err := e.Run(env.CodeBase, 4_000_000_000)
	if err != nil {
		return nil, fmt.Errorf("%s: guarded run: %w", bench, err)
	}

	got := e.GuestState()
	match := want.R[guest.R0] == got.R[guest.R0] && want.R[guest.SP] == got.R[guest.SP]
	for i := 0; match && i < 256; i++ {
		addr := env.DataBase + uint32(i*4)
		match = want.Mem.Read32(addr) == got.Mem.Read32(addr)
	}

	return &GuardSection{
		Bench:           bench,
		CorruptedRule:   bad.Fingerprint(),
		ShadowChecks:    st.ShadowChecks,
		Divergences:     st.Divergences,
		Quarantined:     full.Quarantined(),
		PanicsRecovered: st.PanicsRecovered,
		InterpFallbacks: st.InterpFallbacks,
		FinalStateMatch: match,
	}, nil
}

// RenderGuard formats the guard experiment.
func RenderGuard(s *GuardSection) string {
	var b strings.Builder
	fmt.Fprintf(&b, "benchmark           %s (one learned rule corrupted, shadow rate 1)\n", s.Bench)
	fmt.Fprintf(&b, "corrupted rule      %s\n", s.CorruptedRule)
	fmt.Fprintf(&b, "shadow checks       %d\n", s.ShadowChecks)
	fmt.Fprintf(&b, "divergences         %d\n", s.Divergences)
	fmt.Fprintf(&b, "quarantined rules   %d\n", len(s.Quarantined))
	for _, q := range s.Quarantined {
		fmt.Fprintf(&b, "  %s (%s)\n", q.Fingerprint, q.Reason)
	}
	fmt.Fprintf(&b, "panics recovered    %d\n", s.PanicsRecovered)
	fmt.Fprintf(&b, "interp fallbacks    %d\n", s.InterpFallbacks)
	fmt.Fprintf(&b, "final state match   %v\n", s.FinalStateMatch)
	return b.String()
}
