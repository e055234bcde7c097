package exp

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"paramdbt/internal/artifact"
	"paramdbt/internal/backend"
	"paramdbt/internal/core"
	"paramdbt/internal/dbt"
	"paramdbt/internal/learn"
	"paramdbt/internal/obs"
	"paramdbt/internal/rule"
)

// The warm-start experiment measures what persistence buys: the full
// suite runs twice against one artifact store — a cold pass that
// populates it (and publishes the parameterized rule table as a pack),
// then a warm pass whose engines import the pack instead of deriving
// rules and restore their code caches instead of translating. Both
// passes run at shadow rate 1, so "identical results" is not just the
// final r0 but every block execution differentially verified against
// the reference interpreter. See docs/PERSISTENCE.md for the
// walkthrough this experiment automates.

// warmHotThreshold forms traces aggressively enough that the cold pass
// publishes superblocks for every loopy benchmark.
const warmHotThreshold = 16

// WarmstartRow is one benchmark's cold-vs-warm comparison.
type WarmstartRow struct {
	Name string `json:"name"`

	ColdTranslations uint64 `json:"cold_translations"` // demand translations, cold pass
	WarmTranslations uint64 `json:"warm_translations"` // demand translations, warm pass (0 = fully restored)
	RestoredBlocks   int    `json:"restored_blocks"`   // blocks rebuilt from the manifest before the warm run
	RestoredTraces   int    `json:"restored_traces"`   // superblocks re-formed from recorded traces

	ColdDivergences uint64 `json:"cold_divergences"` // shadow divergences, cold pass (expect 0)
	WarmDivergences uint64 `json:"warm_divergences"` // shadow divergences, warm pass (expect 0)
	R0Match         bool   `json:"r0_match"`         // warm final r0 == cold final r0
}

// WarmstartSection is the cold-vs-warm report: per-benchmark rows plus
// the pack-import funnel and the aggregate deltas.
type WarmstartSection struct {
	Rows []WarmstartRow `json:"rows"`

	PackRules    int   `json:"pack_rules"`    // templates the warm pass imported
	PackRejected int   `json:"pack_rejected"` // templates the admission gate refused on import
	Quarantined  int   `json:"quarantined"`   // rules demoted by the store's quarantine shard on warm start
	ColdNs       int64 `json:"cold_ns"`       // wall clock, cold pass (suite total)
	WarmNs       int64 `json:"warm_ns"`       // wall clock, warm pass (suite total)

	ColdTranslations uint64 `json:"cold_translations"` // suite total
	WarmTranslations uint64 `json:"warm_translations"` // suite total
}

// warmstartCfg is the per-run configuration both passes share; only the
// rule store differs (derived cold, imported warm).
func warmstartCfg(rules *rule.Store, dir string) dbt.Config {
	return dbt.Config{
		Rules:         rules,
		DelegateFlags: true,
		ShadowRate:    1,
		HotThreshold:  warmHotThreshold,
		ArtifactDir:   dir,
	}
}

// WarmstartExperiment runs the suite cold into the artifact store at
// dir, publishes the rule pack, then reruns it warm from the store and
// compares. dir should be empty or absent (a populated store would make
// the "cold" pass warm).
func WarmstartExperiment(c *Corpus, dir string) (*WarmstartSection, error) {
	be := c.Backend
	if be == nil {
		be = backend.Default()
	}
	st, err := artifact.Open(dir, obs.NewRegistry())
	if err != nil {
		return nil, err
	}

	// Rules for the cold pass: the full-corpus parameterized table, the
	// configuration the paper's headline numbers use.
	union := c.Union(c.Names)
	full, _ := core.Parameterize(union, core.Config{Opcode: true, AddrMode: true})

	s := &WarmstartSection{}
	cold := make(map[string]RunResult, len(c.Names))
	t0 := time.Now()
	for _, n := range c.Names {
		r, err := c.Run(n, warmstartCfg(full, dir))
		if err != nil {
			return nil, fmt.Errorf("cold %s: %w", n, err)
		}
		cold[n] = r
		s.ColdTranslations += r.Stats.Translations
	}
	s.ColdNs = time.Since(t0).Nanoseconds()

	// Publish the rule table as a pack. The pack key carries RuleFp 0 —
	// the pack defines the rule set — and a version suffix naming how the
	// table was derived, so differently-derived packs never collide.
	var buf bytes.Buffer
	if err := full.Save(&buf); err != nil {
		return nil, err
	}
	packKey := artifact.Key{Backend: be.ID(), Version: dbt.EngineVersion + "#exp=warmstart"}
	if err := st.Put(artifact.KindRulePack, packKey, buf.Bytes()); err != nil {
		return nil, err
	}

	// The warm pass derives nothing: rules come from the pack (gated by
	// the same admission audit the learning pipeline applies), and each
	// engine restores its code cache from the manifest the cold pass
	// published for its guest image.
	payload, res := st.Get(artifact.KindRulePack, packKey)
	if res != artifact.Hit {
		return nil, fmt.Errorf("rule pack not readable back (result %d)", res)
	}
	imported, istats, err := learn.ImportPack(bytes.NewReader(payload), false)
	if err != nil {
		return nil, fmt.Errorf("importing rule pack: %w", err)
	}
	s.PackRules = istats.Loaded
	s.PackRejected = istats.GateRejected

	t0 = time.Now()
	for _, n := range c.Names {
		r, err := c.Run(n, warmstartCfg(imported, dir))
		if err != nil {
			return nil, fmt.Errorf("warm %s: %w", n, err)
		}
		cr := cold[n]
		s.Rows = append(s.Rows, WarmstartRow{
			Name:             n,
			ColdTranslations: cr.Stats.Translations,
			WarmTranslations: r.Stats.Translations,
			RestoredBlocks:   r.Warm.Blocks,
			RestoredTraces:   r.Warm.Traces,
			ColdDivergences:  cr.Stats.Divergences,
			WarmDivergences:  r.Stats.Divergences,
			R0Match:          r.R0 == cr.R0,
		})
		s.WarmTranslations += r.Stats.Translations
		if r.Warm.Quarantined > s.Quarantined {
			s.Quarantined = r.Warm.Quarantined
		}
	}
	s.WarmNs = time.Since(t0).Nanoseconds()
	return s, nil
}

// RenderWarmstart formats the cold-vs-warm comparison.
func RenderWarmstart(s *WarmstartSection) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %10s %10s %9s %8s %7s %6s\n",
		"Benchmark", "cold tx", "warm tx", "restored", "traces", "diverge", "r0")
	for _, r := range s.Rows {
		ok := "match"
		if !r.R0Match {
			ok = "DIFFER"
		}
		fmt.Fprintf(&b, "%-12s %10d %10d %9d %8d %7d %6s\n",
			r.Name, r.ColdTranslations, r.WarmTranslations, r.RestoredBlocks,
			r.RestoredTraces, r.ColdDivergences+r.WarmDivergences, ok)
	}
	fmt.Fprintf(&b, "%-12s %10d %10d\n", "total", s.ColdTranslations, s.WarmTranslations)
	fmt.Fprintf(&b, "pack: %d rules imported, %d gate-rejected; wall clock cold %.1fms warm %.1fms\n",
		s.PackRules, s.PackRejected,
		float64(s.ColdNs)/1e6, float64(s.WarmNs)/1e6)
	return b.String()
}
