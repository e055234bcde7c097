package exp

import (
	"encoding/json"
	"io"

	"paramdbt/internal/core"
)

// ReportSchema identifies the JSON layout Report marshals to; bump it
// when a section's shape changes so downstream consumers can detect
// incompatibility instead of silently misreading fields.
// v2 added the "analysis" section (static rule audit verdict counts).
// v3 added the "backends" section (per-backend workload matrix under
// shadow verification) and the top-level "backend" provenance field.
// v4 added the "trace" section (hot-trace superblock formation and
// dispatch statistics).
// v5 added the "warmstart" section (cold-vs-warm artifact-store
// comparison: translation counts, restored blocks/traces, wall clock).
// v6 added the "smc" section (self-modifying workloads vs the reference
// interpreter at shadow rate 1).
// v7 added the "validate" section (per-backend translation-validation
// verdicts and the peephole host/guest payoff).
// v8 added the "serve" section (multi-tenant shared-service replay:
// per-backend tenant-vs-baseline result matrix and service dedupe
// counters).
// v9 dropped the serve section's "service_spec_translations" (the
// service no longer speculates).
// v10 dropped the "warmstart" section (the engine persists nothing; the
// code-cache warm start did not pay, DESIGN.md "Does not pay").
// v11 dropped the "trace" section and the smc rows' "traces_formed" (hot
// traces did not pay and are gone, DESIGN.md "Hot traces: does not
// pay").
const ReportSchema = "paramdbt-experiments/v11"

// Report is the machine-readable form of the experiment suite, written
// by cmd/experiments -json in the same spirit as the checked-in
// BENCH_*.json files: a provenance header plus named sections of typed
// rows. Sections deselected by -only are omitted from the JSON.
type Report struct {
	Schema  string `json:"schema"`
	Date    string `json:"date,omitempty"`
	Command string `json:"command,omitempty"`
	GOOS    string `json:"goos,omitempty"`
	GOARCH  string `json:"goarch,omitempty"`
	Scale   int    `json:"scale"`
	// Backend names the host backend the run's engines translated for
	// (empty means the default, x86).
	Backend string `json:"backend,omitempty"`

	Table1    []Table1Row      `json:"table1,omitempty"`
	Fig2      []Fig2Point      `json:"fig2,omitempty"`
	Fig11     *SpeedupSection  `json:"fig11,omitempty"`
	Fig12     *CoverageSection `json:"fig12,omitempty"`
	Fig13     *RatioSection    `json:"fig13,omitempty"`
	Table2    []Table2Row      `json:"table2,omitempty"`
	Fig14     *AblationSection `json:"fig14,omitempty"`
	Fig15     *AblationSection `json:"fig15,omitempty"`
	Fig16     []Fig16Point     `json:"fig16,omitempty"`
	Table3    *core.Counts     `json:"table3,omitempty"`
	Dispatch  *DispatchSection `json:"dispatch,omitempty"`
	Guard     *GuardSection    `json:"guard,omitempty"`
	Analysis  *AnalysisSection `json:"analysis,omitempty"`
	Backends  *BackendsSection `json:"backends,omitempty"`
	Smc       *SMCSection      `json:"smc,omitempty"`
	Validate  *ValidateSection `json:"validate,omitempty"`
	Serve     *ServeSection    `json:"serve,omitempty"`
	Uncovered []string         `json:"uncovered,omitempty"`
}

// WriteJSON writes the report, indented, to w.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// SpeedupRow is one benchmark of Fig 11 (speedup over QEMU).
type SpeedupRow struct {
	Name        string  `json:"name"`
	WithoutPara float64 `json:"without_para"`
	Para        float64 `json:"para"`
}

// SpeedupSection is Fig 11 with its geomean footer.
type SpeedupSection struct {
	Rows               []SpeedupRow `json:"rows"`
	GeomeanWithoutPara float64      `json:"geomean_without_para"`
	GeomeanPara        float64      `json:"geomean_para"`
}

// Fig11Data extracts the Fig 11 rows RenderFig11 prints.
func Fig11Data(rs []ModeResults) *SpeedupSection {
	s := &SpeedupSection{}
	var wos, ps []float64
	for _, r := range rs {
		wo, p := Speedup(r.QEMU, r.Base), Speedup(r.QEMU, r.Flags)
		wos = append(wos, wo)
		ps = append(ps, p)
		s.Rows = append(s.Rows, SpeedupRow{r.Name, wo, p})
	}
	s.GeomeanWithoutPara = Geomean(wos)
	s.GeomeanPara = Geomean(ps)
	return s
}

// CoverageRow is one benchmark of Fig 12 (dynamic coverage).
type CoverageRow struct {
	Name        string  `json:"name"`
	WithoutPara float64 `json:"without_para"`
	Para        float64 `json:"para"`
	Manual      float64 `json:"manual"`
}

// CoverageSection is Fig 12 with its geomean footer.
type CoverageSection struct {
	Rows               []CoverageRow `json:"rows"`
	GeomeanWithoutPara float64       `json:"geomean_without_para"`
	GeomeanPara        float64       `json:"geomean_para"`
	GeomeanManual      float64       `json:"geomean_manual"`
}

// Fig12Data extracts the Fig 12 rows RenderFig12 prints.
func Fig12Data(rs []ModeResults) *CoverageSection {
	s := &CoverageSection{}
	var wos, ps, ms []float64
	for _, r := range rs {
		wo, p, m := r.Base.Stats.Coverage(), r.Flags.Stats.Coverage(), r.Manual.Stats.Coverage()
		wos = append(wos, wo)
		ps = append(ps, p)
		ms = append(ms, m)
		s.Rows = append(s.Rows, CoverageRow{r.Name, wo, p, m})
	}
	s.GeomeanWithoutPara = Geomean(wos)
	s.GeomeanPara = Geomean(ps)
	s.GeomeanManual = Geomean(ms)
	return s
}

// RatioRow is one benchmark of Fig 13 (host instructions per guest
// instruction).
type RatioRow struct {
	Name        string  `json:"name"`
	QEMU        float64 `json:"qemu"`
	WithoutPara float64 `json:"without_para"`
	Para        float64 `json:"para"`
}

// RatioSection is Fig 13 with its geomean footer.
type RatioSection struct {
	Rows               []RatioRow `json:"rows"`
	GeomeanQEMU        float64    `json:"geomean_qemu"`
	GeomeanWithoutPara float64    `json:"geomean_without_para"`
	GeomeanPara        float64    `json:"geomean_para"`
}

// Fig13Data extracts the Fig 13 rows RenderFig13 prints.
func Fig13Data(rs []ModeResults) *RatioSection {
	s := &RatioSection{}
	var qs, wos, ps []float64
	for _, r := range rs {
		q, wo, p := ratio(r.QEMU), ratio(r.Base), ratio(r.Flags)
		qs = append(qs, q)
		wos = append(wos, wo)
		ps = append(ps, p)
		s.Rows = append(s.Rows, RatioRow{r.Name, q, wo, p})
	}
	s.GeomeanQEMU = Geomean(qs)
	s.GeomeanWithoutPara = Geomean(wos)
	s.GeomeanPara = Geomean(ps)
	return s
}

// AblationRow is one benchmark of Figs 14/15: the value under each
// cumulative parameterization factor.
type AblationRow struct {
	Name     string  `json:"name"`
	Base     float64 `json:"base"`      // learned rules only
	Opcode   float64 `json:"opcode"`    // + opcode parameterization
	AddrMode float64 `json:"addr_mode"` // + addressing-mode parameterization
	Cond     float64 `json:"cond"`      // + condition-flag delegation
}

// AblationSection is a Fig 14/15 table with its geomean footer.
type AblationSection struct {
	Rows            []AblationRow `json:"rows"`
	GeomeanBase     float64       `json:"geomean_base"`
	GeomeanOpcode   float64       `json:"geomean_opcode"`
	GeomeanAddrMode float64       `json:"geomean_addr_mode"`
	GeomeanCond     float64       `json:"geomean_cond"`
}

func ablation(rs []ModeResults, metric func(RunResult, ModeResults) float64) *AblationSection {
	s := &AblationSection{}
	var a, o, m, f []float64
	for _, r := range rs {
		row := AblationRow{
			Name:     r.Name,
			Base:     metric(r.Base, r),
			Opcode:   metric(r.Op, r),
			AddrMode: metric(r.Mode, r),
			Cond:     metric(r.Flags, r),
		}
		a = append(a, row.Base)
		o = append(o, row.Opcode)
		m = append(m, row.AddrMode)
		f = append(f, row.Cond)
		s.Rows = append(s.Rows, row)
	}
	s.GeomeanBase = Geomean(a)
	s.GeomeanOpcode = Geomean(o)
	s.GeomeanAddrMode = Geomean(m)
	s.GeomeanCond = Geomean(f)
	return s
}

// Fig14Data extracts the coverage ablation RenderFig14 prints.
func Fig14Data(rs []ModeResults) *AblationSection {
	return ablation(rs, func(r RunResult, _ ModeResults) float64 { return r.Stats.Coverage() })
}

// Fig15Data extracts the speedup ablation RenderFig15 prints.
func Fig15Data(rs []ModeResults) *AblationSection {
	return ablation(rs, func(r RunResult, mr ModeResults) float64 { return Speedup(mr.QEMU, r) })
}

// DispatchRow is one benchmark of the dispatcher/chaining breakdown.
type DispatchRow struct {
	Name       string  `json:"name"`
	Blocks     int     `json:"blocks"`
	Dispatches uint64  `json:"dispatches"`
	Chained    uint64  `json:"chained"`
	ChainRate  float64 `json:"chain_rate"`
}

// DispatchSection is the chaining table with its mean footer.
type DispatchSection struct {
	Rows          []DispatchRow `json:"rows"`
	MeanChainRate float64       `json:"mean_chain_rate"`
}

// DispatchData extracts the rows RenderDispatch prints.
func DispatchData(rs []ModeResults) *DispatchSection {
	s := &DispatchSection{}
	var rates []float64
	for _, r := range rs {
		st := r.Flags.Stats
		rates = append(rates, st.ChainRate())
		s.Rows = append(s.Rows, DispatchRow{r.Name, st.Blocks, st.Dispatches, st.ChainedExits, st.ChainRate()})
	}
	s.MeanChainRate = mean(rates)
	return s
}
