// Package exp is the experiment harness: one function per table and
// figure of the paper's evaluation (§V), sharing a pre-learned rule
// corpus so the full suite runs in seconds. Each function returns
// structured rows plus a text rendering that mirrors the paper's
// presentation; EXPERIMENTS.md records paper-vs-measured for each.
package exp

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"paramdbt/internal/backend"
	"paramdbt/internal/core"
	"paramdbt/internal/dbt"
	"paramdbt/internal/env"
	"paramdbt/internal/guest"
	"paramdbt/internal/learn"
	"paramdbt/internal/mem"
	"paramdbt/internal/minic"
	"paramdbt/internal/rule"
	"paramdbt/internal/workload"
)

// Corpus holds the compiled benchmarks and their individually learned
// rule stores; every experiment derives its training sets from it.
type Corpus struct {
	Names  []string
	Comp   map[string]*minic.Compiled
	Stores map[string]*rule.Store
	Learn  map[string]learn.Stats
	Scale  int
	// Backend, when non-nil, is the host backend every Run uses unless
	// the per-run Config names one explicitly — it lets cmd/experiments
	// route the whole suite through one backend with a single flag.
	Backend backend.Backend
}

// BuildCorpus compiles and learns every benchmark once. scale sets the
// dynamic work multiplier (1 = reference input).
func BuildCorpus(scale int) (*Corpus, error) {
	c := &Corpus{
		Names:  workload.Names(),
		Comp:   map[string]*minic.Compiled{},
		Stores: map[string]*rule.Store{},
		Learn:  map[string]learn.Stats{},
		Scale:  scale,
	}
	for _, b := range workload.All(scale) {
		comp, err := minic.Compile(b.Prog)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		s := rule.NewStore()
		c.Learn[b.Name] = learn.FromCompiled(comp, s)
		c.Comp[b.Name] = comp
		c.Stores[b.Name] = s
	}
	return c, nil
}

// Union merges the learned stores of the named benchmarks.
func (c *Corpus) Union(names []string) *rule.Store {
	out := rule.NewStore()
	for _, n := range names {
		for _, t := range c.Stores[n].All() {
			cp := *t
			out.Add(&cp)
		}
	}
	return out
}

// Others returns all benchmark names except the given one (leave-one-out
// training, as in the paper).
func (c *Corpus) Others(name string) []string {
	var out []string
	for _, n := range c.Names {
		if n != name {
			out = append(out, n)
		}
	}
	return out
}

// RunResult is one benchmark execution under one configuration.
type RunResult struct {
	Stats    dbt.Stats
	Executed [3]uint64 // host instructions per category
	Total    uint64
	R0       uint32 // final guest r0 (the program's result value)
	// Warm is the warm-start restore outcome (zero unless the Config
	// named an ArtifactDir; see dbt.WarmStats).
	Warm dbt.WarmStats
}

// Run executes a benchmark under the given DBT configuration.
func (c *Corpus) Run(name string, cfg dbt.Config) (RunResult, error) {
	_, r, err := c.RunEngine(name, cfg)
	return r, err
}

// RunEngine is Run that also returns the halted engine, for callers that
// read what it installed (Engine.Translations; see Audit).
func (c *Corpus) RunEngine(name string, cfg dbt.Config) (*dbt.Engine, RunResult, error) {
	if cfg.Backend == nil {
		cfg.Backend = c.Backend
	}
	comp := c.Comp[name]
	m := mem.New()
	if _, err := comp.LoadGuest(m); err != nil {
		return nil, RunResult{}, err
	}
	e := dbt.New(m, cfg)
	init := &guest.State{Mem: m}
	init.R[guest.SP] = env.StackTop
	e.SetGuestState(init)
	st, err := e.Run(env.CodeBase, 4_000_000_000)
	if err != nil {
		return nil, RunResult{}, fmt.Errorf("%s: %w", name, err)
	}
	return e, RunResult{Stats: st, Executed: e.CPU.Executed, Total: e.CPU.Total(),
		R0: e.GuestState().R[guest.R0], Warm: e.WarmStats()}, nil
}

// Geomean computes the geometric mean of positive values.
func Geomean(vs []float64) float64 {
	s := 0.0
	for _, v := range vs {
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vs)))
}

// ---- Table I ----

// Table1Row mirrors the paper's Table I columns.
type Table1Row struct {
	Name       string `json:"name"`
	Statements int    `json:"statements"`
	Candidates int    `json:"candidates"`
	Learned    int    `json:"learned"`
	Unique     int    `json:"unique"`
}

// Table1 reports the learning funnel per benchmark.
func Table1(c *Corpus) []Table1Row {
	var rows []Table1Row
	for _, n := range c.Names {
		st := c.Learn[n]
		rows = append(rows, Table1Row{n, st.Statements, st.Candidates, st.Learned, st.Unique})
	}
	return rows
}

// RenderTable1 formats Table I like the paper (with the percentage
// footer row).
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %10s %10s %8s %7s\n", "Benchmark", "Statement", "Candidate", "Learned", "Unique")
	var ts, tc, tl, tu int
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %10d %10d %8d %7d\n", r.Name, r.Statements, r.Candidates, r.Learned, r.Unique)
		ts += r.Statements
		tc += r.Candidates
		tl += r.Learned
		tu += r.Unique
	}
	n := len(rows)
	fmt.Fprintf(&b, "%-12s %10d %10d %8d %7d\n", "Avg.", ts/n, tc/n, tl/n, tu/n)
	fmt.Fprintf(&b, "%-12s %9.1f%% %9.1f%% %7.1f%% %6.1f%%\n", "Percent",
		100.0, 100*float64(tc)/float64(ts), 100*float64(tl)/float64(ts), 100*float64(tu)/float64(ts))
	return b.String()
}

// ---- Fig 2 ----

// Fig2Point is the learned-rule count after adding the k-th training
// benchmark.
type Fig2Point struct {
	K     int    `json:"k"`
	Bench string `json:"bench"`
	Rules int    `json:"rules"`
}

// Fig2 grows the training set one benchmark at a time (perlbench first,
// as in the paper's footnote) and reports cumulative unique rules.
func Fig2(c *Corpus, seed int64) []Fig2Point {
	order := append([]string(nil), c.Names...)
	// perlbench first, rest shuffled deterministically.
	r := rand.New(rand.NewSource(seed))
	rest := order[1:]
	r.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })

	var points []Fig2Point
	acc := rule.NewStore()
	for k, n := range order {
		for _, t := range c.Stores[n].All() {
			cp := *t
			acc.Add(&cp)
		}
		points = append(points, Fig2Point{K: k + 1, Bench: n, Rules: acc.Len()})
	}
	return points
}

// RenderFig2 formats the growth curve.
func RenderFig2(points []Fig2Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %-12s %s\n", "k", "added", "cumulative rules")
	for _, p := range points {
		fmt.Fprintf(&b, "%-4d %-12s %5d %s\n", p.K, p.Bench, p.Rules, strings.Repeat("#", p.Rules/4))
	}
	return b.String()
}

// ---- Figures 11-15 and Table II: leave-one-out evaluation ----

// Modes evaluated per benchmark.
type ModeResults struct {
	Name  string
	QEMU  RunResult
	Base  RunResult // learned rules only (the enhanced learning baseline)
	Op    RunResult // + opcode parameterization
	Mode  RunResult // + addressing-mode parameterization
	Flags RunResult // + condition-flag delegation (full system)
	// Manual adds the hand-written ABI/special translations (paper
	// §V-B2's "100% coverage" remark).
	Manual RunResult

	Counts core.Counts // Table III accounting for this training set
}

// LeaveOneOut evaluates every benchmark with rules trained on the other
// eleven, under all five configurations.
func LeaveOneOut(c *Corpus) ([]ModeResults, error) {
	var out []ModeResults
	for _, n := range c.Names {
		union := c.Union(c.Others(n))
		opOnly, _ := core.Parameterize(union, core.Config{Opcode: true})
		full, counts := core.Parameterize(union, core.Config{Opcode: true, AddrMode: true})

		mr := ModeResults{Name: n, Counts: counts}
		var err error
		if mr.QEMU, err = c.Run(n, dbt.Config{}); err != nil {
			return nil, err
		}
		if mr.Base, err = c.Run(n, dbt.Config{Rules: union}); err != nil {
			return nil, err
		}
		if mr.Op, err = c.Run(n, dbt.Config{Rules: opOnly}); err != nil {
			return nil, err
		}
		if mr.Mode, err = c.Run(n, dbt.Config{Rules: full}); err != nil {
			return nil, err
		}
		if mr.Flags, err = c.Run(n, dbt.Config{Rules: full, DelegateFlags: true}); err != nil {
			return nil, err
		}
		if mr.Manual, err = c.Run(n, dbt.Config{Rules: full, DelegateFlags: true, ManualABI: true}); err != nil {
			return nil, err
		}
		out = append(out, mr)
	}
	return out, nil
}

// Speedup computes a/b as host-instruction-count ratio (performance is
// proportional to instructions executed; see DESIGN.md).
func Speedup(baseline, improved RunResult) float64 {
	return float64(baseline.Total) / float64(improved.Total)
}

// RenderFig11 formats speedups over QEMU for w/o-para and para.
func RenderFig11(d *SpeedupSection) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %8s %8s %8s\n", "Benchmark", "qemu", "w/o para", "para")
	for _, r := range d.Rows {
		fmt.Fprintf(&b, "%-12s %8.2f %8.2f %8.2f\n", r.Name, 1.0, r.WithoutPara, r.Para)
	}
	fmt.Fprintf(&b, "%-12s %8.2f %8.2f %8.2f\n", "geomean", 1.0, d.GeomeanWithoutPara, d.GeomeanPara)
	return b.String()
}

// RenderFig12 formats dynamic coverage for w/o-para and para, plus the
// §V-B2 manual-rules column that closes the remaining gap.
func RenderFig12(d *CoverageSection) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %10s %10s %10s\n", "Benchmark", "w/o para", "para", "+manual")
	for _, r := range d.Rows {
		fmt.Fprintf(&b, "%-12s %9.1f%% %9.1f%% %9.1f%%\n", r.Name, 100*r.WithoutPara, 100*r.Para, 100*r.Manual)
	}
	fmt.Fprintf(&b, "%-12s %9.1f%% %9.1f%% %9.1f%%\n", "geomean",
		100*d.GeomeanWithoutPara, 100*d.GeomeanPara, 100*d.GeomeanManual)
	return b.String()
}

// ratio returns dynamic host instructions per guest instruction.
func ratio(r RunResult) float64 {
	return float64(r.Total) / float64(r.Stats.GuestExec)
}

// RenderFig13 formats the host-per-guest instruction expansion.
func RenderFig13(d *RatioSection) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %8s %10s %8s\n", "Benchmark", "qemu", "w/o para", "para")
	for _, r := range d.Rows {
		fmt.Fprintf(&b, "%-12s %8.2f %10.2f %8.2f\n", r.Name, r.QEMU, r.WithoutPara, r.Para)
	}
	fmt.Fprintf(&b, "%-12s %8.2f %10.2f %8.2f\n", "geomean", d.GeomeanQEMU, d.GeomeanWithoutPara, d.GeomeanPara)
	return b.String()
}

// Table2Row mirrors the paper's Table II: host instructions per guest
// instruction by category.
type Table2Row struct {
	Name           string  `json:"name"`
	RuleTranslated float64 `json:"rule_translated"` // compute insts per guest inst, para mode
	QEMUTranslated float64 `json:"qemu_translated"` // compute insts per guest inst, qemu mode
	DataTransfer   float64 `json:"data_transfer"`   // guest-register maintenance, para mode
	ControlCode    float64 `json:"control_code"`    // block stubs, para mode
	RuleTotal      float64 `json:"rule_total"`
	QEMUTotal      float64 `json:"qemu_total"`
}

// Table2 measures the per-category breakdown from the category-tagged
// execution counters.
func Table2(rs []ModeResults) []Table2Row {
	var rows []Table2Row
	for _, r := range rs {
		g := float64(r.Flags.Stats.GuestExec)
		gq := float64(r.QEMU.Stats.GuestExec)
		rows = append(rows, Table2Row{
			Name:           r.Name,
			RuleTranslated: float64(r.Flags.Executed[0]) / g,
			QEMUTranslated: float64(r.QEMU.Executed[0]) / gq,
			DataTransfer:   float64(r.Flags.Executed[1]) / g,
			ControlCode:    float64(r.Flags.Executed[2]) / g,
			RuleTotal:      float64(r.Flags.Total) / g,
			QEMUTotal:      float64(r.QEMU.Total) / gq,
		})
	}
	return rows
}

// RenderTable2 formats Table II.
func RenderTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %10s %10s %9s %9s %10s %10s\n",
		"Benchmark", "Rule tr.", "QEMU tr.", "Data", "Control", "Rule tot", "QEMU tot")
	var sums [6]float64
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %10.2f %10.2f %9.2f %9.2f %10.2f %10.2f\n",
			r.Name, r.RuleTranslated, r.QEMUTranslated, r.DataTransfer, r.ControlCode, r.RuleTotal, r.QEMUTotal)
		sums[0] += r.RuleTranslated
		sums[1] += r.QEMUTranslated
		sums[2] += r.DataTransfer
		sums[3] += r.ControlCode
		sums[4] += r.RuleTotal
		sums[5] += r.QEMUTotal
	}
	n := float64(len(rows))
	fmt.Fprintf(&b, "%-12s %10.2f %10.2f %9.2f %9.2f %10.2f %10.2f\n",
		"Average", sums[0]/n, sums[1]/n, sums[2]/n, sums[3]/n, sums[4]/n, sums[5]/n)
	return b.String()
}

// RenderFig14 formats the coverage ablation (w/o, +opcode, +mode, +cond).
func RenderFig14(d *AblationSection) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %9s %9s %10s %10s\n", "Benchmark", "w/o para", "opcode", "addr mode", "condition")
	for _, r := range d.Rows {
		fmt.Fprintf(&b, "%-12s %8.1f%% %8.1f%% %9.1f%% %9.1f%%\n", r.Name,
			100*r.Base, 100*r.Opcode, 100*r.AddrMode, 100*r.Cond)
	}
	fmt.Fprintf(&b, "%-12s %8.1f%% %8.1f%% %9.1f%% %9.1f%%\n", "geomean",
		100*d.GeomeanBase, 100*d.GeomeanOpcode, 100*d.GeomeanAddrMode, 100*d.GeomeanCond)
	return b.String()
}

// RenderFig15 formats the speedup ablation over QEMU.
func RenderFig15(d *AblationSection) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %9s %9s %10s %10s\n", "Benchmark", "w/o para", "opcode", "addr mode", "condition")
	for _, r := range d.Rows {
		fmt.Fprintf(&b, "%-12s %9.2f %9.2f %10.2f %10.2f\n", r.Name, r.Base, r.Opcode, r.AddrMode, r.Cond)
	}
	fmt.Fprintf(&b, "%-12s %9.2f %9.2f %10.2f %10.2f\n", "geomean",
		d.GeomeanBase, d.GeomeanOpcode, d.GeomeanAddrMode, d.GeomeanCond)
	return b.String()
}

// RenderDispatch formats the dispatcher/chaining breakdown of the full
// configuration per benchmark: distinct blocks, dispatcher round trips,
// chained block exits, and the fraction of block transitions that
// bypassed the dispatcher via translation-block chaining.
func RenderDispatch(d *DispatchSection) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %8s %11s %11s %9s\n", "Benchmark", "blocks", "dispatches", "chained", "%chained")
	for _, r := range d.Rows {
		fmt.Fprintf(&b, "%-12s %8d %11d %11d %8.1f%%\n",
			r.Name, r.Blocks, r.Dispatches, r.Chained, 100*r.ChainRate)
	}
	fmt.Fprintf(&b, "%-12s %8s %11s %11s %8.1f%%\n", "mean", "", "", "", 100*d.MeanChainRate)
	return b.String()
}

// ---- Fig 16: training-set size sweep ----

// Fig16Point is the average coverage with k random training benchmarks.
type Fig16Point struct {
	K       int     `json:"k"`
	CovBase float64 `json:"cov_base"`
	CovPara float64 `json:"cov_para"`
}

// Fig16 sweeps training-set sizes 1..maxK with `repeats` random draws
// each (the paper uses 5), applying the rules to the non-training
// benchmarks and averaging coverage.
func Fig16(c *Corpus, maxK, repeats int, seed int64) ([]Fig16Point, error) {
	r := rand.New(rand.NewSource(seed))
	var out []Fig16Point
	for k := 1; k <= maxK; k++ {
		var base, para []float64
		for rep := 0; rep < repeats; rep++ {
			perm := r.Perm(len(c.Names))
			train := map[string]bool{}
			var trainNames []string
			for _, i := range perm[:k] {
				train[c.Names[i]] = true
				trainNames = append(trainNames, c.Names[i])
			}
			sort.Strings(trainNames)
			union := c.Union(trainNames)
			full, _ := core.Parameterize(union, core.Config{Opcode: true, AddrMode: true})
			// Evaluate on up to 4 held-out benchmarks (keeps the sweep fast
			// without changing the trend).
			evald := 0
			for _, i := range perm[k:] {
				if evald >= 4 {
					break
				}
				n := c.Names[i]
				rb, err := c.Run(n, dbt.Config{Rules: union})
				if err != nil {
					return nil, err
				}
				rp, err := c.Run(n, dbt.Config{Rules: full, DelegateFlags: true})
				if err != nil {
					return nil, err
				}
				base = append(base, rb.Stats.Coverage())
				para = append(para, rp.Stats.Coverage())
				evald++
			}
		}
		out = append(out, Fig16Point{K: k, CovBase: mean(base), CovPara: mean(para)})
	}
	return out, nil
}

func mean(vs []float64) float64 {
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// RenderFig16 formats the sweep.
func RenderFig16(points []Fig16Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %10s %10s\n", "size", "w/o para", "para")
	for _, p := range points {
		fmt.Fprintf(&b, "%-6d %9.1f%% %9.1f%%\n", p.K, 100*p.CovBase, 100*p.CovPara)
	}
	return b.String()
}

// ---- Table III ----

// Table3 reports the rule accounting over the full 12-benchmark corpus.
func Table3(c *Corpus) core.Counts {
	union := c.Union(c.Names)
	_, counts := core.Parameterize(union, core.Config{Opcode: true, AddrMode: true})
	return counts
}

// RenderTable3 formats Table III.
func RenderTable3(counts core.Counts) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %8s\n", "Approaches", "Rules")
	fmt.Fprintf(&b, "%-28s %8d\n", "Orig. learned rules", counts.Learned)
	fmt.Fprintf(&b, "%-28s %8d\n", "Opcode para.", counts.OpcodeParam)
	fmt.Fprintf(&b, "%-28s %8d\n", "Addressing mode para.", counts.AddrModeParam)
	fmt.Fprintf(&b, "%-28s %8d\n", "Instantiated (applicable)", counts.Instantiated)
	return b.String()
}

// UncoveredKinds lists the distinct opcodes still emulated under the
// full configuration, sorted by dynamic frequency — the analog of the
// paper's seven uncoverable instructions.
func UncoveredKinds(rs []ModeResults) []string {
	total := map[guest.Op]uint64{}
	for _, r := range rs {
		for op, n := range r.Flags.Stats.UncoveredOps {
			total[op] += n
		}
	}
	type kv struct {
		op guest.Op
		n  uint64
	}
	var list []kv
	for op, n := range total {
		list = append(list, kv{op, n})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].n != list[j].n {
			return list[i].n > list[j].n
		}
		return list[i].op < list[j].op
	})
	var out []string
	for _, e := range list {
		out = append(out, e.op.String())
	}
	return out
}
