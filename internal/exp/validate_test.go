package exp

import (
	"testing"

	"paramdbt/internal/backend"
	"paramdbt/internal/core"
	"paramdbt/internal/dbt"
)

// TestValidateExperiment is the acceptance gate for translation
// validation: auditing every installed translation of the whole suite
// under every backend, the validator must give each unit exactly one
// verdict, prove at least 95% of them, never emit a confirmed refutation
// (the translator is believed correct; a refutation here is a validator
// or translator bug), and the peephole pass it licenses must measurably
// reduce the risc backend's host-instructions-per-guest-instruction
// ratio.
func TestValidateExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-suite validation is slow")
	}
	c, err := BuildCorpus(1)
	if err != nil {
		t.Fatal(err)
	}
	sec, err := ValidateExperiment(c, backend.Names())
	if err != nil {
		t.Fatal(err)
	}
	if len(sec.Backends) != len(backend.Names()) {
		t.Fatalf("got %d backend columns, want %d", len(sec.Backends), len(backend.Names()))
	}
	full, _ := core.Parameterize(c.Union(c.Names), core.Config{Opcode: true, AddrMode: true})
	for _, r := range sec.Backends {
		total := r.Proved + r.Fallbacks + r.Refuted
		if total == 0 {
			t.Fatalf("%s: no blocks validated", r.Backend)
		}
		installed := 0
		for i, bench := range c.Names {
			e, _, err := c.RunEngine(bench, dbt.Config{Rules: full, DelegateFlags: true, Backend: backend.MustLookup(r.Backend)})
			if err != nil {
				t.Fatal(err)
			}
			n := len(e.Translations())
			if row := r.Rows[i]; row.Bench != bench || row.Blocks != uint64(n) {
				t.Errorf("%s: row %s audits %d units, %s installed %d", r.Backend, row.Bench, row.Blocks, bench, n)
			}
			installed += n
		}
		if total != uint64(installed) {
			t.Errorf("%s: %d verdicts for %d installed units", r.Backend, total, installed)
		}
		if r.Refuted != 0 {
			t.Errorf("%s: %d refuted blocks (translator or validator bug)", r.Backend, r.Refuted)
		}
		if r.ProveRate < 0.95 {
			t.Errorf("%s: prove rate %.1f%% below the 95%% bar (%d/%d)",
				r.Backend, 100*r.ProveRate, r.Proved, total)
		}
		if r.Backend == "risc" && r.RatioPeephole >= r.RatioBase {
			t.Errorf("risc: peephole did not reduce host/guest ratio (%.3f -> %.3f)",
				r.RatioBase, r.RatioPeephole)
		}
		t.Logf("%-5s proved=%d fallback=%d refuted=%d rate=%.1f%% ratio %.3f -> %.3f",
			r.Backend, r.Proved, r.Fallbacks, r.Refuted, 100*r.ProveRate,
			r.RatioBase, r.RatioPeephole)
	}
}
