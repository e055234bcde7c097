package exp

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"paramdbt/internal/core"
	"paramdbt/internal/dbt"
)

// fakeResults builds a small deterministic leave-one-out result set
// without running the DBT, so the extraction/serialization logic is
// tested in microseconds.
func fakeResults() []ModeResults {
	mk := func(total, guest, covered uint64) RunResult {
		return RunResult{
			Stats: dbt.Stats{GuestExec: guest, RuleCovered: covered,
				Blocks: 7, Dispatches: 11, ChainedExits: 89},
			Total: total,
		}
	}
	var out []ModeResults
	for _, name := range []string{"alpha", "beta"} {
		out = append(out, ModeResults{
			Name:  name,
			QEMU:  mk(1000, 100, 0),
			Base:  mk(700, 100, 55),
			Op:    mk(600, 100, 70),
			Mode:  mk(500, 100, 85),
			Flags: mk(400, 100, 95),
			Manual: RunResult{Stats: dbt.Stats{GuestExec: 100, RuleCovered: 100,
				Blocks: 7, Dispatches: 11, ChainedExits: 89}, Total: 390},
		})
	}
	return out
}

// TestReportRoundTrip pins the -json contract: a report marshals to
// valid JSON that unmarshals back to an identical value, sections are
// omitted when unset, and the schema header survives.
func TestReportRoundTrip(t *testing.T) {
	rs := fakeResults()
	counts := core.Counts{Learned: 309, OpcodeParam: 120, AddrModeParam: 80, Instantiated: 86423}
	r := &Report{
		Schema:   ReportSchema,
		Date:     "2026-01-02T03:04:05Z",
		Command:  "experiments -json -",
		GOOS:     "linux",
		GOARCH:   "amd64",
		Scale:    1,
		Backend:  "x86",
		Fig11:    Fig11Data(rs),
		Fig12:    Fig12Data(rs),
		Fig13:    Fig13Data(rs),
		Fig14:    Fig14Data(rs),
		Fig15:    Fig15Data(rs),
		Dispatch: DispatchData(rs),
		Smc: &SMCSection{
			ShadowRate: 1,
			Rows: []SMCRow{
				{Name: "smc-patch", Desc: "write-then-execute in own block", GuestInsts: 1234,
					SMCInvalidations: 2, SMCSelfAborts: 1, Match: true},
			},
			AllMatch: true,
		},
		Table3: &counts,
		Analysis: &AnalysisSection{
			Rules: 310, Sound: 309, Inconclusive: 1,
			ByProof:         map[string]int{"structural": 286, "sweep": 23},
			CorruptedRule:   "add p0, p0, #i1 => subl #i1, p0",
			CorruptedCaught: true, CorruptedWitness: "guest r0 result in host eax at imms map[1:1]",
		},
		Backends: &BackendsSection{
			ShadowRate: 1,
			Backends: []BackendResults{
				{Backend: "x86", Rules: 309, ShadowChecks: 420, Divergences: 0,
					Rows: []BackendRow{{Bench: "alpha", Coverage: 0.95, HostPerGuest: 4.0,
						ShadowChecks: 420, Divergences: 0}}},
				{Backend: "risc", Rules: 309, ShadowChecks: 430, Divergences: 0,
					Rows: []BackendRow{{Bench: "alpha", Coverage: 0.95, HostPerGuest: 5.1,
						ShadowChecks: 430, Divergences: 0}}},
			},
		},
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if !reflect.DeepEqual(r, &back) {
		t.Fatalf("round trip changed the report:\n%+v\n%+v", r, &back)
	}
	if back.Schema != ReportSchema {
		t.Fatalf("schema = %q", back.Schema)
	}

	// Unselected sections must be absent, not null/empty.
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	for _, absent := range []string{"table1", "fig2", "table2", "fig16", "uncovered"} {
		if _, ok := raw[absent]; ok {
			t.Fatalf("unset section %q serialized", absent)
		}
	}
	for _, present := range []string{"schema", "backend", "fig11", "dispatch", "smc", "table3", "analysis", "backends"} {
		if _, ok := raw[present]; !ok {
			t.Fatalf("section %q missing", present)
		}
	}
}

// TestReportDataAgreesWithRenderers spot-checks the extraction against
// the arithmetic the text renderers use.
func TestReportDataAgreesWithRenderers(t *testing.T) {
	rs := fakeResults()
	f11 := Fig11Data(rs)
	if len(f11.Rows) != 2 {
		t.Fatalf("fig11 rows = %d", len(f11.Rows))
	}
	if got, want := f11.Rows[0].Para, Speedup(rs[0].QEMU, rs[0].Flags); got != want {
		t.Fatalf("fig11 para = %v, want %v", got, want)
	}
	if got, want := f11.GeomeanPara, Geomean([]float64{2.5, 2.5}); got != want {
		t.Fatalf("fig11 geomean = %v, want %v", got, want)
	}
	f12 := Fig12Data(rs)
	if got, want := f12.Rows[0].Para, rs[0].Flags.Stats.Coverage(); got != want {
		t.Fatalf("fig12 para = %v, want %v", got, want)
	}
	f14 := Fig14Data(rs)
	if got, want := f14.Rows[1].AddrMode, rs[1].Mode.Stats.Coverage(); got != want {
		t.Fatalf("fig14 addr_mode = %v, want %v", got, want)
	}
	d := DispatchData(rs)
	if got, want := d.Rows[0].ChainRate, rs[0].Flags.Stats.ChainRate(); got != want {
		t.Fatalf("dispatch chain_rate = %v, want %v", got, want)
	}
}
