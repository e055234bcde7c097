package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"paramdbt/internal/guest"
	"paramdbt/internal/minic"
	"paramdbt/internal/workload"
)

// tiny keeps the whole file under 15 s inside `go test ./...`.
var tiny = sizing{steadyScale: 1, coldFuncs: 8, validateFuncs: 4, setups: 1, armPasses: 1, driveBatch: time.Millisecond}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkRecord asserts that a record carries every catalogued metric
// exactly once, with its unit, and no failed op.
func checkRecord(t *testing.T, rec *runRecord, want map[string]string) {
	t.Helper()
	if rec.Failed != 0 || rec.FailShare != 0 || rec.Attempted == 0 {
		t.Errorf("%s trace=%d: fail_share %v (%d/%d)", rec.Workload, rec.Trace, rec.FailShare, rec.Failed, rec.Attempted)
	}
	if len(rec.Metrics) != len(want) {
		t.Errorf("%s trace=%d: %d metrics, catalogue has %d", rec.Workload, rec.Trace, len(rec.Metrics), len(want))
	}
	for name, unit := range want {
		got, ok := rec.Metrics[name]
		if !ok {
			t.Errorf("%s trace=%d: metric %s missing", rec.Workload, rec.Trace, name)
		} else if got.Unit != unit {
			t.Errorf("%s: unit %q, want %q", name, got.Unit, unit)
		}
	}
}

func TestWorkloadsEmitTheCatalogue(t *testing.T) {
	e2e, layers := map[string]string{}, map[string]string{}
	add := func(into map[string]string, name, unit string) {
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) {
			t.Errorf("metric %q unit %q: outside the allowed alphabet", name, unit)
		}
		if e2e[name] != "" || layers[name] != "" {
			t.Errorf("metric name %q is used twice", name)
		}
		into[name] = unit
	}
	for _, m := range endToEnd {
		add(e2e, m.Name, m.Unit)
	}
	for _, m := range perLayer {
		add(layers, m.Name, m.Unit)
	}
	one := budget{passes: 1}
	for _, w := range workloads {
		rec, err := runUntraced(w.Name, 1, one, tiny, false, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		checkRecord(t, rec, e2e)
		for name, v := range rec.Metrics {
			if v.Value <= 0 {
				t.Errorf("%s %s = %v: end-to-end metrics are never 0", w.Name, name, v.Value)
			}
		}

		traced, _, err := runPerLayer(w.Name, 1, one, tiny)
		if err != nil {
			t.Fatal(err)
		}
		checkRecord(t, traced, layers)
		if w.Name == "serve" {
			if traced.Metrics["guard.shadow_checks_per_op"].Value <= 0 {
				t.Error("serve ran no shadow checks")
			}
			continue
		}
		if v := traced.Metrics["guard.shadow_checks_per_op"].Value; v != 0 {
			t.Errorf("%s: %v shadow checks per op with the guard off", w.Name, v)
		}
		// Exact counts repeat bit for bit at a fixed seed.
		again, _, err := runPerLayer(w.Name, 1, one, tiny)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range perLayer {
			if a, b := traced.Metrics[m.Name].Value, again.Metrics[m.Name].Value; m.Exact && a != b {
				t.Errorf("%s %s: %v then %v at the same seed", w.Name, m.Name, a, b)
			}
		}
	}
}

func TestSeedDrivesTheGeneratedPrograms(t *testing.T) {
	images := func(seed int64) [][]guest.Inst {
		var out [][]guest.Inst
		for _, base := range wideBases {
			comp, err := minic.Compile(workload.Generate(wideProfile(profileByName(base), seed, tiny.coldFuncs), 1))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, comp.GuestInsts)
		}
		return out
	}
	if !reflect.DeepEqual(images(1), images(1)) {
		t.Error("the same seed gave different programs")
	}
	if reflect.DeepEqual(images(1), images(2)) {
		t.Error("seeds 1 and 2 gave the same programs")
	}
}

// TestSelftestCatchesACorruptedExpectation is the in-process form of
// `go run ./bench -selftest`.
func TestSelftestCatchesACorruptedExpectation(t *testing.T) {
	rec, err := runUntraced("cold", 1, budget{passes: 1}, tiny, true, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Failed == 0 || rec.FailShare <= 0 {
		t.Errorf("corrupted expectation went unnoticed: %d/%d failed", rec.Failed, rec.Attempted)
	}
}

func TestBenchmarkJSONMatchesTheCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, catalogue %d", spec.RunSeconds, runSeconds)
	}
	if len(spec.Workloads) != len(workloads) || len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d/%d/%d workloads/end-to-end/per-layer entries, catalogue %d/%d/%d",
			len(spec.Workloads), len(spec.EndToEnd), len(spec.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v, catalogue %+v", i, spec.Workloads[i], w)
		}
	}
	for i, m := range endToEnd {
		if g := spec.EndToEnd[i]; g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || g.Bound != m.Bound {
			t.Errorf("end_to_end %d: %+v, catalogue %+v", i, g, m)
		}
	}
	for i, m := range perLayer {
		if g := spec.PerLayer[i]; g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
			t.Errorf("per_layer %d: %+v, catalogue %+v", i, g, m)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := e2eMetric{Name: "op_ms_p50", Better: "lower", Bound: 0.05}
	higher := e2eMetric{Name: "guest_mips", Better: "higher", Bound: 0.05}
	steadyA := []float64{100, 101, 99, 100, 100.5}
	for _, c := range []struct {
		m    e2eMetric
		a, b []float64
		want string
	}{
		{lower, []float64{100}, []float64{104}, "ok"},
		{lower, []float64{100}, []float64{106}, "regressed"},
		{higher, []float64{100}, []float64{94}, "regressed"},
		{higher, []float64{100}, []float64{120}, "ok"},
		{lower, steadyA, []float64{107, 108, 106, 107, 107.5}, "regressed"},
		{lower, []float64{90, 100, 110, 120, 95}, []float64{91, 101, 111, 119, 96}, "unresolved"},
		{lower, []float64{90, 100, 110, 120, 95}, []float64{50, 60, 70, 80, 55}, "ok"},
	} {
		if _, _, _, got := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %v, %v) = %s, want %s", c.m.Name, c.a, c.b, got, c.want)
		}
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if got := spread([]float64{1, 2, 4, 8, 16}); got != (12.0-1.5)/4.0 {
		t.Errorf("spread = %v", got)
	}
}
