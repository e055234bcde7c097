package faultinject

import (
	"strings"
	"testing"

	"paramdbt/internal/host"
	"paramdbt/internal/rule"
)

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan(strings.NewReader(
		`{"corruptRules":1,"translatePanics":2,"panicEvery":3,"decodeErrors":4}`))
	if err != nil {
		t.Fatal(err)
	}
	if p.CorruptRules != 1 || p.TranslatePanics != 2 || p.PanicEvery != 3 || p.DecodeErrors != 4 {
		t.Fatalf("plan fields wrong: %+v", p)
	}
	for _, unknown := range []string{`{"unknownKnob":1}`, `{"dropShards":4}`, `{"seed":7}`} {
		if _, err := ParsePlan(strings.NewReader(unknown)); err == nil {
			t.Fatalf("unknown plan field accepted: %s", unknown)
		}
	}
	if _, err := ParsePlan(strings.NewReader(`not json`)); err == nil {
		t.Fatal("garbage plan accepted")
	}
}

func TestTranslatePanicBudgetAndThinning(t *testing.T) {
	inj := New(Plan{TranslatePanics: 2, PanicEvery: 3})
	var fired []int
	for op := 1; op <= 12; op++ {
		if inj.TranslatePanic(0x100) {
			fired = append(fired, op)
		}
	}
	// Every 3rd opportunity, budget 2: opportunities 3 and 6.
	if len(fired) != 2 || fired[0] != 3 || fired[1] != 6 {
		t.Fatalf("panic injections at %v, want [3 6]", fired)
	}
	panics, _ := inj.Counts()
	if panics != 2 {
		t.Fatalf("Counts panics = %d, want 2", panics)
	}
}

func TestDecodeErrorBudget(t *testing.T) {
	inj := New(Plan{DecodeErrors: 3})
	n := 0
	for op := 0; op < 10; op++ {
		if inj.DecodeError(0x100) {
			n++
		}
	}
	if n != 3 {
		t.Fatalf("decode errors injected %d times, want 3", n)
	}
}

func TestCorruptTemplate(t *testing.T) {
	tm := &rule.Template{
		Guest: []rule.GPat{{}},
		Host: []rule.HPat{
			{Op: host.MOVL},
			{Op: host.ADDL},
		},
	}
	before := tm.Fingerprint()
	if !CorruptTemplate(tm) {
		t.Fatal("template with ADDL reported uncorruptible")
	}
	if tm.Host[1].Op != host.SUBL {
		t.Fatalf("ADDL corrupted to %v, want SUBL", tm.Host[1].Op)
	}
	if tm.Fingerprint() == before {
		t.Fatal("corruption did not change the fingerprint")
	}
	// No swappable op left once MOVL is the only compute op.
	plain := &rule.Template{Guest: []rule.GPat{{}}, Host: []rule.HPat{{Op: host.MOVL}}}
	if CorruptTemplate(plain) {
		t.Fatal("MOVL-only template reported corruptible")
	}
}

func TestCorruptTemplatesDeterministicOrder(t *testing.T) {
	mk := func() []*rule.Template {
		return []*rule.Template{
			{Guest: []rule.GPat{{}}, Host: []rule.HPat{{Op: host.SUBL}}},
			{Guest: []rule.GPat{{}}, Host: []rule.HPat{{Op: host.ADDL}}},
			{Guest: []rule.GPat{{}}, Host: []rule.HPat{{Op: host.MOVL}}}, // uncorruptible
		}
	}
	a := CorruptTemplates(mk(), 2)
	b := CorruptTemplates(mk(), 2)
	if len(a) != 2 || len(b) != 2 || a[0] != b[0] || a[1] != b[1] {
		t.Fatalf("corruption order not deterministic: %v vs %v", a, b)
	}
}
