package rule

import (
	"testing"

	"paramdbt/internal/guest"
	"paramdbt/internal/host"
	"paramdbt/internal/obs"
)

// TestLookupTelemetry checks the gated retrieval counters: nothing moves
// while disabled, and the lookup/hit/attempt deltas are exact while
// enabled.
// Deltas, not absolutes — obs.Default is process-wide.
func TestLookupTelemetry(t *testing.T) {
	s := NewStore()
	s.Add(addRMWTemplate())

	hit := guest.MustAssemble("add r3, r3, r7")
	missShape := guest.MustAssemble("sub r3, r3, r7")
	// Same key as the rule, but not read-modify-write: the walk reaches
	// the candidate and the matcher rejects it.
	deepMiss := guest.MustAssemble("add r3, r4, r7")

	obs.SetEnabled(false)
	before := metLookups.Value()
	s.Lookup(hit)
	if metLookups.Value() != before {
		t.Fatal("lookup counted while telemetry disabled")
	}

	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	lk0, hit0, att0 := metLookups.Value(), metLookupHits.Value(), metMatchAttempts.Value()

	if tm, _, n := s.Lookup(hit); tm == nil || n != 1 {
		t.Fatal("expected a hit")
	}
	if tm, _, _ := s.Lookup(missShape); tm != nil {
		t.Fatal("expected a miss")
	}
	var b Binding
	if tm, _ := s.LookupInto(deepMiss, nil, nil, &b); tm != nil {
		t.Fatal("expected a miss")
	}

	if d := metLookups.Value() - lk0; d != 3 {
		t.Fatalf("lookups delta = %d, want 3", d)
	}
	if d := metLookupHits.Value() - hit0; d != 1 {
		t.Fatalf("lookup_hits delta = %d, want 1", d)
	}
	if d := metMatchAttempts.Value() - att0; d != 2 {
		t.Fatalf("match_attempts delta = %d, want 2 (the hit and the deep miss had a candidate)", d)
	}
}

// TestInstantiateTelemetry checks the gated instantiation counter.
func TestInstantiateTelemetry(t *testing.T) {
	tm := addRMWTemplate()
	b, ok := Match(tm, guest.MustAssemble("add r3, r3, r7"))
	if !ok {
		t.Fatal("no match")
	}
	regOf := func(r guest.Reg) (host.Reg, bool) { return host.EBX, true }

	obs.SetEnabled(false)
	before := metInstantiations.Value()
	if _, err := Instantiate(tm, b, regOf, nil); err != nil {
		t.Fatal(err)
	}
	if metInstantiations.Value() != before {
		t.Fatal("instantiation counted while telemetry disabled")
	}

	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	if _, err := Instantiate(tm, b, regOf, nil); err != nil {
		t.Fatal(err)
	}
	if d := metInstantiations.Value() - before; d != 1 {
		t.Fatalf("instantiations delta = %d, want 1", d)
	}
}
