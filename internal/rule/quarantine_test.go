package rule

import (
	"bytes"
	"sync"
	"testing"

	"paramdbt/internal/guest"
)

func TestQuarantineFiltersLookup(t *testing.T) {
	s := sampleStore(t)
	seq := guest.MustAssemble("cmp r2, r5\nbne #3")
	tm, _, n := s.Lookup(seq)
	if tm == nil || n != 2 {
		t.Fatalf("precondition: branch-tail rule should match (n=%d)", n)
	}
	if !s.Quarantine(tm, "test") {
		t.Fatal("first quarantine should report newly quarantined")
	}
	if s.Quarantine(tm, "again") {
		t.Fatal("second quarantine of the same rule should report false")
	}
	if !s.IsQuarantined(tm) || s.QuarantineLen() != 1 {
		t.Fatalf("quarantine state wrong: is=%v len=%d", s.IsQuarantined(tm), s.QuarantineLen())
	}
	if got, _, _ := s.Lookup(seq); got == tm {
		t.Fatal("quarantined rule still returned by Lookup")
	}
	if !s.Unquarantine(tm) {
		t.Fatal("unquarantine should succeed")
	}
	if got, _, n := s.Lookup(seq); got != tm || n != 2 {
		t.Fatalf("rule not restored after unquarantine (n=%d)", n)
	}
}

func TestLookupFilteredSkip(t *testing.T) {
	s := sampleStore(t)
	seq := guest.MustAssemble("cmp r2, r5\nbne #3")
	tm, _, _ := s.Lookup(seq)
	if tm == nil {
		t.Fatal("precondition: rule should match")
	}
	var b Binding
	got, _ := s.LookupInto(seq, nil, func(x *Template) bool { return x == tm }, &b)
	if got == tm {
		t.Fatal("skip predicate ignored")
	}
}

func TestQuarantinePersistRoundTrip(t *testing.T) {
	s := sampleStore(t)
	seq := guest.MustAssemble("cmp r2, r5\nbne #3")
	tm, _, _ := s.Lookup(seq)
	if tm == nil {
		t.Fatal("precondition: rule should match")
	}
	s.Quarantine(tm, "shadow divergence at pc=0x10000")

	entries := s.Quarantined()
	if len(entries) != 1 || entries[0].Fingerprint != tm.Fingerprint() || entries[0].Reason == "" {
		t.Fatalf("bad quarantine entries: %+v", entries)
	}
	var qbuf bytes.Buffer
	if err := SaveQuarantine(&qbuf, entries); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadQuarantine(bytes.NewReader(qbuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	// A freshly loaded rule table plus the persisted quarantine file
	// must re-demote the same rule.
	var tbuf bytes.Buffer
	if err := s.Save(&tbuf); err != nil {
		t.Fatal(err)
	}
	fresh, _, err := LoadGated(bytes.NewReader(tbuf.Bytes()), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := fresh.ApplyQuarantine(loaded); n != 1 {
		t.Fatalf("ApplyQuarantine matched %d rules, want 1", n)
	}
	if got, _, _ := fresh.Lookup(seq); got != nil && got.Fingerprint() == tm.Fingerprint() {
		t.Fatal("re-quarantined rule still returned by Lookup")
	}

	// Entries for rules absent from the table are ignored.
	if n := fresh.ApplyQuarantine([]QuarantineEntry{{Fingerprint: "no such rule"}}); n != 0 {
		t.Fatalf("phantom entry matched %d rules", n)
	}
}

// TestQuarantineSurvivesBackendRekey pins the contract that quarantine
// is keyed by backend-neutral fingerprints while retrieval keys are
// backend-namespaced: a quarantine file written while the table served
// backend A must still demote the same rule after the table is rekeyed
// for backend B (the restart-under-a-different-backend scenario).
func TestQuarantineSurvivesBackendRekey(t *testing.T) {
	s := sampleStore(t)
	s.SetBackendID(0) // backend A: the default x86 namespace
	seq := guest.MustAssemble("cmp r2, r5\nbne #3")
	tm, _, _ := s.Lookup(seq)
	if tm == nil {
		t.Fatal("precondition: rule should match")
	}
	s.Quarantine(tm, "shadow divergence under backend A")

	var qbuf, tbuf bytes.Buffer
	if err := SaveQuarantine(&qbuf, s.Quarantined()); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(&tbuf); err != nil {
		t.Fatal(err)
	}
	entries, err := LoadQuarantine(bytes.NewReader(qbuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	fresh, _, err := LoadGated(bytes.NewReader(tbuf.Bytes()), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh.SetBackendID(1) // restart under backend B
	if fresh.KeySeed() == KeyFpSeed {
		t.Fatal("SetBackendID(1) did not change the retrieval key seed")
	}
	if got, _, _ := fresh.Lookup(seq); got == nil || got.Fingerprint() != tm.Fingerprint() {
		t.Fatal("precondition: rule should match under the rekeyed table before quarantine")
	}
	if n := fresh.ApplyQuarantine(entries); n != 1 {
		t.Fatalf("ApplyQuarantine matched %d rules under backend B, want 1", n)
	}
	if got, _, _ := fresh.Lookup(seq); got != nil && got.Fingerprint() == tm.Fingerprint() {
		t.Fatal("rule quarantined under backend A still served under backend B")
	}

	// And back: rekeying again must not resurrect the rule.
	fresh.SetBackendID(0)
	if got, _, _ := fresh.Lookup(seq); got != nil && got.Fingerprint() == tm.Fingerprint() {
		t.Fatal("rekeying back to backend A resurrected a quarantined rule")
	}
}

func TestLoadQuarantineRejectsCorrupt(t *testing.T) {
	if _, err := LoadQuarantine(bytes.NewReader([]byte("not json"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := LoadQuarantine(bytes.NewReader([]byte(`{"rule":"x"}`))); err == nil {
		t.Fatal("entry without fingerprint accepted")
	}
}

// TestQuarantineConcurrentWithLookups exercises the documented
// contract that Quarantine may race live lookups (run under -race via
// the race-obs make target).
func TestQuarantineConcurrentWithLookups(t *testing.T) {
	s := sampleStore(t)
	seq := guest.MustAssemble("cmp r2, r5\nbne #3")
	tm, _, _ := s.Lookup(seq)
	if tm == nil {
		t.Fatal("precondition: rule should match")
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					s.Lookup(seq)
				}
			}
		}()
	}
	for i := 0; i < 100; i++ {
		s.Quarantine(tm, "flap")
		s.Unquarantine(tm)
	}
	close(stop)
	wg.Wait()
}
