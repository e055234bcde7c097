package exp

import (
	"testing"

	"paramdbt/internal/backend"
)

// TestServeExperiment is the PR's acceptance gate for multi-tenant
// serving: for every workload × backend, every tenant replayed through
// the shared translation service must reproduce the single-tenant r0
// byte-identically with zero divergences at shadow rate 1, the service
// must actually share work (nonzero dedupe), and its accounting must
// close: every request is shared or translated, and the service's
// translations are exactly the ones the tenants led.
func TestServeExperiment(t *testing.T) {
	c, err := BuildCorpus(1)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate the suite: the whole-corpus replay runs under
	// cmd/experiments; three benchmarks exercise every code path.
	c.Names = c.Names[:3]
	sec, err := ServeExperiment(c, backend.Names(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if sec.Tenants != 2 || len(sec.Backends) != len(backend.Names()) {
		t.Fatalf("got %d backend columns × %d tenants", len(sec.Backends), sec.Tenants)
	}
	for _, r := range sec.Backends {
		if !r.AllMatch {
			t.Errorf("%s: a tenant's result differed from the single-tenant baseline", r.Backend)
		}
		if r.Divergences != 0 {
			t.Errorf("%s: %d divergences under sharing", r.Backend, r.Divergences)
		}
		if len(r.Rows) != len(c.Names) {
			t.Errorf("%s: %d rows, want %d", r.Backend, len(r.Rows), len(c.Names))
		}
		var led uint64
		for _, row := range r.Rows {
			if row.ShadowChecks == 0 {
				t.Errorf("%s/%s: tenants ran unverified", r.Backend, row.Bench)
			}
			led += row.Translations
		}
		if r.ServiceRequests == 0 || r.DedupRate == 0 {
			t.Errorf("%s: tenants did not share through the service: %+v", r.Backend, r)
		}
		if r.ServiceRequests != r.ServiceShared+r.ServiceTranslate {
			t.Errorf("%s: %d requests != %d shared + %d translations",
				r.Backend, r.ServiceRequests, r.ServiceShared, r.ServiceTranslate)
		}
		if r.ServiceTranslate != led {
			t.Errorf("%s: service made %d translations, tenants counted %d", r.Backend, r.ServiceTranslate, led)
		}
		t.Logf("%-5s requests=%d shared=%d (%.3f) translations=%d",
			r.Backend, r.ServiceRequests, r.ServiceShared, r.DedupRate, r.ServiceTranslate)
	}
}
