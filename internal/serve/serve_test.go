package serve

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"paramdbt/internal/dbt"
	"paramdbt/internal/obs"
)

// These tests cover the serving layer (`make test-serve`, including a
// -race arm — keep the TestServer name prefix, it is the gate's -run
// pattern).

var (
	sharedOnce sync.Once
	sharedSrv  *Server
	sharedErr  error
)

// sharedServer builds one server for the read-only tests (corpus
// compilation and rule learning dominate construction cost).
func sharedServer(t *testing.T) *Server {
	t.Helper()
	sharedOnce.Do(func() { sharedSrv, sharedErr = NewServer(Config{}) })
	if sharedErr != nil {
		t.Fatal(sharedErr)
	}
	return sharedSrv
}

// TestServerTenantsAgree: concurrent tenants of one workload produce
// identical results at full starting shadow rate with zero divergences,
// attached to the service, and their summed translation counts equal
// the service's single-flight leader count.
func TestServerTenantsAgree(t *testing.T) {
	s := sharedServer(t)
	bench := "mcf"
	base := s.Stats()
	sum, err := s.RunTenants(bench, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.R0Uniform {
		t.Fatal("tenants disagreed on r0")
	}
	if sum.Divergences != 0 {
		t.Fatalf("%d divergences across tenants", sum.Divergences)
	}
	var tenantTranslations uint64
	for _, r := range sum.Results {
		if !r.UsedService {
			t.Fatalf("tenant %d ran detached", r.Tenant)
		}
		if r.Stats.ShadowChecks == 0 {
			t.Fatalf("tenant %d ran unverified", r.Tenant)
		}
		tenantTranslations += r.Stats.Translations
	}
	if got := sum.Service.Translations - base.Translations; tenantTranslations != got {
		t.Fatalf("summed tenant translations = %d, service performed %d", tenantTranslations, got)
	}
	if sum.Service.Requests == base.Requests {
		t.Fatal("tenants never reached the service")
	}
}

// TestServerUnknownBench: a bad workload name is a typed error, not a
// panic, and counts nothing.
func TestServerUnknownBench(t *testing.T) {
	s := sharedServer(t)
	if _, err := s.RunTenant("no-such-bench"); err == nil {
		t.Fatal("unknown bench accepted")
	}
}

// TestServerHandler covers the HTTP surface: health, the metrics
// snapshot (serve.* families visible), and the run endpoint.
func TestServerHandler(t *testing.T) {
	s := sharedServer(t)
	h := s.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("healthz = %d %q", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/run?bench=mcf&tenants=2", nil))
	if rec.Code != 200 {
		t.Fatalf("run = %d %q", rec.Code, rec.Body.String())
	}
	var sum RunSummary
	if err := json.Unmarshal(rec.Body.Bytes(), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Tenants != 2 || !sum.R0Uniform || sum.Divergences != 0 {
		t.Fatalf("run summary %+v", sum)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/run", nil))
	if rec.Code != 400 {
		t.Fatalf("missing bench = %d, want 400", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/run?bench=nope", nil))
	if rec.Code != 500 {
		t.Fatalf("unknown bench = %d, want 500", rec.Code)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("metrics = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, name := range []string{MetRuns, MetTenantBlocks, dbt.MetServeRequests} {
		if !strings.Contains(body, name) {
			t.Fatalf("metrics snapshot missing %q", name)
		}
	}
}

// TestServerLoadSmoke is the deterministic small-N load check wired
// into CI: N concurrent tenants, every one starting at shadow rate 1
// with the adaptive controller on, zero divergences, one per-tenant
// accounting row each.
func TestServerLoadSmoke(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	s, err := NewServer(Config{ShadowHalfLife: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const tenants = 24
	sum, err := s.RunTenants("libquantum", tenants)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.R0Uniform || sum.Divergences != 0 {
		t.Fatalf("load smoke: %+v", sum)
	}
	if got := s.Metrics().Counter(MetRuns).Value(); got != tenants {
		t.Fatalf("serve.runs = %d, want %d", got, tenants)
	}
	if got := len(s.tenantBlocks.Labels()); got != tenants {
		t.Fatalf("%d tenant accounting rows, want %d", got, tenants)
	}
	if s.Metrics().Histogram(MetRunNs).Count() != tenants {
		t.Fatal("run latency histogram incomplete")
	}
	if sum.Service.DedupRate() == 0 {
		t.Fatal("no sharing across identical tenants")
	}
	// Adaptive controller active: with tenants starting at rate 1 and a
	// clean run, decayed-below-1 rates must be visible in the gauges.
	decayed := false
	for _, r := range sum.Results {
		if r.ShadowRate < 1 {
			decayed = true
		}
	}
	if !decayed {
		t.Fatal("no tenant's shadow rate decayed on a clean run")
	}
}

// TestServerTenantSeriesBounded: every request is charged to a fresh
// tenant id. Ten thousand of them, and then a real run, must leave each
// per-tenant family at obs.MaxLabelValues members, so the registry's
// series count stays bounded, and each family's total over its members
// must equal everything charged to it.
func TestServerTenantSeriesBounded(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	s := sharedServer(t)
	families := map[string]*obs.CounterVec{
		MetTenantBlocks: s.tenantBlocks, MetTenantGuestInsts: s.tenantInsts,
		MetTenantDivergences: s.tenantDivergences, MetTenantRateSnaps: s.tenantSnaps,
		MetTenantTranslations: s.tenantTranslations,
	}
	totals := func() map[string]uint64 {
		out := map[string]uint64{}
		for name, v := range families {
			for _, l := range v.Labels() {
				out[name] += v.With(l).Value()
			}
		}
		return out
	}
	before, names := totals(), len(s.Metrics().Names())
	charged := map[string]uint64{}
	add := func(st dbt.Stats) {
		charged[MetTenantBlocks] += uint64(st.Blocks)
		charged[MetTenantGuestInsts] += st.GuestExec
		charged[MetTenantDivergences] += st.Divergences
		charged[MetTenantRateSnaps] += st.RateSnaps
		charged[MetTenantTranslations] += st.Translations
	}
	for i := 0; i < 10_000; i++ {
		st := dbt.Stats{Blocks: i%7 + 1, GuestExec: uint64(1000 + i), Divergences: uint64(i % 3),
			RateSnaps: uint64(i % 5), Translations: uint64(i % 11)}
		s.charge(s.next.Add(1), st, 0.5)
		add(st)
	}
	r, err := s.RunTenant("mcf")
	if err != nil {
		t.Fatal(err)
	}
	add(r.Stats)

	after := totals()
	for name, v := range families {
		if n := len(v.Labels()); n != obs.MaxLabelValues {
			t.Errorf("%s: %d members, want %d", name, n, obs.MaxLabelValues)
		}
		if got := after[name] - before[name]; got != charged[name] {
			t.Errorf("%s: members gained %d, charged %d", name, got, charged[name])
		}
	}
	if n := len(s.tenantShadowPPM.Labels()); n > obs.MaxLabelValues {
		t.Errorf("%s: %d members", MetTenantShadowPPM, n)
	}
	if got := len(s.Metrics().Names()); got > names+6*obs.MaxLabelValues {
		t.Fatalf("registry grew from %d to %d series over 10001 requests", names, got)
	}
}

// TestServerGracefulShutdown: Close drains the shared service, flushes
// the final metrics snapshot, and turns the server away cleanly —
// idempotently.
func TestServerGracefulShutdown(t *testing.T) {
	var flush bytes.Buffer
	s, err := NewServer(Config{FlushTo: &flush})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunTenant("mcf"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !s.Service().Closed() {
		t.Fatal("Close did not close the translation service")
	}
	out := flush.String()
	for _, name := range []string{MetRuns, MetTenantBlocks, dbt.MetServeRequests} {
		if !strings.Contains(out, name) {
			t.Fatalf("final flush missing %q", name)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal("second Close not idempotent")
	}
	if n := flush.Len(); n != len(out) {
		t.Fatal("second Close flushed again")
	}
	if _, err := s.RunTenant("mcf"); err == nil {
		t.Fatal("closed server accepted a tenant")
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 503 {
		t.Fatalf("healthz after Close = %d, want 503", rec.Code)
	}
}
