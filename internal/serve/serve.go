// Package serve is the multi-tenant translation server: one shared
// dbt.Service (rule store, single-flight prototype cache) fronted by
// per-request tenant engines, with per-tenant SLO accounting
// on labeled obs metric families. cmd/paradbtd wraps it in an HTTP
// server; the bench serve workload and the experiments serve section
// drive it directly. See docs/SERVING.md.
package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"paramdbt/internal/backend"
	"paramdbt/internal/core"
	"paramdbt/internal/dbt"
	"paramdbt/internal/env"
	"paramdbt/internal/exp"
	"paramdbt/internal/guest"
	"paramdbt/internal/mem"
	"paramdbt/internal/obs"
)

// Server-level metric names (docs/OBSERVABILITY.md). The serve.tenant_*
// names are vector bases: each tenant gets a member registered under
// the derived name `base{tenant="<id>"}` (see obs.CounterVec) — the
// first obs.MaxLabelValues-1 tenants do; later ones share
// `base{tenant="other"}`.
const (
	// Counters.
	MetRuns      = "serve.runs"       // tenant workload runs completed
	MetRunErrors = "serve.run_errors" // tenant workload runs that failed

	// Per-tenant counter families (SLO accounting).
	MetTenantBlocks       = "serve.tenant_blocks"       // distinct blocks the tenant executed
	MetTenantGuestInsts   = "serve.tenant_guest_insts"  // guest instructions the tenant retired
	MetTenantDivergences  = "serve.tenant_divergences"  // shadow divergences charged to the tenant
	MetTenantRateSnaps    = "serve.tenant_rate_snaps"   // adaptive-controller snaps in the tenant's runs
	MetTenantShadowPPM    = "serve.tenant_shadow_ppm"   // gauge: tenant's shadow rate after its last run, ppm
	MetTenantTranslations = "serve.tenant_translations" // translations the tenant led (single-flight leader)

	// Histogram (telemetry).
	MetRunNs = "serve.run_ns" // per-tenant end-to-end run latency
)

// Config configures a Server. The zero value serves the full workload
// suite at scale 1, every tenant starting at shadow rate 1 with the
// adaptive controller on.
type Config struct {
	// Scale is the workload dynamic-work multiplier (default 1).
	Scale int

	// ShadowRate is each tenant's starting shadow-verification rate
	// (default 1: every tenant starts fully verified). NoShadow
	// disables verification entirely (paradbtd -shadow-rate 0; the
	// serving default keeps the guard on).
	ShadowRate float64
	NoShadow   bool
	// NoAdaptive turns off the per-tenant guard controller, which is on
	// by default and halves each tenant's rate every ShadowHalfLife
	// consecutive clean checks (dbt.Config.ShadowHalfLife's default
	// applies when zero).
	NoAdaptive     bool
	ShadowHalfLife uint64

	// Backend is the host backend; nil selects backend.Default().
	Backend backend.Backend
	// FlushTo, when non-nil, receives a final JSON metrics snapshot
	// when the server closes (the graceful-shutdown stats flush).
	FlushTo io.Writer
}

// Server shares one translation service across tenant engines.
type Server struct {
	cfg    Config
	corpus *exp.Corpus
	svc    *dbt.Service
	reg    *obs.Registry

	runs      *obs.Counter
	runErrors *obs.Counter
	runNs     *obs.Histogram

	tenantBlocks       *obs.CounterVec
	tenantInsts        *obs.CounterVec
	tenantDivergences  *obs.CounterVec
	tenantSnaps        *obs.CounterVec
	tenantTranslations *obs.CounterVec
	tenantShadowPPM    *obs.GaugeVec

	next    atomic.Uint64
	closing sync.Once
	closed  atomic.Bool
	flushed error
}

// NewServer builds the corpus, parameterizes the union rule store and
// starts the shared translation service.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	if cfg.ShadowRate == 0 && !cfg.NoShadow {
		cfg.ShadowRate = 1
	}
	corpus, err := exp.BuildCorpus(cfg.Scale)
	if err != nil {
		return nil, err
	}
	rules, _ := core.Parameterize(corpus.Union(corpus.Names), core.Config{Opcode: true, AddrMode: true})
	reg := obs.NewRegistry()
	svc := dbt.NewService(dbt.ServiceConfig{
		Rules:         rules,
		Backend:       cfg.Backend,
		DelegateFlags: true,
		Metrics:       reg,
	})
	return &Server{
		cfg:                cfg,
		corpus:             corpus,
		svc:                svc,
		reg:                reg,
		runs:               reg.Counter(MetRuns),
		runErrors:          reg.Counter(MetRunErrors),
		runNs:              reg.Histogram(MetRunNs),
		tenantBlocks:       reg.CounterVec(MetTenantBlocks, "tenant"),
		tenantInsts:        reg.CounterVec(MetTenantGuestInsts, "tenant"),
		tenantDivergences:  reg.CounterVec(MetTenantDivergences, "tenant"),
		tenantSnaps:        reg.CounterVec(MetTenantRateSnaps, "tenant"),
		tenantTranslations: reg.CounterVec(MetTenantTranslations, "tenant"),
		tenantShadowPPM:    reg.GaugeVec(MetTenantShadowPPM, "tenant"),
	}, nil
}

// Metrics returns the server's registry (serve.* plus dbt.serve_*).
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Service returns the shared translation service.
func (s *Server) Service() *dbt.Service { return s.svc }

// Benches lists the servable workload names.
func (s *Server) Benches() []string { return append([]string(nil), s.corpus.Names...) }

// Stats snapshots the shared service's counters.
func (s *Server) Stats() dbt.ServiceStats { return s.svc.Stats() }

// TenantResult is one tenant workload execution.
type TenantResult struct {
	Tenant      uint64    `json:"tenant"`
	Bench       string    `json:"bench"`
	R0          uint32    `json:"r0"`
	Stats       dbt.Stats `json:"stats"`
	ShadowRate  float64   `json:"shadow_rate_now"`
	ElapsedNs   int64     `json:"elapsed_ns"`
	UsedService bool      `json:"used_service"`
}

// RunTenant executes the named workload as a fresh tenant: a private
// engine (own guest memory, architectural state, code cache, shadow
// controller) attached to the shared service, charged to a new tenant
// id in the per-tenant metric families. Safe to call concurrently; each
// call is one tenant.
func (s *Server) RunTenant(bench string) (TenantResult, error) {
	comp, ok := s.corpus.Comp[bench]
	if !ok {
		return TenantResult{}, fmt.Errorf("serve: unknown bench %q", bench)
	}
	if s.closed.Load() {
		return TenantResult{}, fmt.Errorf("serve: server closed")
	}
	id := s.next.Add(1)
	m := mem.New()
	if _, err := comp.LoadGuest(m); err != nil {
		return TenantResult{}, err
	}
	rate := s.cfg.ShadowRate
	if s.cfg.NoShadow {
		rate = 0
	}
	e := dbt.New(m, dbt.Config{
		Rules:          s.svc.Rules(),
		Backend:        s.cfg.Backend,
		DelegateFlags:  true,
		ShadowRate:     rate,
		ShadowSeed:     int64(id),
		AdaptiveShadow: rate > 0 && !s.cfg.NoAdaptive,
		ShadowHalfLife: s.cfg.ShadowHalfLife,
		Service:        s.svc,
	})
	init := &guest.State{Mem: m}
	init.R[guest.SP] = env.StackTop
	e.SetGuestState(init)
	t0 := time.Now()
	st, err := e.Run(env.CodeBase, 4_000_000_000)
	elapsed := time.Since(t0)
	if err != nil {
		s.runErrors.Inc()
		return TenantResult{}, fmt.Errorf("tenant %d %s: %w", id, bench, err)
	}
	s.runs.Inc()
	s.charge(id, st, e.ShadowRateNow())
	if obs.On() {
		s.runNs.Observe(uint64(elapsed.Nanoseconds()))
	}
	return TenantResult{
		Tenant:      id,
		Bench:       bench,
		R0:          e.GuestState().R[guest.R0],
		Stats:       st,
		ShadowRate:  e.ShadowRateNow(),
		ElapsedNs:   elapsed.Nanoseconds(),
		UsedService: e.Attached(),
	}, nil
}

// charge books one tenant run into the per-tenant metric families under
// the tenant's id. A family holds at most obs.MaxLabelValues members:
// once the first tenants have filled it, later ones are charged to the
// shared obs.OtherLabel member, so a daemon's registry stays bounded
// however many requests it serves, and a family's total over its
// members still counts every run.
func (s *Server) charge(id uint64, st dbt.Stats, shadowRate float64) {
	label := strconv.FormatUint(id, 10)
	s.tenantBlocks.With(label).Add(uint64(st.Blocks))
	s.tenantInsts.With(label).Add(st.GuestExec)
	s.tenantDivergences.With(label).Add(st.Divergences)
	s.tenantSnaps.With(label).Add(st.RateSnaps)
	s.tenantTranslations.With(label).Add(st.Translations)
	if obs.On() {
		s.tenantShadowPPM.With(label).Set(int64(shadowRate * 1e6))
	}
}

// RunSummary aggregates one RunTenants fan-out (the /run response
// body).
type RunSummary struct {
	Bench       string           `json:"bench"`
	Tenants     int              `json:"tenants"`
	R0          uint32           `json:"r0"`
	R0Uniform   bool             `json:"r0_uniform"`
	Divergences uint64           `json:"divergences"`
	RateSnaps   uint64           `json:"rate_snaps"`
	Service     dbt.ServiceStats `json:"service"`
	Results     []TenantResult   `json:"results,omitempty"`
}

// RunTenants runs n concurrent tenants of the named workload and
// aggregates their results.
func (s *Server) RunTenants(bench string, n int) (RunSummary, error) {
	if n <= 0 {
		n = 1
	}
	results := make([]TenantResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.RunTenant(bench)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return RunSummary{}, err
		}
	}
	sum := RunSummary{Bench: bench, Tenants: n, R0: results[0].R0, R0Uniform: true, Results: results}
	for _, r := range results {
		if r.R0 != sum.R0 {
			sum.R0Uniform = false
		}
		sum.Divergences += r.Stats.Divergences
		sum.RateSnaps += r.Stats.RateSnaps
	}
	sum.Service = s.svc.Stats()
	return sum, nil
}

// Handler returns the HTTP surface: /healthz, /metrics (registry JSON
// snapshot), and /run?bench=<name>&tenants=<n>[&detail=1].
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if s.closed.Load() {
			http.Error(w, `{"status":"closing"}`, http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	mux.Handle("/metrics", s.reg.Handler())
	mux.HandleFunc("/run", func(w http.ResponseWriter, r *http.Request) {
		bench := r.URL.Query().Get("bench")
		if bench == "" {
			names := s.Benches()
			sort.Strings(names)
			http.Error(w, fmt.Sprintf("missing ?bench=; one of %v", names), http.StatusBadRequest)
			return
		}
		n, _ := strconv.Atoi(r.URL.Query().Get("tenants"))
		if n <= 0 {
			n = 1
		}
		if n > 16384 {
			http.Error(w, "tenants capped at 16384", http.StatusBadRequest)
			return
		}
		sum, err := s.RunTenants(bench, n)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if r.URL.Query().Get("detail") == "" {
			sum.Results = nil
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	return mux
}

// Close closes the translation service (see dbt.Service.Close) and,
// when Config.FlushTo is set, writes the final metrics snapshot — the
// serving layer's graceful shutdown. Idempotent; returns the flush
// error, if any.
func (s *Server) Close() error {
	s.closing.Do(func() {
		s.closed.Store(true)
		s.svc.Close()
		if s.cfg.FlushTo != nil {
			s.flushed = s.reg.WriteJSON(s.cfg.FlushTo)
		}
	})
	return s.flushed
}
