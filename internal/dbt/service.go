package dbt

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"paramdbt/internal/backend"
	"paramdbt/internal/env"
	"paramdbt/internal/mem"
	"paramdbt/internal/obs"
	"paramdbt/internal/rule"
)

// Translation-service metric names (docs/OBSERVABILITY.md).
const (
	// Counters.
	MetServeRequests     = "dbt.serve_requests"
	MetServeCacheHits    = "dbt.serve_cache_hits"
	MetServeDedupHits    = "dbt.serve_dedup_hits"
	MetServeTranslations = "dbt.serve_translations"
	MetServeTenants      = "dbt.serve_tenants"
	MetServePurged       = "dbt.serve_purged"
	// Histogram (telemetry).
	MetServeWaitNs = "dbt.serve_wait_ns"
)

// serviceMetrics caches the service's metric instances (the registry
// lookup takes a lock; see engineMetrics for the same pattern).
type serviceMetrics struct {
	reg *obs.Registry

	requests     *obs.Counter
	cacheHits    *obs.Counter
	dedupHits    *obs.Counter
	translations *obs.Counter
	tenants      *obs.Counter
	purged       *obs.Counter
	waitNs       *obs.Histogram
}

func newServiceMetrics(reg *obs.Registry) *serviceMetrics {
	return &serviceMetrics{
		reg:          reg,
		requests:     reg.Counter(MetServeRequests),
		cacheHits:    reg.Counter(MetServeCacheHits),
		dedupHits:    reg.Counter(MetServeDedupHits),
		translations: reg.Counter(MetServeTranslations),
		tenants:      reg.Counter(MetServeTenants),
		purged:       reg.Counter(MetServePurged),
		waitNs:       reg.Histogram(MetServeWaitNs),
	}
}

// ErrServiceClosed is returned for requests issued against a closed
// service. Engines treat any service error as "translate locally": the
// service is an accelerator, never a correctness dependency.
var ErrServiceClosed = errors.New("dbt: translation service closed")

// ServiceConfig configures a shared translation service. The
// translation-shape fields (DelegateFlags … Peephole) mirror Config:
// a tenant engine attaches only when its own values resolve to the same
// codegen options, because the prototypes the service hands out were
// emitted under these knobs.
type ServiceConfig struct {
	// Rules is the shared rule store. Tenants must be constructed over
	// the same *rule.Store instance to attach.
	Rules *rule.Store
	// Backend is the host backend; nil selects backend.Default().
	Backend backend.Backend

	DelegateFlags bool
	ManualABI     bool
	Peephole      bool

	// Metrics, when non-nil, is the registry the dbt.serve_* family
	// registers in; nil gives the service a private registry (read it
	// back via Service.Metrics).
	Metrics *obs.Registry
}

// serviceKey identifies one prototype translation: the pc plus the
// checksum of the tenant's code image, so two tenants running different
// programs can never alias — and two tenants running the same program
// share every translation. The backend never appears because one
// Service is bound to exactly one backend; tenants on another backend
// do not attach.
type serviceKey struct {
	code uint64
	pc   uint32
}

// svcCall is one in-flight single-flight translation: the leader
// translates it, every duplicate requester parks on done.
type svcCall struct {
	done chan struct{}
	// Results, valid after done is closed.
	tb  *tblock
	err error
}

// tenant is one engine's registration with the service: its code hash
// and the shared read-only code snapshot translations are decoded from.
type tenant struct {
	code uint64
	snap *mem.Memory
}

// Service is the shared, read-mostly core of the multi-tenant
// translator (docs/SERVING.md): one rule store and one prototype
// translation cache serve any number of per-guest Engine facades.
// Tenants attach at construction (Config.Service); a demand miss is
// single-flight deduplicated on (code-hash, pc) — the first tenant to
// miss translates the block on its own goroutine while the others wait
// for it — so N tenants running the same program translate each block
// once. The service owns no goroutines. Per-tenant state — guest
// memory, architectural state, chaining, shadow verification, stats — stays in the Engine: the service hands out
// immutable prototype blocks and each tenant adopts a lightweight clone
// (shared host code and decode results, private link/profile state).
//
// All methods are safe for concurrent use.
type Service struct {
	// tr is the translator every single-flight leader runs, with the
	// leader's own scratch. Its validator verdict counters live on the
	// service registry.
	tr  *translator
	met *serviceMetrics

	cache sync.Map // serviceKey -> *tblock (finished prototypes)

	mu       sync.Mutex
	inflight map[serviceKey]*svcCall
	snaps    map[uint64]*mem.Memory // code hash -> shared code snapshot

	closed atomic.Bool
}

// NewService builds a translation service. Building the translator
// rekeys the rule store for the service's backend, so build the service
// before (or concurrently with — the store tolerates it) its tenants.
func NewService(cfg ServiceConfig) *Service {
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	// Exactly what ServiceConfig carries: no fault plan reaches a shared
	// prototype.
	tc := Config{
		Rules:         cfg.Rules,
		Backend:       cfg.Backend,
		DelegateFlags: cfg.DelegateFlags,
		ManualABI:     cfg.ManualABI,
		Peephole:      cfg.Peephole,
	}
	return &Service{
		tr:       newTranslator(&tc, reg.Counter(MetBlocksValidated), reg.Counter(MetValidateFallbacks)),
		met:      newServiceMetrics(reg),
		inflight: map[serviceKey]*svcCall{},
		snaps:    map[uint64]*mem.Memory{},
	}
}

// Metrics returns the registry holding the dbt.serve_* metrics.
func (s *Service) Metrics() *obs.Registry { return s.met.reg }

// Backend returns the service's resolved host backend.
func (s *Service) Backend() backend.Backend { return s.tr.be }

// Rules returns the shared rule store. Tenant engines must be
// constructed over this exact store to attach.
func (s *Service) Rules() *rule.Store { return s.tr.rules }

// ServiceStats is a point-in-time snapshot of the service counters.
// Every request that does not fail is exactly one of a cache hit, a
// dedup hit or a translation.
type ServiceStats struct {
	Requests     uint64 `json:"requests"`
	CacheHits    uint64 `json:"cache_hits"`
	DedupHits    uint64 `json:"dedup_hits"`
	Translations uint64 `json:"translations"`
	// SpecTranslations, Overloads and MaxQueueDepth always read 0: the
	// service neither speculates nor queues. They remain for readers
	// that still report them.
	SpecTranslations uint64 `json:"spec_translations"`
	Overloads        uint64 `json:"overloads"`
	Tenants          uint64 `json:"tenants"`
	Purged           uint64 `json:"purged"`
	MaxQueueDepth    int64  `json:"max_queue_depth"`
}

// DedupRate is the fraction of requests answered without a fresh
// translation (prototype-cache hits plus single-flight duplicates).
func (st ServiceStats) DedupRate() float64 {
	if st.Requests == 0 {
		return 0
	}
	return float64(st.CacheHits+st.DedupHits) / float64(st.Requests)
}

// Stats snapshots the service counters.
func (s *Service) Stats() ServiceStats {
	return ServiceStats{
		Requests:     s.met.requests.Value(),
		CacheHits:    s.met.cacheHits.Value(),
		DedupHits:    s.met.dedupHits.Value(),
		Translations: s.met.translations.Value(),
		Tenants:      s.met.tenants.Value(),
		Purged:       s.met.purged.Value(),
	}
}

// Closed reports whether Close has been called.
func (s *Service) Closed() bool { return s.closed.Load() }

// Close stops the service accepting requests; later misses translate
// locally. Leaders already translating finish on their own goroutines
// and wake their followers, so there is nothing to drain. Idempotent.
func (s *Service) Close() { s.closed.Store(true) }

// attach registers an engine as a tenant. It returns nil — and the
// engine translates locally, with no service — when the configurations
// are incompatible: prototypes are emitted once under the service's
// translation knobs, so a tenant wanting different codegen must not
// adopt them. Compatible means the tenant's translator would emit the
// same code: same rule store instance, same backend, equal
// codegenOptions. Identical-program tenants share one code snapshot.
func (s *Service) attach(tr *translator, m *mem.Memory) *tenant {
	if s.closed.Load() || tr.translatorID != s.tr.translatorID {
		return nil
	}
	code := m.Checksum(env.CodeBase, env.DataBase)
	s.mu.Lock()
	snap, ok := s.snaps[code]
	if !ok {
		snap = m.CloneBelow(env.DataBase)
		s.snaps[code] = snap
	}
	s.mu.Unlock()
	s.met.tenants.Inc()
	return &tenant{code: code, snap: snap}
}

// request resolves one demand miss through the service. A miss on the
// prototype cache is single-flight: the first requester (the leader)
// translates the block from the shared code snapshot on its own
// goroutine with its scratch tx, publishes it, and wakes every duplicate
// requester parked on the call. request returns the prototype block,
// whether this caller was the leader (exactly one caller per translation
// is, which keeps the tenants' summed dbt.translations equal to the work
// actually done), and an error — ErrServiceClosed after Close, or the
// translation failure itself, which the leader and every follower all
// see. Translator panics come back as errors, and failed translations
// are not cached, so a later request retries from scratch.
func (s *Service) request(t *tenant, pc uint32, tx *txctx) (*tblock, bool, error) {
	s.met.requests.Inc()
	key := serviceKey{code: t.code, pc: pc}
	if tb, ok := s.cache.Load(key); ok {
		s.met.cacheHits.Inc()
		return tb.(*tblock), false, nil
	}
	if s.closed.Load() {
		return nil, false, ErrServiceClosed
	}

	s.mu.Lock()
	c, dup := s.inflight[key]
	if !dup {
		// Re-check under the lock: a leader may have published (and
		// retired its in-flight entry) since the fast-path probe.
		if tb, ok := s.cache.Load(key); ok {
			s.mu.Unlock()
			s.met.cacheHits.Inc()
			return tb.(*tblock), false, nil
		}
		c = &svcCall{done: make(chan struct{})}
		s.inflight[key] = c
	}
	s.mu.Unlock()

	on := obs.On()
	var t0 time.Time
	if on {
		t0 = time.Now()
	}
	if dup {
		s.met.dedupHits.Inc()
		<-c.done
	} else {
		// The in-flight entry is ours, so nothing else can publish key.
		c.tb, c.err = recoverTranslate(pc, func() (*tblock, error) {
			return s.tr.translate(t.snap, pc, tx, nil, nil)
		})
		if c.err == nil {
			s.cache.Store(key, c.tb)
			s.met.translations.Inc()
		}
		s.mu.Lock()
		delete(s.inflight, key)
		s.mu.Unlock()
		close(c.done)
	}
	if on {
		s.met.waitNs.ObserveSince(t0)
	}
	if c.err != nil {
		return nil, false, c.err
	}
	return c.tb, !dup, nil
}

// purgeRules evicts every prototype built from any of the given rule
// templates. Tenants call this when their guard layer quarantines a
// rule, so no future tenant adopts a translation that embeds it (the
// store-level quarantine already keeps it out of fresh translations).
// Template pointers are shared — tenants adopt prototypes whose rules
// slice aliases the service store's templates — so pointer identity is
// the right test.
func (s *Service) purgeRules(guilty map[*rule.Template]bool) {
	if len(guilty) == 0 {
		return
	}
	var n uint64
	s.cache.Range(func(k, v any) bool {
		tb := v.(*tblock)
		for _, t := range tb.rules {
			if guilty[t] {
				s.cache.Delete(k)
				n++
				break
			}
		}
		return true
	})
	if n > 0 {
		s.met.purged.Add(n)
	}
}

// Attached reports whether the engine is currently a tenant of a
// shared translation service (false when attachment was refused, the
// service closed before construction, or an SMC fence detached it).
// Owned by the Run goroutine, like the rest of the engine's
// single-threaded state.
func (e *Engine) Attached() bool { return e.svc != nil }

// adoptProto wraps a service prototype for this tenant: a copy of its
// immutable unit — host code, decoded guest instructions, coverage
// counts, rule provenance and SMC metadata, all shared — plus fresh
// private links and counters for everything the Run goroutine mutates.
func (e *Engine) adoptProto(p *tblock) *tblock {
	tb := &tblock{unit: p.unit}
	tb.links = tb.directLinks(&tb.linkBuf)
	return tb
}
