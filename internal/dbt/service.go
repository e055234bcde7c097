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
	MetServeRequests         = "dbt.serve_requests"
	MetServeCacheHits        = "dbt.serve_cache_hits"
	MetServeDedupHits        = "dbt.serve_dedup_hits"
	MetServeTranslations     = "dbt.serve_translations"
	MetServeSpecTranslations = "dbt.serve_spec_translations"
	MetServeOverloads        = "dbt.serve_overloads"
	MetServeTenants          = "dbt.serve_tenants"
	MetServePurged           = "dbt.serve_purged"
	// Gauge (telemetry).
	MetServeQueueDepth = "dbt.serve_queue_depth"
	// Histogram (telemetry).
	MetServeWaitNs = "dbt.serve_wait_ns"
)

// serviceMetrics caches the service's metric instances (the registry
// lookup takes a lock; see engineMetrics for the same pattern).
type serviceMetrics struct {
	reg *obs.Registry

	requests         *obs.Counter
	cacheHits        *obs.Counter
	dedupHits        *obs.Counter
	translations     *obs.Counter
	specTranslations *obs.Counter
	overloads        *obs.Counter
	tenants          *obs.Counter
	purged           *obs.Counter
	queueDepth       *obs.Gauge
	waitNs           *obs.Histogram
}

func newServiceMetrics(reg *obs.Registry) *serviceMetrics {
	return &serviceMetrics{
		reg:              reg,
		requests:         reg.Counter(MetServeRequests),
		cacheHits:        reg.Counter(MetServeCacheHits),
		dedupHits:        reg.Counter(MetServeDedupHits),
		translations:     reg.Counter(MetServeTranslations),
		specTranslations: reg.Counter(MetServeSpecTranslations),
		overloads:        reg.Counter(MetServeOverloads),
		tenants:          reg.Counter(MetServeTenants),
		purged:           reg.Counter(MetServePurged),
		queueDepth:       reg.Gauge(MetServeQueueDepth),
		waitNs:           reg.Histogram(MetServeWaitNs),
	}
}

// Typed service errors. Engines treat any service error as "translate
// locally": the service is an accelerator, never a correctness
// dependency.
var (
	// ErrServiceOverloaded is returned when the bounded demand queue is
	// full — the backpressure signal.
	ErrServiceOverloaded = errors.New("dbt: translation service overloaded")
	// ErrServiceClosed is returned for requests issued against a closed
	// (or closing) service.
	ErrServiceClosed = errors.New("dbt: translation service closed")
)

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

	// Workers is the number of translation worker goroutines (default
	// 4). Negative means zero workers — nothing drains the queues; only
	// tests use that to make backpressure deterministic.
	Workers int
	// QueueDepth bounds the demand queue (default 256). A demand
	// request arriving at a full queue fails fast with
	// ErrServiceOverloaded instead of parking the tenant.
	QueueDepth int
	// SpecDepth bounds the speculative queue (default 1024; negative
	// disables speculation). Speculative jobs are dropped, not errored,
	// when their queue is full, and workers only pick one up when no
	// demand request is waiting.
	SpecDepth int

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
// enqueues it, every duplicate requester parks on done.
type svcCall struct {
	key  serviceKey
	snap *mem.Memory
	done chan struct{}
	// Results, valid after done is closed.
	tb    *tblock
	err   error
	fresh bool // this call performed the translation (vs found it cached)
}

// tenant is one engine's registration with the service: its code hash
// and the shared read-only code snapshot translations are decoded from.
type tenant struct {
	code uint64
	snap *mem.Memory
}

// Service is the shared, read-mostly core of the multi-tenant
// translator (docs/SERVING.md): one rule store, one prototype
// translation cache, and one batched translation queue serve any number
// of per-guest Engine facades. Tenants attach at construction
// (Config.Service); a demand miss becomes a queue request that is
// single-flight deduplicated on (code-hash, pc), so N tenants running
// the same program translate each block once. Per-tenant state — guest
// memory, architectural state, chaining, hotness, superblocks, shadow
// verification, stats — stays in the Engine: the service hands out
// immutable prototype blocks and each tenant adopts a lightweight clone
// (shared host code and decode results, private link/profile state).
//
// All methods are safe for concurrent use.
type Service struct {
	// tr is the translator the workers share (with per-worker scratch),
	// exactly as an engine's pool jobs share the engine's. Its validator
	// verdict counters live on the service registry.
	tr  *translator
	met *serviceMetrics

	cache sync.Map // serviceKey -> *tblock (finished prototypes)

	mu       sync.Mutex
	inflight map[serviceKey]*svcCall
	snaps    map[uint64]*mem.Memory // code hash -> shared code snapshot

	// pool runs demand requests as hi jobs and speculation as lo jobs (no
	// lo queue when speculation is disabled). Its quit channel, closed as
	// Close starts the drain, also releases tenants parked in request.
	pool     *pool
	closed   atomic.Bool
	maxDepth atomic.Int64
}

// NewService builds a translation service and starts its workers.
// Building the translator rekeys the rule store for the service's
// backend, so build the service before (or concurrently with — the store
// tolerates it) its tenants.
func NewService(cfg ServiceConfig) *Service {
	workers := cfg.Workers
	switch {
	case workers == 0:
		workers = 4
	case workers < 0:
		workers = 0
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	specDepth := cfg.SpecDepth
	if specDepth == 0 {
		specDepth = 1024
	}
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
		pool:     newPool(workers, cfg.QueueDepth, specDepth),
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
type ServiceStats struct {
	Requests         uint64 `json:"requests"`
	CacheHits        uint64 `json:"cache_hits"`
	DedupHits        uint64 `json:"dedup_hits"`
	Translations     uint64 `json:"translations"`
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
		Requests:         s.met.requests.Value(),
		CacheHits:        s.met.cacheHits.Value(),
		DedupHits:        s.met.dedupHits.Value(),
		Translations:     s.met.translations.Value(),
		SpecTranslations: s.met.specTranslations.Value(),
		Overloads:        s.met.overloads.Value(),
		Tenants:          s.met.tenants.Value(),
		Purged:           s.met.purged.Value(),
		MaxQueueDepth:    s.maxDepth.Load(),
	}
}

// CachedBlocks reports the number of prototype translations resident.
func (s *Service) CachedBlocks() int {
	n := 0
	s.cache.Range(func(any, any) bool { n++; return true })
	return n
}

// Closed reports whether Close has been called.
func (s *Service) Closed() bool { return s.closed.Load() }

// Close drains the service: no new demand requests are accepted,
// workers finish every request already queued (tenants may be parked on
// them), speculation is dropped, and the workers exit. Idempotent.
func (s *Service) Close() {
	if s.closed.Swap(true) {
		return
	}
	s.pool.close(true)
}

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

// request resolves one demand miss through the service. It returns the
// prototype block, whether this caller's request caused the translation
// (the leader of a fresh single-flight — exactly one caller per
// translation sees leader=true, which keeps the tenants' summed
// dbt.translations equal to the work actually done), and an error —
// ErrServiceOverloaded on backpressure, ErrServiceClosed during
// shutdown, or the translation failure itself.
func (s *Service) request(t *tenant, pc uint32) (*tblock, bool, error) {
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
		// Re-check under the lock: a worker may have finished (and
		// retired the in-flight entry) since the fast-path probe.
		if tb, ok := s.cache.Load(key); ok {
			s.mu.Unlock()
			s.met.cacheHits.Inc()
			return tb.(*tblock), false, nil
		}
		c = &svcCall{key: key, snap: t.snap, done: make(chan struct{})}
		s.inflight[key] = c
	}
	s.mu.Unlock()

	if dup {
		s.met.dedupHits.Inc()
	} else if s.pool.submit(s.pool.hi, func(tx *txctx) { s.serve(c, tx) }) {
		d := int64(len(s.pool.hi))
		for {
			cur := s.maxDepth.Load()
			if d <= cur || s.maxDepth.CompareAndSwap(cur, d) {
				break
			}
		}
		if obs.On() {
			s.met.queueDepth.Set(d)
		}
	} else {
		// Backpressure: the queue is full. Retire the in-flight entry
		// so duplicates are not parked behind a request that never
		// entered the queue, and fail fast with the typed error.
		s.mu.Lock()
		delete(s.inflight, key)
		s.mu.Unlock()
		c.err = ErrServiceOverloaded
		close(c.done)
		s.met.overloads.Inc()
		return nil, false, ErrServiceOverloaded
	}

	on := obs.On()
	var t0 time.Time
	if on {
		t0 = time.Now()
	}
	select {
	case <-c.done:
	case <-s.pool.quit:
	}
	if on {
		s.met.waitNs.ObserveSince(t0)
	}
	select {
	case <-c.done:
	default:
		// Shutdown raced the request. The call may still be served by the
		// drain sweep (its result lands in the cache either way); the
		// tenant just stops waiting and translates locally.
		return nil, false, ErrServiceClosed
	}
	if c.err != nil {
		return nil, false, c.err
	}
	return c.tb, !dup && c.fresh, nil
}

// resolve returns the prototype for key, translating it from the shared
// code snapshot unless it is already cached. fresh reports that this
// call's translation is the one that was published (first writer wins).
// Translator panics come back as errors: a worker must survive any
// single bad block. Failed translations are not cached, so a later
// request retries from scratch.
func (s *Service) resolve(key serviceKey, snap *mem.Memory, tx *txctx) (tb *tblock, fresh bool, err error) {
	if v, ok := s.cache.Load(key); ok {
		return v.(*tblock), false, nil
	}
	tb, err = recoverTranslate(key.pc, func() (*tblock, error) {
		return s.tr.translate(snap, key.pc, tx, nil, nil)
	})
	if err != nil {
		return nil, false, err
	}
	if prev, loaded := s.cache.LoadOrStore(key, tb); loaded {
		return prev.(*tblock), false, nil
	}
	return tb, true, nil
}

// serve is the demand (hi) job: resolve one request and wake every
// waiter. Pool priority puts it ahead of all speculation, and Close
// drains the queued ones before the workers exit.
func (s *Service) serve(c *svcCall, tx *txctx) {
	if obs.On() {
		s.met.queueDepth.Set(int64(len(s.pool.hi)))
	}
	c.tb, c.fresh, c.err = s.resolve(c.key, c.snap, tx)
	if c.fresh {
		s.met.translations.Inc()
		s.speculate(c.key.code, c.snap, c.tb)
	}
	s.mu.Lock()
	delete(s.inflight, c.key)
	s.mu.Unlock()
	close(c.done)
}

// speculate offers the block's direct successors to the lo queue
// (non-blocking: a full queue drops, it never backpressures; no queue at
// all when speculation is disabled). Jobs are best-effort: errors are
// dropped, the demand path will retry and report them.
func (s *Service) speculate(code uint64, snap *mem.Memory, tb *tblock) {
	if s.pool.lo == nil {
		return
	}
	for i := range tb.links {
		key := serviceKey{code: code, pc: tb.links[i].target}
		if _, ok := s.cache.Load(key); ok {
			continue
		}
		s.pool.submit(s.pool.lo, func(tx *txctx) {
			if succ, fresh, _ := s.resolve(key, snap, tx); fresh {
				s.met.specTranslations.Inc()
				s.speculate(code, snap, succ)
			}
		})
	}
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

// adoptProto wraps a service prototype for this tenant: the immutable
// translation products (host code, decoded guest instructions, coverage
// counts, rule provenance) are shared, while everything the Run
// goroutine mutates — chain links, execution/hotness counters, SMC
// metadata — starts fresh and private.
func (e *Engine) adoptProto(pc uint32, p *tblock) *tblock {
	tb := &tblock{
		hb:         p.hb,
		insts:      p.insts,
		nGuest:     p.nGuest,
		nCovered:   p.nCovered,
		nSeq:       p.nSeq,
		uncovered:  p.uncovered,
		rules:      p.rules,
		flagsExact: p.flagsExact,
	}
	tb.links = directLinks(pc, p.insts, &tb.linkBuf)
	return tb
}
