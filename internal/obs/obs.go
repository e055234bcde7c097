// Package obs is the zero-dependency observability layer of the DBT
// pipeline: atomic counters, gauges and fixed-bucket latency histograms
// behind a named-registry API, an execution-trace ring buffer, and an
// expvar-style JSON snapshot/HTTP surface.
//
// The layer is designed around one invariant: when metrics are disabled
// (the default), instrumented hot paths pay a single atomic load and
// nothing else — no allocation, no time.Now, no map lookup
// (BenchmarkObsDisabledOverhead pins this). Call sites therefore guard
// the expensive part behind On():
//
//	if obs.On() {
//		t0 := time.Now()
//		// ...
//		m.translateNs.ObserveSince(t0)
//	}
//
// Two kinds of metrics coexist:
//
//   - Product metrics (the DBT's dispatch/coverage counters) are plain
//     atomic Counters incremented unconditionally; they back dbt.Stats
//     and must always count. Atomic increments make them safe to read
//     concurrently — e.g. from the /metrics endpoint mid-run — which the
//     pre-obs Stats fields were not.
//   - Telemetry (timings, rule hit/miss breakdowns, interpreter step
//     counts, trace rings) is gated by the package-wide enable flag and
//     costs nothing until SetEnabled(true).
//
// Metric instances are obtained from a Registry by name
// (Counter/Gauge/Histogram are get-or-create and safe for concurrent
// use). The process-wide Default registry serves package-level telemetry
// and the cmd/paradbt -metrics-addr endpoint; components that need
// isolated counts (one dbt.Engine per experiment configuration) create
// private registries so concurrent engines never share a counter.
//
// Metric names are dot-separated "<package>.<metric>" with unit suffixes
// on histograms ("_ns"); docs/OBSERVABILITY.md catalogs every name the
// pipeline emits.
package obs

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// enabled is the package-wide telemetry gate. A single atomic load
// (On) is the only cost instrumented hot paths pay while disabled.
var enabled atomic.Bool

// SetEnabled turns gated telemetry collection on or off process-wide.
func SetEnabled(v bool) { enabled.Store(v) }

// On reports whether gated telemetry is enabled. It is the hot-path
// guard: keep everything except the call to On itself inside the branch.
func On() bool { return enabled.Load() }

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous signed value (e.g. cache occupancy).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the value by d (which may be negative).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the fixed bucket count of a Histogram: bucket i holds
// observations v with bits.Len64(v) == i, i.e. exponential base-2
// buckets [2^(i-1), 2^i). Bucket 0 holds exact zeros.
const histBuckets = 65

// Histogram is a fixed-bucket base-2 exponential histogram. Observe is
// lock-free and allocation-free; bucket boundaries are powers of two of
// the observed unit (nanoseconds for *_ns histograms). The fixed layout
// trades resolution (~2x per bucket) for a hot path with no
// configuration state, matching how translator latencies are consumed:
// order-of-magnitude shifts, not microsecond precision.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	sum     atomic.Uint64
	count   atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.buckets[bits.Len64(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// ObserveSince records the elapsed nanoseconds since t0.
func (h *Histogram) ObserveSince(t0 time.Time) {
	d := time.Since(t0)
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Mean returns the mean observed value (0 with no observations).
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1): the
// upper edge of the bucket the q-th observation falls in. The bound is
// at most 2x the true value, the bucket resolution.
func (h *Histogram) Quantile(q float64) uint64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	// rank = ceil(q*n): the q-quantile is the rank-th smallest sample.
	qr := q * float64(n)
	rank := uint64(qr)
	if float64(rank) < qr {
		rank++
	}
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i := 0; i < histBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen >= rank {
			return bucketUpper(i)
		}
	}
	return bucketUpper(histBuckets - 1)
}

// bucketUpper is the exclusive upper edge of bucket i (saturating: the
// top bucket's true edge 2^64 does not fit in a uint64).
func bucketUpper(i int) uint64 {
	switch {
	case i == 0:
		return 0
	case i >= 64:
		return ^uint64(0)
	}
	return 1 << uint(i)
}

// snapshotBuckets returns the non-empty buckets as (upper-bound, count)
// pairs, oldest bound first.
func (h *Histogram) snapshotBuckets() []BucketCount {
	var out []BucketCount
	for i := 0; i < histBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		out = append(out, BucketCount{UpperBound: bucketUpper(i), Count: n})
	}
	return out
}

// Registry is a named collection of metrics. Counter, Gauge and
// Histogram are get-or-create: the first call with a name allocates the
// metric, later calls return the same instance. All methods are safe
// for concurrent use; the returned metric pointers should be cached by
// hot-path callers (the map lookup takes a lock).
type Registry struct {
	mu        sync.Mutex
	counters  map[string]*Counter
	gauges    map[string]*Gauge
	histos    map[string]*Histogram
	traceRing *TraceRing
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		histos:   map[string]*Histogram{},
	}
}

// Default is the process-wide registry: package-level telemetry
// (internal/rule, internal/learn, internal/guest) registers here, and
// cmd/paradbt's -metrics-addr endpoint serves it.
var Default = NewRegistry()

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histos[name]
	if !ok {
		h = &Histogram{}
		r.histos[name] = h
	}
	return h
}

// SetTraceRing attaches a trace ring to the registry so the HTTP
// surface can dump it (nil detaches).
func (r *Registry) SetTraceRing(t *TraceRing) {
	r.mu.Lock()
	r.traceRing = t
	r.mu.Unlock()
}

// Trace returns the attached trace ring, if any.
func (r *Registry) Trace() *TraceRing {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.traceRing
}

// BucketCount is one non-empty histogram bucket in a snapshot:
// UpperBound is the exclusive upper edge (0 for the exact-zero bucket).
type BucketCount struct {
	UpperBound uint64 `json:"le"`
	Count      uint64 `json:"n"`
}

// HistogramSnapshot is the JSON form of one histogram.
type HistogramSnapshot struct {
	Count   uint64        `json:"count"`
	Sum     uint64        `json:"sum"`
	Mean    float64       `json:"mean"`
	P50     uint64        `json:"p50"`
	P99     uint64        `json:"p99"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of every metric in a registry, in
// the shape WriteJSON serializes. Map keys marshal sorted, so two
// snapshots of identical state produce identical JSON.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures the current value of every registered metric.
// Individual metric reads are atomic; the snapshot as a whole is not a
// consistent cut across metrics (fine for monitoring, meaningless for
// accounting — use per-engine registries for accounting).
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]uint64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.histos) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.histos))
		for name, h := range r.histos {
			s.Histograms[name] = HistogramSnapshot{
				Count:   h.Count(),
				Sum:     h.Sum(),
				Mean:    h.Mean(),
				P50:     h.Quantile(0.50),
				P99:     h.Quantile(0.99),
				Buckets: h.snapshotBuckets(),
			}
		}
	}
	return s
}

// Names returns every registered metric name, sorted — the
// docs/OBSERVABILITY.md catalog is checked against this in tests.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.histos))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.histos {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
