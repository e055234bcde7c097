package obs

import "sync"

// Labeled metric families. A family is one catalogued base name (e.g.
// `serve.tenant_blocks`) fanned out across label values (one counter
// per tenant); each member registers in the ordinary Registry maps
// under the derived name LabelName(base, key, value), so snapshots,
// the HTTP surface, and WriteJSON see members like any other metric.
// The family caches member pointers so hot-path callers resolve a
// label once (With takes a lock, exactly like Registry.Counter).
//
// Only the base name belongs in the docs/OBSERVABILITY.md catalog:
// derived names carry a label suffix, which keeps them outside the
// counterdoc vettool's bare-name shape by construction.
//
// A family has at most MaxLabelValues members. The first
// MaxLabelValues-1 distinct values get their own; every later value
// shares the member OtherLabel. A family keyed by something unbounded —
// one value per tenant of a long-running daemon — so keeps a bounded
// registry, and its total over all members still counts everything.

// MaxLabelValues is the most members one labeled family registers,
// OtherLabel's included.
const MaxLabelValues = 64

// OtherLabel is the label value of the member that holds every value
// past a family's first MaxLabelValues-1.
const OtherLabel = "other"

// LabelName derives the registry name of one family member:
// base{key="value"}.
func LabelName(base, key, value string) string {
	return base + "{" + key + "=\"" + value + "\"}"
}

// vec is the shared get-or-create machinery behind the typed families.
type vec[M any] struct {
	mu   sync.Mutex
	by   map[string]*M
	make func(name string) *M
	base string
	key  string
}

func (v *vec[M]) with(value string) *M {
	v.mu.Lock()
	defer v.mu.Unlock()
	m, ok := v.by[value]
	if ok {
		return m
	}
	if len(v.by) >= MaxLabelValues-1 && value != OtherLabel {
		if m, ok = v.by[OtherLabel]; ok {
			return m
		}
		value = OtherLabel
	}
	m = v.make(LabelName(v.base, v.key, value))
	v.by[value] = m
	return m
}

func (v *vec[M]) labels() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]string, 0, len(v.by))
	for l := range v.by {
		out = append(out, l)
	}
	return out
}

// CounterVec is a labeled counter family.
type CounterVec struct{ vec[Counter] }

// CounterVec returns a counter family on the registry: With(value)
// get-or-creates the member counter named base{key="value"}.
func (r *Registry) CounterVec(base, key string) *CounterVec {
	return &CounterVec{vec[Counter]{
		by:   map[string]*Counter{},
		make: r.Counter,
		base: base,
		key:  key,
	}}
}

// With returns the member counter for a label value (OtherLabel's once
// the family is full).
func (v *CounterVec) With(value string) *Counter { return v.with(value) }

// Labels returns the label values the family has materialized, in no
// particular order.
func (v *CounterVec) Labels() []string { return v.labels() }

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ vec[Gauge] }

// GaugeVec returns a gauge family on the registry.
func (r *Registry) GaugeVec(base, key string) *GaugeVec {
	return &GaugeVec{vec[Gauge]{
		by:   map[string]*Gauge{},
		make: r.Gauge,
		base: base,
		key:  key,
	}}
}

// With returns the member gauge for a label value (OtherLabel's once
// the family is full).
func (v *GaugeVec) With(value string) *Gauge { return v.with(value) }

// Labels returns the label values the family has materialized.
func (v *GaugeVec) Labels() []string { return v.labels() }

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ vec[Histogram] }

// HistogramVec returns a histogram family on the registry.
func (r *Registry) HistogramVec(base, key string) *HistogramVec {
	return &HistogramVec{vec[Histogram]{
		by:   map[string]*Histogram{},
		make: r.Histogram,
		base: base,
		key:  key,
	}}
}

// With returns the member histogram for a label value (OtherLabel's
// once the family is full).
func (v *HistogramVec) With(value string) *Histogram { return v.with(value) }

// Labels returns the label values the family has materialized.
func (v *HistogramVec) Labels() []string { return v.labels() }
