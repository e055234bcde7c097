package obs

import (
	"sort"
	"strconv"
	"sync"
	"testing"
)

func TestLabelName(t *testing.T) {
	got := LabelName("serve.tenant_blocks", "tenant", "42")
	want := `serve.tenant_blocks{tenant="42"}`
	if got != want {
		t.Fatalf("LabelName = %q, want %q", got, want)
	}
}

func TestCounterVecRegistersMembers(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("serve.tenant_blocks", "tenant")
	a := v.With("1")
	b := v.With("2")
	if a == b {
		t.Fatal("distinct labels returned the same counter")
	}
	if again := v.With("1"); again != a {
		t.Fatal("same label returned a different counter")
	}
	a.Add(3)
	b.Inc()
	// Members live in the plain registry under their derived names.
	if got := r.Counter(`serve.tenant_blocks{tenant="1"}`).Value(); got != 3 {
		t.Fatalf("member 1 via registry = %d, want 3", got)
	}
	snap := r.Snapshot()
	if snap.Counters[`serve.tenant_blocks{tenant="2"}`] != 1 {
		t.Fatalf("snapshot missing member 2: %v", snap.Counters)
	}
	labels := v.Labels()
	sort.Strings(labels)
	if len(labels) != 2 || labels[0] != "1" || labels[1] != "2" {
		t.Fatalf("Labels = %v, want [1 2]", labels)
	}
}

func TestGaugeAndHistogramVec(t *testing.T) {
	r := NewRegistry()
	g := r.GaugeVec("serve.tenant_shadow_ppm", "tenant")
	g.With("7").Set(250000)
	if got := r.Gauge(`serve.tenant_shadow_ppm{tenant="7"}`).Value(); got != 250000 {
		t.Fatalf("gauge member = %d, want 250000", got)
	}
	h := r.HistogramVec("serve.tenant_block_ns", "tenant")
	h.With("7").Observe(100)
	h.With("7").Observe(200)
	if got := r.Histogram(`serve.tenant_block_ns{tenant="7"}`).Count(); got != 2 {
		t.Fatalf("histogram member count = %d, want 2", got)
	}
}

// TestVecFoldsPastCap: a family registers its first MaxLabelValues-1
// values and then one OtherLabel member for all the rest, whatever the
// order, and no count is lost.
func TestVecFoldsPastCap(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("serve.tenant_blocks", "tenant")
	h := r.HistogramVec("serve.tenant_block_ns", "tenant")
	const n = 10 * MaxLabelValues
	for i := 1; i <= n; i++ {
		label := strconv.Itoa(i % (3 * MaxLabelValues))
		v.With(label).Add(uint64(i))
		h.With(label).Observe(uint64(i))
	}
	labels := v.Labels()
	if len(labels) != MaxLabelValues || len(h.Labels()) != MaxLabelValues {
		t.Fatalf("%d and %d members, want %d", len(labels), len(h.Labels()), MaxLabelValues)
	}
	var total, count uint64
	for _, l := range labels {
		total += v.With(l).Value()
		count += h.With(l).Count()
	}
	if want := uint64(n * (n + 1) / 2); total != want || count != n {
		t.Fatalf("members hold %d over %d observations, want %d over %d", total, count, want, n)
	}
	// A value that had its own member keeps it; a late one is other.
	if v.With("1") == v.With(OtherLabel) || v.With("999999") != v.With(OtherLabel) {
		t.Fatal("members not routed by first arrival")
	}
	if got := len(r.Names()); got != 2*MaxLabelValues {
		t.Fatalf("registry holds %d names, want %d", got, 2*MaxLabelValues)
	}
}

func TestVecConcurrentWith(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("serve.tenant_blocks", "tenant")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				v.With("shared").Inc()
			}
		}()
	}
	wg.Wait()
	if got := v.With("shared").Value(); got != 8000 {
		t.Fatalf("concurrent increments = %d, want 8000", got)
	}
}
