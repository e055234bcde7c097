package obs_test

import (
	"testing"
	"time"

	"paramdbt/internal/obs"
)

// BenchmarkObsDisabledOverhead pins the observability layer's core
// invariant: with telemetry disabled (the default), an instrumented hot
// path pays one atomic load and allocates nothing. "guard" is the exact
// sequence the dispatcher runs per iteration when obs is off; "product"
// is the always-on atomic counter backing dbt.Stats. Both must report
// 0 allocs/op, and the guard must stay within ~2 ns/op.
func BenchmarkObsDisabledOverhead(b *testing.B) {
	obs.SetEnabled(false)
	reg := obs.NewRegistry()
	hist := reg.Histogram("bench.telemetry_ns")
	ctr := reg.Counter("bench.product")

	b.Run("guard", func(b *testing.B) {
		b.ReportAllocs()
		taken := 0
		for i := 0; i < b.N; i++ {
			if obs.On() {
				t0 := time.Now()
				taken++
				hist.ObserveSince(t0)
			}
		}
		if taken != 0 {
			b.Fatal("telemetry branch taken while disabled")
		}
	})
	b.Run("product", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctr.Inc()
		}
		if ctr.Value() == 0 {
			b.Fatal("counter did not count")
		}
	})
	b.Run("enabled-histogram", func(b *testing.B) {
		obs.SetEnabled(true)
		defer obs.SetEnabled(false)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if obs.On() {
				t0 := time.Now()
				hist.ObserveSince(t0)
			}
		}
	})
}
