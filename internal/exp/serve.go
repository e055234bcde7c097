package exp

import (
	"fmt"
	"strings"
	"sync"

	"paramdbt/internal/backend"
	"paramdbt/internal/core"
	"paramdbt/internal/dbt"
)

// The serving experiment replays the workload suite through the shared
// multi-tenant translation service (docs/SERVING.md) under each
// backend: for every benchmark a single-tenant baseline runs first,
// then N concurrent tenants attached to one service, every tenant at
// shadow rate 1. The acceptance invariants are byte-identical r0
// against the single-tenant baseline for every workload × backend and
// zero divergences anywhere — sharing prototypes across tenants must
// change nothing observable.

// ServeRow is one benchmark under one backend.
type ServeRow struct {
	Bench        string `json:"bench"`
	R0           uint32 `json:"r0"`      // single-tenant baseline result
	Match        bool   `json:"match"`   // every tenant reproduced R0
	Tenants      int    `json:"tenants"` // concurrent tenants replayed
	Divergences  uint64 `json:"divergences"`
	ShadowChecks uint64 `json:"shadow_checks"`
	Translations uint64 `json:"translations"` // summed tenant demand translations
}

// ServeResults is one backend's column plus its service counters.
type ServeResults struct {
	Backend          string     `json:"backend"`
	Rows             []ServeRow `json:"rows"`
	AllMatch         bool       `json:"all_match"`
	Divergences      uint64     `json:"divergences"`
	ServiceRequests  uint64     `json:"service_requests"`
	ServiceShared    uint64     `json:"service_shared"` // cache + single-flight dedup hits
	ServiceTranslate uint64     `json:"service_translations"`
	DedupRate        float64    `json:"dedup_rate"`
}

// ServeSection is the full serving matrix.
type ServeSection struct {
	Tenants  int            `json:"tenants"`
	Backends []ServeResults `json:"backends"`
}

// ServeExperiment replays every benchmark through a shared translation
// service under each named backend with `tenants` concurrent tenants,
// checking each tenant's result against a single-tenant baseline.
func ServeExperiment(c *Corpus, names []string, tenants int) (*ServeSection, error) {
	if tenants <= 0 {
		tenants = 2
	}
	sec := &ServeSection{Tenants: tenants}
	for _, bn := range names {
		be, err := backend.Lookup(bn)
		if err != nil {
			return nil, err
		}
		// A fresh parameterized store per backend: the service's
		// translator keys it for be, and tenant construction keeps it there.
		full, _ := core.Parameterize(c.Union(c.Names), core.Config{Opcode: true, AddrMode: true})
		svc := dbt.NewService(dbt.ServiceConfig{Rules: full, DelegateFlags: true, Backend: be})
		res := ServeResults{Backend: be.Name(), AllMatch: true}
		for _, bench := range c.Names {
			base, err := c.Run(bench, dbt.Config{
				Rules: full, DelegateFlags: true, Backend: be, ShadowRate: 1,
			})
			if err != nil {
				svc.Close()
				return nil, fmt.Errorf("serve baseline %s/%s: %w", be.Name(), bench, err)
			}
			row := ServeRow{Bench: bench, R0: base.R0, Match: true, Tenants: tenants}
			results := make([]RunResult, tenants)
			errs := make([]error, tenants)
			var wg sync.WaitGroup
			for i := 0; i < tenants; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					results[i], errs[i] = c.Run(bench, dbt.Config{
						Rules: full, DelegateFlags: true, Backend: be,
						ShadowRate: 1, ShadowSeed: int64(i + 1), Service: svc,
					})
				}(i)
			}
			wg.Wait()
			for i := 0; i < tenants; i++ {
				if errs[i] != nil {
					svc.Close()
					return nil, fmt.Errorf("serve tenant %d %s/%s: %w", i, be.Name(), bench, errs[i])
				}
				if results[i].R0 != base.R0 {
					row.Match = false
					res.AllMatch = false
				}
				row.Divergences += results[i].Stats.Divergences
				row.ShadowChecks += results[i].Stats.ShadowChecks
				row.Translations += results[i].Stats.Translations
			}
			res.Divergences += row.Divergences
			res.Rows = append(res.Rows, row)
		}
		st := svc.Stats()
		res.ServiceRequests = st.Requests
		res.ServiceShared = st.CacheHits + st.DedupHits
		res.ServiceTranslate = st.Translations
		res.DedupRate = st.DedupRate()
		svc.Close()
		sec.Backends = append(sec.Backends, res)
	}
	return sec, nil
}

// RenderServe formats the serving matrix.
func RenderServe(s *ServeSection) string {
	var b strings.Builder
	fmt.Fprintf(&b, "multi-tenant serving (%d tenants per workload, shadow rate 1)\n", s.Tenants)
	for _, r := range s.Backends {
		fmt.Fprintf(&b, "%-6s\n", r.Backend)
		fmt.Fprintf(&b, "  %-12s %10s %6s %12s %13s %13s\n",
			"bench", "r0", "match", "divergences", "shadow-checks", "translations")
		for _, row := range r.Rows {
			fmt.Fprintf(&b, "  %-12s %#10x %6v %12d %13d %13d\n",
				row.Bench, row.R0, row.Match, row.Divergences, row.ShadowChecks, row.Translations)
		}
		fmt.Fprintf(&b, "  service: %d requests, %d shared (dedup %.3f), %d translations\n",
			r.ServiceRequests, r.ServiceShared, r.DedupRate, r.ServiceTranslate)
		if r.AllMatch && r.Divergences == 0 {
			fmt.Fprintf(&b, "  all tenants byte-identical to single-tenant, 0 divergences\n")
		}
	}
	return b.String()
}
