package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"paramdbt/internal/dbt"
	"paramdbt/internal/env"
	"paramdbt/internal/guest"
	"paramdbt/internal/mem"
	"paramdbt/internal/obs"
	"paramdbt/internal/serve"
)

// histDelta is what one op added to an engine latency histogram. The
// engine records these only while obs.On().
type histDelta struct{ sumNs, count uint64 }

// opResult is one op: a guest program run to HLT on a fresh memory image
// and a fresh engine, or on serve one HTTP request.
type opResult struct {
	start, end time.Duration // since the timed window opened
	failed     bool
	stats      dbt.Stats
	hostInsts  uint64
	runNs      int64 // Engine.Run wall (serve: TenantResult.ElapsedNs)
	translate  histDelta
	lookup     histDelta
	chain      histDelta

	// serve only
	bodyBytes  int
	shadowRate float64
}

func (r opResult) wall() time.Duration { return r.end - r.start }

// engineOp runs p to HLT under cfg and returns the post-run memory image
// with the result. The clock covers LoadGuest, dbt.New, SetGuestState
// and Run; the check against the reference interpreter happens after it
// stops.
func engineOp(p *program, cfg dbt.Config, tr *tracer, op int, window time.Time) (opResult, *mem.Memory) {
	root := tr.begin("op", -1, op)
	t0 := time.Now()
	m := mem.New()
	s := tr.begin("mem.load_guest", root, op)
	_, err := p.comp.LoadGuest(m)
	tr.end(s)
	if err != nil {
		tr.end(root)
		return opResult{start: t0.Sub(window), end: time.Since(window), failed: true}, m
	}
	s = tr.begin("dbt.new", root, op)
	e := dbt.New(m, cfg)
	tr.end(s)
	s = tr.begin("dbt.set_guest_state", root, op)
	init := &guest.State{Mem: m}
	init.R[guest.SP] = env.StackTop
	e.SetGuestState(init)
	tr.end(s)
	s = tr.begin("dbt.run", root, op)
	r0 := time.Now()
	st, err := e.Run(env.CodeBase, 4_000_000_000)
	t1 := time.Now()
	tr.end(s)
	tr.end(root)

	res := opResult{start: t0.Sub(window), end: t1.Sub(window), stats: st, hostInsts: e.CPU.Total(),
		runNs: t1.Sub(r0).Nanoseconds()}
	res.failed = err != nil || e.GuestState().R[guest.R0] != p.wantR0 ||
		st.GuestExec != p.wantInsts || st.Divergences > 0
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", p.name, err)
	}
	if obs.On() {
		reg := e.Metrics()
		res.translate = histOf(reg, dbt.MetTranslateNs)
		res.lookup = histOf(reg, dbt.MetLookupNs)
		res.chain = histOf(reg, dbt.MetChainNs)
	}
	return res, m
}

func histOf(reg *obs.Registry, name string) histDelta {
	h := reg.Histogram(name)
	return histDelta{h.Sum(), h.Count()}
}

// enginePass runs every program once under mutate(its product config).
func enginePass(fx *fixture, mutate func(*program) dbt.Config, tr *tracer, opBase int, window time.Time) []opResult {
	out := make([]opResult, 0, len(fx.progs))
	for i, p := range fx.progs {
		r, _ := engineOp(p, mutate(p), tr, opBase+i, window)
		out = append(out, r)
	}
	return out
}

func productCfg(p *program) dbt.Config { return p.cfg }

// serveOp is one GET /run for one tenant, checked against the reference
// interpreter like any other op.
func serveOp(sf *serveFixture, client *http.Client, p *program, tr *tracer, op int, window time.Time) opResult {
	u := sf.ts.URL + "/run?bench=" + url.QueryEscape(p.name) + "&tenants=1&detail=1"
	s := tr.begin("serve.request", -1, op)
	t0 := time.Now()
	resp, err := client.Get(u)
	var body []byte
	status := 0
	if err == nil {
		status = resp.StatusCode
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	t1 := time.Now()
	tr.end(s)
	res := opResult{start: t0.Sub(window), end: t1.Sub(window), bodyBytes: len(body), failed: true}
	if err != nil || status != http.StatusOK {
		fmt.Fprintf(os.Stderr, "bench: serve %s: status %d: %v\n", p.name, status, err)
		return res
	}
	var sum serve.RunSummary
	if err := json.Unmarshal(body, &sum); err != nil || len(sum.Results) != 1 {
		fmt.Fprintf(os.Stderr, "bench: serve %s: bad response: %v\n", p.name, err)
		return res
	}
	t := sum.Results[0]
	res.stats, res.runNs, res.shadowRate = t.Stats, t.ElapsedNs, t.ShadowRate
	res.failed = t.R0 != p.wantR0 || t.Stats.GuestExec != p.wantInsts || t.Stats.Divergences > 0
	return res
}

// servePass lets every client cycle the programs (each from its own
// offset) until it has done `cycles` cycles or, with cycles 0, until the
// deadline has passed at the start of a cycle. Clients are closed-loop:
// a client sends its next request when the previous one returns.
func servePass(fx *fixture, sf *serveFixture, cycles int, deadline time.Time, tr *tracer, opBase int, window time.Time) []opResult {
	per := make([][]opResult, len(sf.clients))
	var wg sync.WaitGroup
	for ci, client := range sf.clients {
		wg.Add(1)
		go func(ci int, client *http.Client) {
			defer wg.Done()
			n := len(fx.progs)
			for c := 0; ; c++ {
				if cycles > 0 && c >= cycles || cycles == 0 && !time.Now().Before(deadline) {
					return
				}
				for i := 0; i < n; i++ {
					p := fx.progs[(i+ci*n/len(sf.clients))%n]
					// Op ids stay unique across clients without sharing a counter.
					op := opBase + (c*n+i)*len(sf.clients) + ci
					per[ci] = append(per[ci], serveOp(sf, client, p, tr, op, window))
				}
			}
		}(ci, client)
	}
	wg.Wait()
	var out []opResult
	for _, rs := range per {
		out = append(out, rs...)
	}
	return out
}

// budget says how long a loop of passes runs: a fixed number of passes,
// or whole passes until the seconds are used up.
type budget struct {
	passes  int
	seconds float64
}

// loop calls pass until the budget is spent; a time-boxed loop makes at
// least min passes.
func (b budget) loop(min int, pass func(i int)) {
	t0 := time.Now()
	for i := 0; ; i++ {
		if b.passes > 0 && i >= b.passes || b.passes == 0 && i >= min && time.Since(t0).Seconds() >= b.seconds {
			return
		}
		pass(i)
	}
}

// warmup is the untimed pass that ends a set-up. In a traced run it also
// records which blocks each program enters and keeps the post-run
// memory images, the inputs of the direct drives.
func warmup(fx *fixture, traced bool) (pcs map[string][]uint32, mems map[string]*mem.Memory, failed int) {
	window := time.Now()
	pcs, mems = map[string][]uint32{}, map[string]*mem.Memory{}
	engine := fx.workload != "serve" || traced
	if engine {
		for _, p := range fx.progs {
			cfg := p.cfg
			seen := map[uint32]bool{}
			if traced {
				cfg.TraceBlock = func(pc uint32) { seen[pc] = true }
			}
			r, m := engineOp(p, cfg, nil, 0, window)
			if r.failed {
				failed++
			}
			if traced {
				for pc := range seen {
					pcs[p.name] = append(pcs[p.name], pc)
				}
				sort.Slice(pcs[p.name], func(i, j int) bool { return pcs[p.name][i] < pcs[p.name][j] })
				mems[p.name] = m
			}
		}
	}
	for _, sf := range []*serveFixture{fx.serve, fx.noShadow} {
		if sf == nil {
			continue
		}
		for _, r := range servePass(fx, sf, 1, time.Time{}, nil, 0, window) {
			if r.failed {
				failed++
			}
		}
	}
	return pcs, mems, failed
}

// ---- end-to-end summary ----

// median is the middle value, or the mean of the two middle values: on
// a pass of twelve programs it must not jump when the sixth and seventh
// swap places.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// quantile is the nearest-rank quantile of v (v is not modified).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func latenciesMs(rs []opResult) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = float64(r.wall().Nanoseconds()) / 1e6
	}
	return out
}

// group is the unit every end-to-end timing is first computed over: one
// pass of sequential ops or, on serve, one slice of 100 requests. The
// reported metric is the median over groups, so an interrupted pass or a
// run's slow start moves it little, and a percentile never sits on the
// boundary between two programs' latency clusters the way a percentile
// of the pooled ops does.
type group struct {
	ops  []opResult
	wall time.Duration // window wall the group spans
	busy time.Duration // wall guest_mips divides by
}

// passGroup is one pass of sequential ops: guest_mips divides by the sum
// of op walls, ops_per_s by the window wall the pass spans (which also
// holds the checks between ops).
func passGroup(rs []opResult) group {
	g := group{ops: rs, wall: rs[len(rs)-1].end - rs[0].start}
	for _, r := range rs {
		g.busy += r.wall()
	}
	return g
}

// serveSlices orders the requests by completion and cuts the window into
// slices of 100; a slice's wall is the window wall it spans. The clients
// run concurrently, so that is also what guest_mips divides by.
func serveSlices(rs []opResult) []group {
	s := append([]opResult(nil), rs...)
	sort.Slice(s, func(i, j int) bool { return s[i].end < s[j].end })
	const per = 100
	var out []group
	var prev time.Duration
	for lo := 0; lo < len(s); lo += per {
		hi := lo + per
		if hi > len(s) {
			if lo > 0 {
				break // a trailing partial slice would be a noisier sample
			}
			hi = len(s)
		}
		w := s[hi-1].end - prev
		out = append(out, group{ops: s[lo:hi], wall: w, busy: w})
		prev = s[hi-1].end
	}
	return out
}

// summarize turns groups into the four timed end-to-end metrics.
func summarize(groups []group) map[string]float64 {
	var mips, rate, p50, p90 []float64
	for _, g := range groups {
		var guest uint64
		for _, r := range g.ops {
			guest += r.stats.GuestExec
		}
		lat := latenciesMs(g.ops)
		mips = append(mips, ratio(float64(guest), g.busy.Seconds())/1e6)
		rate = append(rate, ratio(float64(len(g.ops)), g.wall.Seconds()))
		p50 = append(p50, median(lat))
		p90 = append(p90, quantile(lat, 0.90))
	}
	return map[string]float64{"guest_mips": median(mips), "ops_per_s": median(rate), "op_ms_p50": median(p50), "op_ms_p90": median(p90)}
}

func countFailed(rs []opResult) int {
	n := 0
	for _, r := range rs {
		if r.failed {
			n++
		}
	}
	return n
}

// peakRSSMB reads VmHWM, the process's peak resident set.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			fmt.Sscanf(strings.TrimPrefix(line, "VmHWM:"), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}
