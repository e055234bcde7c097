package dbt

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"paramdbt/internal/env"
	"paramdbt/internal/guest"
	"paramdbt/internal/mem"
	"paramdbt/internal/obs"
)

// newTestEngine loads the shared test program and returns a ready
// engine (QEMU mode unless the caller sets cfg.Rules).
func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	c := compileT(t, testProgram())
	m := mem.New()
	if _, err := c.LoadGuest(m); err != nil {
		t.Fatal(err)
	}
	e := New(m, cfg)
	init := &guest.State{Mem: m}
	init.R[guest.SP] = env.StackTop
	e.SetGuestState(init)
	return e
}

// TestStatsBackedByMetrics pins the Stats migration: the snapshot Run
// returns must equal the atomic counters in the engine's registry, and
// LiveStats must agree.
func TestStatsBackedByMetrics(t *testing.T) {
	e := newTestEngine(t, Config{})
	st, err := e.Run(env.CodeBase, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	reg := e.Metrics()
	if got := reg.Counter(MetGuestInsts).Value(); got != st.GuestExec {
		t.Fatalf("%s = %d, Stats.GuestExec = %d", MetGuestInsts, got, st.GuestExec)
	}
	if got := reg.Counter(MetDispatches).Value(); got != st.Dispatches {
		t.Fatalf("%s = %d, Stats.Dispatches = %d", MetDispatches, got, st.Dispatches)
	}
	if got := reg.Counter(MetChainedExits).Value(); got != st.ChainedExits {
		t.Fatalf("%s = %d, Stats.ChainedExits = %d", MetChainedExits, got, st.ChainedExits)
	}
	if got := reg.Counter(MetBlocks).Value(); got != uint64(st.Blocks) {
		t.Fatalf("%s = %d, Stats.Blocks = %d", MetBlocks, got, st.Blocks)
	}
	live := e.LiveStats()
	if live.GuestExec != st.GuestExec || live.Dispatches != st.Dispatches ||
		live.ChainedExits != st.ChainedExits || live.Blocks != st.Blocks ||
		live.RuleCovered != st.RuleCovered || live.SeqRuleUses != st.SeqRuleUses {
		t.Fatalf("LiveStats %+v != Run stats %+v", live, st)
	}
	if st.GuestExec == 0 || st.Dispatches == 0 {
		t.Fatalf("degenerate run: %+v", st)
	}
}

// TestRunStatsAreDeltas runs the same engine twice and checks the
// second Run's stats do not include the first's counts.
func TestRunStatsAreDeltas(t *testing.T) {
	e := newTestEngine(t, Config{})
	st1, err := e.Run(env.CodeBase, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := e.Run(env.CodeBase, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if st2.GuestExec != st1.GuestExec {
		t.Fatalf("second run GuestExec = %d, want per-run delta %d", st2.GuestExec, st1.GuestExec)
	}
	// Second run reuses every cached translation: same block entries,
	// but no first-executions.
	if st2.Blocks != 0 {
		t.Fatalf("second run Blocks = %d, want 0 (all blocks already seen)", st2.Blocks)
	}
	live := e.LiveStats()
	if live.GuestExec != st1.GuestExec+st2.GuestExec {
		t.Fatalf("LiveStats.GuestExec = %d, want lifetime total %d",
			live.GuestExec, st1.GuestExec+st2.GuestExec)
	}
}

// TestSharedRegistryAccumulates checks Config.Metrics: two engines on
// one registry contribute to the same counters, while each Run still
// reports only its own delta.
func TestSharedRegistryAccumulates(t *testing.T) {
	reg := obs.NewRegistry()
	e1 := newTestEngine(t, Config{Metrics: reg})
	st1, err := e1.Run(env.CodeBase, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	e2 := newTestEngine(t, Config{Metrics: reg})
	st2, err := e2.Run(env.CodeBase, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if st2.GuestExec != st1.GuestExec {
		t.Fatalf("delta broken under shared registry: %d vs %d", st2.GuestExec, st1.GuestExec)
	}
	if got := reg.Counter(MetGuestInsts).Value(); got != st1.GuestExec+st2.GuestExec {
		t.Fatalf("shared %s = %d, want %d", MetGuestInsts, got, st1.GuestExec+st2.GuestExec)
	}
}

// TestTelemetryGatedByEnable checks the obs.On() gate: histograms stay
// empty while disabled and fill while enabled, without changing Stats.
func TestTelemetryGatedByEnable(t *testing.T) {
	obs.SetEnabled(false)
	e := newTestEngine(t, Config{})
	stOff, err := e.Run(env.CodeBase, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if n := e.Metrics().Histogram(MetTranslateNs).Count(); n != 0 {
		t.Fatalf("translate_ns observed %d samples while disabled", n)
	}
	// Translations is a product counter (it backs Stats.Translations and
	// the warm-start bench), so it counts with telemetry off.
	if n := e.Metrics().Counter(MetTranslations).Value(); n == 0 || n != stOff.Translations {
		t.Fatalf("translations = %d while disabled, Stats.Translations = %d; want equal and nonzero",
			n, stOff.Translations)
	}

	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	e2 := newTestEngine(t, Config{})
	stOn, err := e2.Run(env.CodeBase, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if stOn.GuestExec != stOff.GuestExec || stOn.Dispatches != stOff.Dispatches {
		t.Fatalf("enabling telemetry changed stats: %+v vs %+v", stOn, stOff)
	}
	reg := e2.Metrics()
	translations := reg.Counter(MetTranslations).Value()
	if translations == 0 {
		t.Fatal("no translations counted while enabled")
	}
	if n := reg.Histogram(MetTranslateNs).Count(); n != translations {
		t.Fatalf("translate_ns samples = %d, want one per translation (%d)", n, translations)
	}
	if n := reg.Histogram(MetLookupNs).Count(); n != stOn.Dispatches {
		t.Fatalf("lookup_ns samples = %d, want one per dispatch (%d)", n, stOn.Dispatches)
	}
	if reg.Gauge(MetCachedBlocks).Value() != int64(len(e2.cache)) {
		t.Fatalf("cached_blocks gauge = %d, cache holds %d",
			reg.Gauge(MetCachedBlocks).Value(), len(e2.cache))
	}
	if reg.Counter(MetChainPatches).Value() == 0 {
		t.Fatal("no chain patches counted on a chaining run")
	}
}

// TestInvalidateTelemetry checks invalidation counters and the trace
// event, plus the gauge tracking the shrunken cache.
func TestInvalidateTelemetry(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	ring := obs.NewTraceRing(512)
	// The entry block runs once: only translate-first translates it.
	e := newTestEngine(t, Config{Trace: ring, TranslateFirst: true})
	if _, err := e.Run(env.CodeBase, 100_000_000); err != nil {
		t.Fatal(err)
	}
	if !e.Invalidate(env.CodeBase) {
		t.Fatal("Invalidate(entry) found nothing")
	}
	reg := e.Metrics()
	if reg.Counter(MetInvalidations).Value() != 1 {
		t.Fatalf("invalidations = %d, want 1", reg.Counter(MetInvalidations).Value())
	}
	if reg.Histogram(MetInvalidateNs).Count() != 1 {
		t.Fatalf("invalidate_ns samples = %d, want 1", reg.Histogram(MetInvalidateNs).Count())
	}
	if reg.Gauge(MetCachedBlocks).Value() != int64(len(e.cache)) {
		t.Fatal("cached_blocks gauge not updated by Invalidate")
	}
	evs := ring.Events()
	if len(evs) == 0 || evs[len(evs)-1].Kind != obs.EvInvalidate {
		t.Fatalf("last trace event = %+v, want invalidate", evs[len(evs)-1])
	}
}

// TestTraceRingRecordsTransitions checks the ring captures the actual
// dispatch/chain mix (trace is wired by Config, independent of the
// obs enable gate).
func TestTraceRingRecordsTransitions(t *testing.T) {
	ring := obs.NewTraceRing(1 << 16)
	e := newTestEngine(t, Config{Trace: ring})
	st, err := e.Run(env.CodeBase, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	var dispatch, chained, translate, interp uint64
	for _, ev := range ring.Events() {
		switch ev.Kind {
		case obs.EvDispatch:
			dispatch++
		case obs.EvChained:
			chained++
		case obs.EvTranslate:
			translate++
		case obs.EvInterp:
			interp++
		}
	}
	// An interpreted entry goes through the dispatcher too.
	if dispatch+interp != st.Dispatches || chained != st.ChainedExits {
		t.Fatalf("trace mix dispatch=%d interp=%d chained=%d, stats %d/%d",
			dispatch, interp, chained, st.Dispatches, st.ChainedExits)
	}
	if translate == 0 || interp == 0 {
		t.Fatalf("%d translate and %d interp events recorded, want both", translate, interp)
	}
	if interp != e.Metrics().Counter(MetTierInterpBlocks).Value() {
		t.Fatalf("%d interp events, %s = %d", interp, MetTierInterpBlocks, e.Metrics().Counter(MetTierInterpBlocks).Value())
	}
	if !strings.Contains(ring.String(), "chained") {
		t.Fatal("dump missing chained transitions")
	}
}

// TestLiveStatsDuringRun reads LiveStats concurrently with Run — the
// read the old non-atomic Stats fields could not serve; -race verifies.
// Run publishes its per-block counters in batches of publishEvery block
// executions: mid-run LiveStats may trail by one batch, never more, and
// whichever way Run returns — halt, "host step budget exhausted", a
// PanicError — it must have flushed the rest, so a fresh engine's
// LiveStats equals its one run's Stats.
func TestLiveStatsDuringRun(t *testing.T) {
	// hotProgramN's loop is several blocks per iteration: thousands of
	// block entries, so the runs publish mid-run and stop between publishes.
	c := compileT(t, hotProgramN(600))
	// The host steps retired before each block entry: the budget that
	// runs out exactly there.
	// The budget counts interpreted instructions, which CPU.Total does not
	// see: the runs that stop on it translate first.
	var steps []uint64
	var e *Engine
	e = startEngine(t, c, Config{TranslateFirst: true, TraceBlock: func(uint32) { steps = append(steps, e.CPU.Total()) }})
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last Stats
		for {
			select {
			case <-done:
				return
			default:
				cur := e.LiveStats()
				if cur.GuestExec < last.GuestExec {
					t.Error("LiveStats went backwards")
					return
				}
				last = cur
			}
		}
	}()
	st, err := e.Run(env.CodeBase, 100_000_000)
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if want := interpret(t, c).InstCount; st.GuestExec != want {
		t.Fatalf("the run retired %d guest instructions, the interpreter %d", st.GuestExec, want)
	}
	sameLiveStats(t, "normal halt", e, st, len(steps))

	// Interpreted executions are published like translated ones.
	interpEntries := 0
	e = startEngine(t, c, Config{TraceBlock: func(uint32) { interpEntries++ }})
	if st, err = e.Run(env.CodeBase, 100_000_000); err != nil {
		t.Fatal(err)
	}
	sameLiveStats(t, "interpret-first halt", e, st, interpEntries)

	// The runs below stop half way, after a publish.
	entries := len(steps) / 2
	if entries <= publishEvery || entries%publishEvery == 0 {
		t.Fatalf("%d block entries: pick a program whose runs stop between publishes", len(steps))
	}
	e = startEngine(t, c, Config{TranslateFirst: true})
	budget := steps[entries]
	st, err = e.Run(env.CodeBase, budget)
	if err == nil || !strings.Contains(err.Error(), "host step budget exhausted") {
		t.Fatalf("Run under a %d-step budget returned %v", budget, err)
	}
	sameLiveStats(t, "budget exhausted", e, st, entries+1)

	blocks := 0
	e = startEngine(t, c, Config{TranslateFirst: true, TraceBlock: func(uint32) {
		// Entry number blocks has been counted, blocks-1 executed.
		live := e.LiveStats()
		if blocks++; live.Dispatches+live.ChainedExits+publishEvery < uint64(blocks) {
			panic(fmt.Sprintf("LiveStats at block entry %d trails by more than %d: %+v", blocks, publishEvery, live))
		}
		if blocks == entries {
			panic("injected simulator bug")
		}
	}})
	st, err = e.Run(env.CodeBase, 100_000_000)
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Cause != "injected simulator bug" {
		t.Fatalf("Run with a panicking hook returned %v", err)
	}
	sameLiveStats(t, "panic", e, st, entries)
}

// sameLiveStats fails unless e's LiveStats equals st, a run's returned
// Stats, on every counter, the run counted all of its block entries —
// the batched counters were flushed — and it retired something.
func sameLiveStats(t *testing.T, what string, e *Engine, st Stats, entries int) {
	t.Helper()
	if live := e.LiveStats(); live != st || st.Dispatches+st.ChainedExits != uint64(entries) || st.GuestExec == 0 {
		t.Fatalf("%s: LiveStats\n %+v\nreturned Stats (want %d block entries)\n %+v", what, live, entries, st)
	}
}
