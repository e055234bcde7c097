package dbt

import (
	"os"
	"path/filepath"
	"testing"

	"paramdbt/internal/artifact"
	"paramdbt/internal/core"
	"paramdbt/internal/env"
	"paramdbt/internal/guest"
	"paramdbt/internal/mem"
	"paramdbt/internal/minic"
	"paramdbt/internal/rule"
)

// newArtEngine loads c into a fresh memory and returns a ready engine —
// runProgram without the Run, so tests can inspect warm-start state
// before execution.
func newArtEngine(t *testing.T, c *minic.Compiled, cfg Config) *Engine {
	t.Helper()
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

// warmRoundTripCfg is the shared configuration for the warm-start
// round-trip tests: full rules, flag delegation, shadow verification on
// every block, trace formation.
func warmRoundTripCfg(rules *rule.Store, dir string) Config {
	return Config{
		Rules:         rules,
		DelegateFlags: true,
		ShadowRate:    1,
		HotThreshold:  2,
		ArtifactDir:   dir,
	}
}

// TestWarmStartRoundTrip is the core persistence invariant: an engine
// warm-started from a store a first engine populated restores every
// block and trace before running, performs zero demand translations,
// and replays the workload to an identical result with every block
// shadow-verified.
func TestWarmStartRoundTrip(t *testing.T) {
	c := compileT(t, hotProgram())
	_, rules := learnRules(t, hotProgram(), core.Config{Opcode: true, AddrMode: true})
	dir := t.TempDir()

	e1 := newArtEngine(t, c, warmRoundTripCfg(rules, dir))
	if w := e1.WarmStats(); !w.Enabled || w.Hits != 0 || w.Misses != 1 {
		t.Fatalf("cold engine warm stats = %+v, want enabled with one miss", w)
	}
	st1, err := e1.Run(env.CodeBase, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Translations == 0 {
		t.Fatalf("cold run translated nothing: %+v", st1)
	}
	if st1.Divergences != 0 {
		t.Fatalf("cold run diverged: %+v", st1)
	}

	// A fresh rule store built the same way must fingerprint identically,
	// or no cross-engine warm start could ever hit.
	_, rules2 := learnRules(t, hotProgram(), core.Config{Opcode: true, AddrMode: true})
	e2 := newArtEngine(t, c, warmRoundTripCfg(rules2, dir))
	w := e2.WarmStats()
	if w.Hits != 1 || w.Err != "" {
		t.Fatalf("warm engine stats = %+v, want one hit and no error", w)
	}
	if w.Blocks == 0 {
		t.Fatal("warm engine restored no blocks")
	}
	if w.Traces == 0 {
		t.Fatal("warm engine restored no traces")
	}
	if len(e2.cache) == 0 {
		t.Fatal("warm engine cache empty after restore")
	}
	st2, err := e2.Run(env.CodeBase, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Translations != 0 {
		t.Fatalf("warm run demand-translated %d blocks, want 0", st2.Translations)
	}
	if st2.Divergences != 0 {
		t.Fatalf("warm run diverged: %+v", st2)
	}
	sameResult(t, e1.GuestState(), e2.GuestState(), "warm vs cold")
	if st2.GuestExec != st1.GuestExec {
		t.Fatalf("warm GuestExec = %d, cold = %d", st2.GuestExec, st1.GuestExec)
	}
}

// TestWarmStartKeyMismatchIsCold checks each key component invalidates:
// an engine differing in guest code, backend or rule table must miss
// the first engine's artifact and behave exactly cold.
func TestWarmStartKeyMismatchIsCold(t *testing.T) {
	c := compileT(t, hotProgram())
	_, rules := learnRules(t, hotProgram(), core.Config{Opcode: true, AddrMode: true})
	dir := t.TempDir()

	e1 := newArtEngine(t, c, warmRoundTripCfg(rules, dir))
	if _, err := e1.Run(env.CodeBase, 100_000_000); err != nil {
		t.Fatal(err)
	}

	// Different guest code → different CodeHash → miss.
	c2 := compileT(t, testProgram())
	_, rules2 := learnRules(t, hotProgram(), core.Config{Opcode: true, AddrMode: true})
	e2 := newArtEngine(t, c2, warmRoundTripCfg(rules2, dir))
	if w := e2.WarmStats(); w.Hits != 0 || w.Misses != 1 || w.Blocks != 0 {
		t.Fatalf("code-hash mismatch warm stats = %+v, want a miss", w)
	}

	// Different rule table → different RuleFp → miss.
	_, fewer := learnRules(t, hotProgram(), core.Config{Opcode: true})
	e3 := newArtEngine(t, c, warmRoundTripCfg(fewer, dir))
	if w := e3.WarmStats(); w.Hits != 0 || w.Blocks != 0 {
		t.Fatalf("rule-fp mismatch warm stats = %+v, want a miss", w)
	}
}

// TestWarmStartCorruptArtifactRejected flips a bit in the published
// object and checks the warm engine rejects it and degrades to cold —
// same results, just no restored cache.
func TestWarmStartCorruptArtifactRejected(t *testing.T) {
	c := compileT(t, hotProgram())
	_, rules := learnRules(t, hotProgram(), core.Config{Opcode: true, AddrMode: true})
	dir := t.TempDir()

	e1 := newArtEngine(t, c, warmRoundTripCfg(rules, dir))
	if _, err := e1.Run(env.CodeBase, 100_000_000); err != nil {
		t.Fatal(err)
	}

	objs, err := filepath.Glob(filepath.Join(dir, "objects", "*.obj"))
	if err != nil || len(objs) == 0 {
		t.Fatalf("no published objects: %v %v", objs, err)
	}
	for _, obj := range objs {
		raw, err := os.ReadFile(obj)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0x01
		if err := os.WriteFile(obj, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	_, rules2 := learnRules(t, hotProgram(), core.Config{Opcode: true, AddrMode: true})
	e2 := newArtEngine(t, c, warmRoundTripCfg(rules2, dir))
	w := e2.WarmStats()
	if w.Rejects == 0 {
		t.Fatalf("corrupt artifact not rejected: %+v", w)
	}
	if w.Blocks != 0 || w.Traces != 0 {
		t.Fatalf("corrupt artifact partially restored: %+v", w)
	}
	st2, err := e2.Run(env.CodeBase, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Translations == 0 || st2.Divergences != 0 {
		t.Fatalf("degraded-to-cold run wrong: %+v", st2)
	}
}

// TestWarmStartQuarantineShardPropagates checks demotions travel through
// the store: a rule quarantined in engine 1's table is demoted in
// engine 2's before engine 2 executes anything.
func TestWarmStartQuarantineShardPropagates(t *testing.T) {
	c := compileT(t, hotProgram())
	_, rules := learnRules(t, hotProgram(), core.Config{Opcode: true, AddrMode: true})
	dir := t.TempDir()

	// Demote one rule by hand, then run to a clean halt so the engine
	// merges its quarantine state into the shard.
	all := rules.All()
	if len(all) == 0 {
		t.Fatal("no rules learned")
	}
	victim := all[0].Fingerprint()
	if n := rules.ApplyQuarantine([]rule.QuarantineEntry{{Fingerprint: victim, Reason: "test demotion"}}); n != 1 {
		t.Fatalf("ApplyQuarantine = %d, want 1", n)
	}
	e1 := newArtEngine(t, c, warmRoundTripCfg(rules, dir))
	if _, err := e1.Run(env.CodeBase, 100_000_000); err != nil {
		t.Fatal(err)
	}

	// Note the quarantine deliberately does NOT change the store
	// fingerprint (demotions propagate via the shard instead), so the
	// fresh engine still hits engine 1's artifacts.
	_, rules2 := learnRules(t, hotProgram(), core.Config{Opcode: true, AddrMode: true})
	if rules2.QuarantineLen() != 0 {
		t.Fatal("fresh store already quarantined")
	}
	e2 := newArtEngine(t, c, warmRoundTripCfg(rules2, dir))
	w := e2.WarmStats()
	if w.Quarantined != 1 {
		t.Fatalf("warm engine applied %d demotions, want 1 (%+v)", w.Quarantined, w)
	}
	if rules2.QuarantineLen() != 1 {
		t.Fatalf("rule store quarantine len = %d, want 1", rules2.QuarantineLen())
	}
	if w.Hits != 1 {
		t.Fatalf("quarantine must not change the artifact key: %+v", w)
	}
}

// TestWarmStartRestoreRespectsTraceConfig: a manifest recorded with
// traces restores plain blocks only into an engine that has trace
// formation off, and respects TraceBudget when it is on.
func TestWarmStartRestoreRespectsTraceConfig(t *testing.T) {
	c := compileT(t, hotProgram())
	_, rules := learnRules(t, hotProgram(), core.Config{Opcode: true, AddrMode: true})
	dir := t.TempDir()

	e1 := newArtEngine(t, c, warmRoundTripCfg(rules, dir))
	if _, err := e1.Run(env.CodeBase, 100_000_000); err != nil {
		t.Fatal(err)
	}
	if e1.WarmStats().Enabled && e1.LiveStats().TracesFormed == 0 {
		t.Fatal("cold run formed no traces; test needs a trace in the manifest")
	}

	// No HotThreshold: blocks restore, traces do not.
	_, rules2 := learnRules(t, hotProgram(), core.Config{Opcode: true, AddrMode: true})
	cfg := warmRoundTripCfg(rules2, dir)
	cfg.HotThreshold = 0
	e2 := newArtEngine(t, c, cfg)
	w := e2.WarmStats()
	if w.Blocks == 0 || w.Traces != 0 {
		t.Fatalf("trace-off restore = %+v, want blocks only", w)
	}
	st, err := e2.Run(env.CodeBase, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if st.Translations != 0 {
		t.Fatalf("restored blocks not reused: %d translations", st.Translations)
	}
}

// TestWarmStartPublishIsAtomicIdempotent reruns the same engine twice
// and checks the second clean halt republishes nothing new (identical
// manifest dedups) and the store directory holds no temp litter.
func TestWarmStartPublishIsIdempotent(t *testing.T) {
	c := compileT(t, hotProgram())
	_, rules := learnRules(t, hotProgram(), core.Config{Opcode: true, AddrMode: true})
	dir := t.TempDir()

	// Budget of one trace: without it the second run keeps heating heads
	// the first run left sub-threshold, forms more traces and so
	// (correctly) republishes a changed manifest — this test wants the
	// manifest bit-identical across runs.
	cfg := warmRoundTripCfg(rules, dir)
	cfg.TraceBudget = 1
	e := newArtEngine(t, c, cfg)
	if _, err := e.Run(env.CodeBase, 100_000_000); err != nil {
		t.Fatal(err)
	}
	refs1, _ := filepath.Glob(filepath.Join(dir, "refs", "*"))
	hits, misses, rejects, pubs1 := storeCounts(t, dir, e)
	_ = hits
	_ = misses
	_ = rejects

	// Second run: same image, same cache, same manifest.
	e.SetGuestState(&guest.State{Mem: e.Mem, R: func() (r [16]uint32) { r[guest.SP] = env.StackTop; return }()})
	if _, err := e.Run(env.CodeBase, 100_000_000); err != nil {
		t.Fatal(err)
	}
	refs2, _ := filepath.Glob(filepath.Join(dir, "refs", "*"))
	if len(refs2) != len(refs1) {
		t.Fatalf("refs grew %d -> %d on identical republish", len(refs1), len(refs2))
	}
	_, _, _, pubs2 := storeCounts(t, dir, e)
	if pubs2 != pubs1 {
		t.Fatalf("publishes grew %d -> %d on identical republish", pubs1, pubs2)
	}
	tmps, _ := filepath.Glob(filepath.Join(dir, "*", "*.tmp*"))
	if len(tmps) != 0 {
		t.Fatalf("temp litter left behind: %v", tmps)
	}
}

// storeCounts reads the engine's artifact counters off its registry.
func storeCounts(t *testing.T, dir string, e *Engine) (hits, misses, rejects, publishes uint64) {
	t.Helper()
	reg := e.Metrics()
	return reg.Counter(artifact.MetHits).Value(),
		reg.Counter(artifact.MetMisses).Value(),
		reg.Counter(artifact.MetRejects).Value(),
		reg.Counter(artifact.MetPublishes).Value()
}
