package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"paramdbt/internal/dbt"
	"paramdbt/internal/exp"
	"paramdbt/internal/guard/faultinject"
	"paramdbt/internal/rule"
)

// TestMain runs the command itself when the test binary is started with
// PARADBT_RUN_MAIN set, so tests can drive paradbt end to end through
// its flags without building a second binary.
func TestMain(m *testing.M) {
	if os.Getenv("PARADBT_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// paradbt runs the command with args and returns its stdout and stderr.
func paradbt(t *testing.T, args ...string) (string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "PARADBT_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("paradbt %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return stdout.String(), stderr.String()
}

// TestRulesFileGoesThroughTheGate: a table file holding one rule whose
// host semantics were silently corrupted loads with exactly that rule
// refused, and every other rule admitted.
func TestRulesFileGoesThroughTheGate(t *testing.T) {
	corpus, err := exp.BuildCorpus(1)
	if err != nil {
		t.Fatal(err)
	}
	store := corpus.Union([]string{"mcf"})
	bad := faultinject.CorruptTemplates(store.All(), 1)
	if len(bad) != 1 {
		t.Fatal("no corruptible learned rule")
	}
	var buf bytes.Buffer
	if err := store.Save(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rules.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, st, err := loadRuleTable(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.GateRejected != 1 || st.Loaded != store.Len()-1 {
		t.Fatalf("loaded %d, gate-rejected %d of %d rules; want exactly the corrupted one refused", st.Loaded, st.GateRejected, store.Len())
	}
	for _, tm := range loaded.All() {
		if tm.Fingerprint() == bad[0] {
			t.Fatal("the corrupted rule was admitted")
		}
	}
}

// TestDumpStopsAtTheImageEnd: asked for more blocks than the image
// holds, dump lists every block of the image once, in code order, and
// returns without walking into the memory past it.
func TestDumpStopsAtTheImageEnd(t *testing.T) {
	corpus, err := exp.BuildCorpus(1)
	if err != nil {
		t.Fatal(err)
	}
	const bench = "mcf"
	want := 0
	for _, in := range corpus.Comp[bench].GuestInsts {
		if in.IsBranch() {
			want++
		}
	}
	var out strings.Builder
	if err := dump(&out, corpus, bench, dbt.Config{}, 1<<20); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out.String(), "guest block @"); got != want {
		t.Fatalf("dump listed %d blocks, the image holds %d", got, want)
	}
}

// TestQuarantineFileRoundTrip: a run whose fault plan corrupts a used
// rule catches it under shadow verification and persists it with
// -quarantine-file; a second run under the same plan re-demotes it
// from the file before the run starts, so it never diverges.
func TestQuarantineFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	plan := filepath.Join(dir, "plan.json")
	if err := os.WriteFile(plan, []byte(`{"corruptRules": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	quar := filepath.Join(dir, "quarantine.jsonl")
	args := []string{"-bench", "mcf", "-mode", "para", "-inject", plan, "-quarantine-file", quar}

	out, errOut := paradbt(t, args...)
	if !strings.Contains(out, "divergences        1\n") || !strings.Contains(errOut, "quarantine: persisted 1 rule(s)") {
		t.Fatalf("first run did not catch and persist the corrupted rule:\n%s%s", out, errOut)
	}
	f, err := os.Open(quar)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := rule.LoadQuarantine(f)
	f.Close()
	if err != nil || len(entries) != 1 {
		t.Fatalf("quarantine file holds %d entries (%v), want 1", len(entries), err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 2 {
		t.Fatalf("the atomic write left litter: %v", ents)
	}

	out, errOut = paradbt(t, args...)
	if !strings.Contains(errOut, "quarantine: re-demoted 1 of 1 persisted rules") {
		t.Fatalf("second run did not re-demote the corrupted rule:\n%s", errOut)
	}
	if !strings.Contains(out, "divergences        0\n") {
		t.Fatalf("the re-demoted rule still ran:\n%s", out)
	}
}
