package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"paramdbt/internal/dbt"
	"paramdbt/internal/exp"
	"paramdbt/internal/guard/faultinject"
)

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
