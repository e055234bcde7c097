package rule

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"paramdbt/internal/guest"
	"paramdbt/internal/host"
)

func sampleStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore()
	add := addRMWTemplate()
	add.Origin = OriginLearned
	if _, ok := Verify(add); !ok {
		t.Fatal("seed invalid")
	}
	s.Add(add)

	seq := &Template{
		Guest: []GPat{
			{Op: guest.CMP, Args: []Arg{RegArg(0), RegArg(1)}},
		},
		Host: []HPat{
			{Op: host.CMPL, Dst: RegArg(0), Src: RegArg(1)},
		},
		Params:     []ParamKind{PReg, PReg},
		BranchTail: true,
		GCond:      guest.NE,
		HCond:      host.NE,
		Origin:     OriginLearned,
	}
	if res, ok := Verify(seq); !ok {
		t.Fatalf("branch-tail seed invalid: %s", res.Reason)
	}
	s.Add(seq)

	mem := &Template{
		Guest:  []GPat{{Op: guest.LDR, Args: []Arg{RegArg(0), MemDispArg(1, 2)}}},
		Host:   []HPat{{Op: host.MOVL, Dst: RegArg(0), Src: MemDispArg(1, 2)}},
		Params: []ParamKind{PReg, PReg, PImm},
		Origin: OriginModeParam,
	}
	if _, ok := Verify(mem); !ok {
		t.Fatal("mem seed invalid")
	}
	s.Add(mem)
	return s
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := sampleStore(t)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := LoadGated(&buf, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Dump() != s.Dump() {
		t.Fatalf("round trip mismatch:\n%s\nvs\n%s", loaded.Dump(), s.Dump())
	}
	// Loaded rules must still match and instantiate.
	tm, b, n := loaded.Lookup(guest.MustAssemble("cmp r2, r5\nbne #3"))
	if tm == nil || n != 2 {
		t.Fatalf("branch-tail rule lost in round trip (n=%d)", n)
	}
	_ = b
}

func TestLoadWithReverify(t *testing.T) {
	s := sampleStore(t)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadGated(&buf, true, nil); err != nil {
		t.Fatalf("reverify of sound table failed: %v", err)
	}
}

func TestLoadRejectsUnsound(t *testing.T) {
	// Hand-craft a table whose host side computes the wrong thing; plain
	// Load accepts it structurally, reverify must reject it.
	bad := &Template{
		Guest:  []GPat{{Op: guest.SUB, Args: []Arg{RegArg(0), RegArg(0), RegArg(1)}}},
		Host:   []HPat{{Op: host.ADDL, Dst: RegArg(0), Src: RegArg(1)}},
		Params: []ParamKind{PReg, PReg},
	}
	s := NewStore()
	s.Add(bad)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, _, err := LoadGated(bytes.NewReader(data), false, nil); err != nil {
		t.Fatalf("structural load should accept: %v", err)
	}
	if _, _, err := LoadGated(bytes.NewReader(data), true, nil); err == nil {
		t.Fatal("reverify accepted an unsound rule")
	}
}

func TestLoadRejectsCorruptIndices(t *testing.T) {
	cases := []string{
		// Param index beyond the params array.
		`{"guest":[{"Op":2,"Args":[{"Kind":1,"Param":7,"DispParam":-1,"Scratch":-1}]}],"host":[{"Op":1,"Dst":{"Kind":1,"Param":0,"DispParam":-1,"Scratch":-1},"Src":{"Kind":0,"Param":-1,"DispParam":-1,"Scratch":-1}}],"params":[0]}`,
		// Scratch index beyond NScratch.
		`{"guest":[{"Op":2,"Args":[{"Kind":1,"Param":0,"DispParam":-1,"Scratch":-1}]}],"host":[{"Op":1,"Dst":{"Kind":1,"Param":-1,"DispParam":-1,"Scratch":3},"Src":{"Kind":0,"Param":-1,"DispParam":-1,"Scratch":-1}}],"params":[0]}`,
		// Empty host pattern.
		`{"guest":[{"Op":2,"Args":[]}],"host":[],"params":[]}`,
		// Nonzero constraint on a register param.
		`{"guest":[{"Op":2,"Args":[{"Kind":1,"Param":0,"DispParam":-1,"Scratch":-1}]}],"host":[{"Op":1,"Dst":{"Kind":1,"Param":0,"DispParam":-1,"Scratch":-1},"Src":{"Kind":0,"Param":-1,"DispParam":-1,"Scratch":-1}}],"params":[0],"nonZeroImms":[0]}`,
	}
	for i, c := range cases {
		if _, _, err := LoadGated(strings.NewReader(c), false, nil); err == nil {
			t.Errorf("case %d: corrupt table accepted", i)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, _, err := LoadGated(strings.NewReader("not json"), false, nil); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestSaveIsDeterministic(t *testing.T) {
	s := sampleStore(t)
	var a, b bytes.Buffer
	if err := s.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("nondeterministic serialization")
	}
}

func TestCondClamping(t *testing.T) {
	if guestCond(250) != guest.AL {
		t.Fatal("out-of-range guest cond not clamped")
	}
	if hostCond(250) != host.CondNone {
		t.Fatal("out-of-range host cond not clamped")
	}
}

func TestWriteFileAtomicReplaces(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "f")
	if err := WriteFileAtomic(p, []byte("one"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(p, []byte("two"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(p)
	if err != nil || string(got) != "two" {
		t.Fatalf("read %q, %v", got, err)
	}
	// No temp litter left behind.
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("dir entries: %v, %v", ents, err)
	}
}
