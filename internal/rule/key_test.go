package rule

import (
	"sync"
	"testing"

	"paramdbt/internal/guest"
	"paramdbt/internal/host"
)

// keyTestTemplates builds a small but shape-diverse rule table: plain
// register ops, immediates, both memory sub-modes, a two-instruction
// sequence and a branch-tail rule.
func keyTestTemplates() []*Template {
	return []*Template{
		{
			Guest:  []GPat{{Op: guest.ADD, Args: []Arg{RegArg(0), RegArg(1), RegArg(2)}}},
			Host:   []HPat{{Op: host.ADDL, Dst: RegArg(0), Src: RegArg(2)}},
			Params: []ParamKind{PReg, PReg, PReg},
		},
		{
			Guest:  []GPat{{Op: guest.ADD, Args: []Arg{RegArg(0), RegArg(1), ImmArg(2)}}},
			Host:   []HPat{{Op: host.ADDL, Dst: RegArg(0), Src: ImmArg(2)}},
			Params: []ParamKind{PReg, PReg, PImm},
		},
		{
			Guest:  []GPat{{Op: guest.LDR, Args: []Arg{RegArg(0), MemDispArg(1, 2)}}},
			Host:   []HPat{{Op: host.MOVL, Dst: RegArg(0), Src: MemDispArg(1, 2)}},
			Params: []ParamKind{PReg, PReg, PImm},
		},
		{
			Guest:  []GPat{{Op: guest.LDR, Args: []Arg{RegArg(0), MemIdxArg(1, 2)}}},
			Host:   []HPat{{Op: host.MOVL, Dst: RegArg(0), Src: MemIdxArg(1, 2)}},
			Params: []ParamKind{PReg, PReg, PReg},
		},
		{
			Guest: []GPat{
				{Op: guest.EOR, Args: []Arg{RegArg(0), RegArg(1), RegArg(2)}},
				{Op: guest.ORR, Args: []Arg{RegArg(0), RegArg(0), RegArg(1)}},
			},
			Host: []HPat{
				{Op: host.XORL, Dst: RegArg(0), Src: RegArg(2)},
				{Op: host.ORL, Dst: RegArg(0), Src: RegArg(1)},
			},
			Params: []ParamKind{PReg, PReg, PReg},
		},
		{
			Guest:      []GPat{{Op: guest.CMP, Args: []Arg{RegArg(0), RegArg(1)}}},
			Host:       []HPat{{Op: host.CMPL, Dst: RegArg(0), Src: RegArg(1)}},
			Params:     []ParamKind{PReg, PReg},
			SetsFlags:  true,
			BranchTail: true,
			GCond:      guest.EQ,
			HCond:      host.E,
		},
	}
}

const keyTestProg = `
	add r0, r1, r2
	add r3, r0, #7
	ldr r4, [r1, #8]
	ldr r5, [r1, r2]
	eor r6, r1, r2
	orr r6, r6, r1
	cmp r0, r3
	beq out
	sub r0, r0, #1
	out: hlt
`

// windows enumerates every window (all starts, lengths 1..4) of the
// program — the shapes rule retrieval sees during block translation.
func windows(t *testing.T) [][]guest.Inst {
	t.Helper()
	prog := guest.MustAssemble(keyTestProg)
	var out [][]guest.Inst
	for i := range prog {
		for l := 1; l <= 4 && i+l <= len(prog); l++ {
			out = append(out, prog[i:i+l])
		}
	}
	return out
}

// TestKeyFpAgreesWithStringKey requires the fingerprint to induce the
// same equivalence classes as the string key over a diverse window set
// (equal keys hash equal; distinct keys stay distinct — collision-free
// on realistic shapes).
func TestKeyFpAgreesWithStringKey(t *testing.T) {
	ws := windows(t)
	for i := range ws {
		for j := range ws {
			sEq := Key(ws[i]) == Key(ws[j])
			fEq := KeyFp(ws[i]) == KeyFp(ws[j])
			if sEq != fEq {
				t.Fatalf("key mismatch: %q vs %q: stringEq=%v fpEq=%v",
					Key(ws[i]), Key(ws[j]), sEq, fEq)
			}
		}
	}
}

// TestKeyFpPrefixExtension checks the incremental property Lookup
// relies on: extending the hash of seq[:l-1] with seq[l-1] equals
// hashing seq[:l] from scratch.
func TestKeyFpPrefixExtension(t *testing.T) {
	prog := guest.MustAssemble(keyTestProg)
	h := KeyFpSeed
	for l := 1; l <= len(prog); l++ {
		h = ExtendKeyFp(h, prog[l-1])
		if want := KeyFp(prog[:l]); h != want {
			t.Fatalf("prefix hash diverges at length %d: %#x != %#x", l, h, want)
		}
	}
}

// TestPatKeyFpMatchesConcreteWindows requires every template to be
// stored under exactly the fingerprint of the windows it matches, and
// every prefix of its key to fingerprint like the same prefix of those
// windows — the invariants that make the prefix walk complete.
func TestPatKeyFpMatchesConcreteWindows(t *testing.T) {
	prog := guest.MustAssemble(keyTestProg)
	templates := keyTestTemplates()
	hits := 0
	for _, tm := range templates {
		for i := range prog {
			l := tm.GuestLen()
			if i+l > len(prog) {
				continue
			}
			w := prog[i : i+l]
			if _, ok := Match(tm, w); !ok {
				continue
			}
			hits++
			fps := patKeyFps(tm, KeyFpSeed)
			if len(fps) != l {
				t.Fatalf("template %q: %d prefix fingerprints, want %d", tm, len(fps), l)
			}
			for k := range fps {
				if KeyFp(w[:k+1]) != fps[k] {
					t.Fatalf("template %q matches %q but its length-%d prefix fingerprint differs", tm, Key(w), k+1)
				}
			}
		}
	}
	if hits < len(templates) {
		t.Fatalf("only %d template hits; every template should match somewhere", hits)
	}
}

// TestLookupCompleteness cross-checks fingerprint retrieval against a
// brute-force scan of every template, an oracle independent of the
// index: a lookup must find a match with the same window length
// whenever any template matches.
func TestLookupCompleteness(t *testing.T) {
	s := NewStore()
	templates := keyTestTemplates()
	for _, tm := range templates {
		if !s.Add(tm) {
			t.Fatalf("duplicate template %q", tm)
		}
	}
	prog := guest.MustAssemble(keyTestProg)
	found := 0
	for i := range prog {
		seq := prog[i:]
		// Brute force: longest matching window over all templates.
		want := 0
		for _, tm := range templates {
			l := tm.GuestLen()
			if l <= len(seq) && l > want {
				if _, ok := Match(tm, seq[:l]); ok {
					want = l
				}
			}
		}
		tm, _, l := s.Lookup(seq)
		if l != want || (tm == nil) != (want == 0) {
			t.Fatalf("at %d: Lookup (%v, %d), brute force length %d", i, tm, l, want)
		}
		if want > 0 {
			found++
		}
	}
	if found == 0 {
		t.Fatal("no window matched; test program is broken")
	}
}

// TestLookupIntoAllocs pins retrieval at zero allocations on a warm
// Binding: a hit, a miss at the first prefix, and a deep miss whose walk
// reaches a full-length key and runs its candidate through the matcher.
func TestLookupIntoAllocs(t *testing.T) {
	s := NewStore()
	for _, tm := range keyTestTemplates() {
		s.Add(tm)
	}
	for _, c := range []struct {
		name, src string
		hit       bool
	}{
		{"hit", "eor r6, r1, r2\norr r6, r6, r1", true},
		{"first-prefix miss", "hlt", false},
		{"deep miss", "eor r6, r1, r2\norr r5, r5, r1", false},
	} {
		seq := guest.MustAssemble(c.src)
		var b Binding
		if tm, _ := s.LookupInto(seq, nil, nil, &b); (tm != nil) != c.hit {
			t.Fatalf("%s: hit = %v, want %v", c.name, tm != nil, c.hit)
		}
		if n := testing.AllocsPerRun(100, func() { s.LookupInto(seq, nil, nil, &b) }); n != 0 {
			t.Errorf("%s: %v allocs per lookup, want 0", c.name, n)
		}
	}
}

// TestLookupRacesRekey runs lookups against SetBackendID flipping the
// store between two backends' keyings: every lookup must see one index
// in full — the result a quiescent store gives — never a torn mix.
// Run under -race by make race-obs.
func TestLookupRacesRekey(t *testing.T) {
	s := NewStore()
	for _, tm := range keyTestTemplates() {
		s.Add(tm)
	}
	prog := guest.MustAssemble(keyTestProg)
	type result struct {
		t *Template
		l int
	}
	want := make([]result, len(prog))
	hits := 0
	for i := range prog {
		tm, _, l := s.Lookup(prog[i:])
		want[i] = result{tm, l}
		if tm != nil {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("no window matched; test program is broken")
	}

	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
				s.SetBackendID(uint8(n & 1))
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var b Binding
			for n := 0; n < 5000; n++ {
				i := n % len(prog)
				tm, l := s.LookupInto(prog[i:], nil, nil, &b)
				if tm != want[i].t || l != want[i].l {
					t.Errorf("window %d: got (%v, %d) mid-rekey, want (%v, %d)", i, tm, l, want[i].t, want[i].l)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-done
}
