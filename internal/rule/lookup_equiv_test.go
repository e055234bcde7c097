package rule_test

import (
	"slices"
	"sort"
	"sync"
	"testing"

	"paramdbt/internal/core"
	"paramdbt/internal/exp"
	"paramdbt/internal/guest"
	"paramdbt/internal/minic"
	"paramdbt/internal/rule"
	"paramdbt/internal/workload"
)

// corpusProgram is one linked guest binary lookups are run over.
type corpusProgram struct {
	name  string
	insts []guest.Inst
}

var shipped struct {
	once  sync.Once
	full  *rule.Store
	progs []corpusProgram
	err   error
}

// shippedTable returns the full parameterized table (every workload's
// learned rules, opcode and addressing-mode parameterization) and the
// programs it is looked up over: the twelve paper workloads and the
// four generated wide programs of the benchmark's cold workload (120
// functions each, seed 1).
func shippedTable(t *testing.T) (*rule.Store, []corpusProgram) {
	t.Helper()
	shipped.once.Do(func() {
		c, err := exp.BuildCorpus(1)
		if err != nil {
			shipped.err = err
			return
		}
		shipped.full, _ = core.Parameterize(c.Union(c.Names), core.Config{Opcode: true, AddrMode: true})
		for _, n := range c.Names {
			shipped.progs = append(shipped.progs, corpusProgram{n, c.Comp[n].GuestInsts})
		}
		for _, base := range []string{"gcc", "xalancbmk", "perlbench", "gobmk"} {
			i := slices.IndexFunc(workload.Profiles, func(p workload.Profile) bool { return p.Name == base })
			p := workload.Profiles[i]
			p.Name += "-wide"
			p.Seed = p.Seed*1_000_003 + 1
			p.Funcs, p.HotFuncs, p.HotIters, p.InnerIter = 120, 120, 1, 2
			comp, err := minic.Compile(workload.Generate(p, 1))
			if err != nil {
				shipped.err = err
				return
			}
			shipped.progs = append(shipped.progs, corpusProgram{p.Name, comp.GuestInsts})
		}
	})
	if shipped.err != nil {
		t.Fatal(shipped.err)
	}
	return shipped.full, shipped.progs
}

// TestLookupMatchesPerLengthProbe requires the prefix walk to return
// exactly what the per-length probe it replaced returns — template
// pointer, window length and binding — at every window start of every
// corpus program, on the shipped table under both backends' keyings,
// unfiltered, with the most-hit rule quarantined, and with a skip
// filter.
func TestLookupMatchesPerLengthProbe(t *testing.T) {
	full, progs := shippedTable(t)
	defer full.SetBackendID(0)
	for _, bid := range []uint8{0, 1} {
		full.SetBackendID(bid)

		sweep := func(name string, skip func(*rule.Template) bool) map[*rule.Template]int {
			hits := map[*rule.Template]int{}
			windows, found := 0, 0
			var got, want rule.Binding
			for _, p := range progs {
				for i := range p.insts {
					seq := p.insts[i:]
					windows++
					gt, gl := full.LookupInto(seq, nil, skip, &got)
					wt, wl := full.LookupPerLength(seq, skip, &want)
					if gt != wt || gl != wl {
						t.Fatalf("backend %d, %s: %s at %d: walk (%v, %d), per-length probe (%v, %d)",
							bid, name, p.name, i, gt, gl, wt, wl)
					}
					if gt == nil {
						continue
					}
					if !slices.Equal(got.Regs, want.Regs) || !slices.Equal(got.Imms, want.Imms) {
						t.Fatalf("backend %d, %s: %s at %d: bindings differ: %+v vs %+v", bid, name, p.name, i, got, want)
					}
					hits[gt]++
					found++
				}
			}
			t.Logf("backend %d, %s: %d hits over %d windows, %d distinct rules", bid, name, found, windows, len(hits))
			return hits
		}

		hits := sweep("unfiltered", nil)
		if len(hits) < 2 {
			t.Fatalf("backend %d: only %d distinct rules hit", bid, len(hits))
		}
		byUse := make([]*rule.Template, 0, len(hits))
		for tm := range hits {
			byUse = append(byUse, tm)
		}
		sort.Slice(byUse, func(i, j int) bool {
			if hits[byUse[i]] != hits[byUse[j]] {
				return hits[byUse[i]] > hits[byUse[j]]
			}
			return byUse[i].Fingerprint() < byUse[j].Fingerprint()
		})

		full.Quarantine(byUse[0], "test")
		if h := sweep("quarantined", nil); h[byUse[0]] != 0 {
			t.Fatalf("backend %d: quarantined rule returned %d times", bid, h[byUse[0]])
		}
		full.Unquarantine(byUse[0])

		// Skip the second most-hit rule and every branch-tail rule, so
		// lookups fall back to shorter windows.
		skip := func(tm *rule.Template) bool { return tm == byUse[1] || tm.BranchTail }
		if h := sweep("skip", skip); h[byUse[1]] != 0 {
			t.Fatalf("backend %d: skipped rule returned %d times", bid, h[byUse[1]])
		}
	}
}

// TestKeyFingerprintsCollisionFree requires the shipped table's
// fingerprints to be collision-free under both backends' keyings:
// distinct key strings, and distinct key-prefix strings, never share a
// fingerprint. A template's key and its prefixes are named by Key on a
// window the template matches; every window prefix the corpus presents
// (up to the longest rule) joins the same check.
func TestKeyFingerprintsCollisionFree(t *testing.T) {
	full, progs := shippedTable(t)
	defer full.SetBackendID(0)
	for _, bid := range []uint8{0, 1} {
		full.SetBackendID(bid)
		seed := full.KeySeed()
		keyOf := map[uint64]string{}
		note := func(fp uint64, key string) {
			if k, ok := keyOf[fp]; ok && k != key {
				t.Fatalf("backend %d: %q and %q share fingerprint %#x", bid, k, key, fp)
			}
			keyOf[fp] = key
		}
		fpOf := func(w []guest.Inst) uint64 {
			h := seed
			for _, in := range w {
				h = rule.ExtendKeyFp(h, in)
			}
			return h
		}

		for _, tm := range full.All() {
			w := matchingWindow(tm, progs)
			if w == nil {
				t.Fatalf("no window matches %s", tm)
			}
			for k, fp := range rule.PatKeyFps(tm, seed) {
				if got := fpOf(w[:k+1]); got != fp {
					t.Fatalf("backend %d: %s: length-%d key prefix fingerprints %#x, its window %#x", bid, tm, k+1, fp, got)
				}
				note(fp, rule.Key(w[:k+1]))
			}
		}
		for _, p := range progs {
			for i := range p.insts {
				for l := 1; l <= full.MaxLen() && i+l <= len(p.insts); l++ {
					w := p.insts[i : i+l]
					note(fpOf(w), rule.Key(w))
				}
			}
		}
		t.Logf("backend %d: %d rules, %d distinct keys and prefixes", bid, full.Len(), len(keyOf))
	}
}

// matchingWindow returns a guest window tm matches: its concrete form
// under the canonical verify assignment (with a branch tail appended
// for a branch-tail rule), or failing that the first corpus window it
// matches.
func matchingWindow(tm *rule.Template, progs []corpusProgram) []guest.Inst {
	if w, _, _, _, err := rule.Concretize(tm, func(int) int32 { return 1 }); err == nil {
		if tm.BranchTail {
			w = append(w, guest.MustAssemble("b"+tm.GCond.String()+" #3")...)
		}
		if _, ok := rule.Match(tm, w); ok {
			return w
		}
	}
	l := tm.GuestLen()
	for _, p := range progs {
		for i := 0; i+l <= len(p.insts); i++ {
			if _, ok := rule.Match(tm, p.insts[i:i+l]); ok {
				return p.insts[i : i+l]
			}
		}
	}
	return nil
}
