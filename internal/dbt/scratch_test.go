package dbt

import (
	"fmt"
	"reflect"
	"testing"

	"paramdbt/internal/backend"
	"paramdbt/internal/core"
	"paramdbt/internal/env"
	"paramdbt/internal/guest"
	"paramdbt/internal/learn"
	"paramdbt/internal/mem"
	"paramdbt/internal/minic"
	"paramdbt/internal/rule"
)

// scratchCase is a translator with the code it translates: every block
// pc a run entered, first entry first, and the richest of them (rules,
// emulated opcodes and a label map).
type scratchCase struct {
	name string
	tr   *translator
	code *mem.Memory // a clone: safe to read from several goroutines
	pcs  []uint32
	rich uint32
}

// newScratchCase runs prog under cfg, with rules learned from prog
// itself, and keeps the engine's translator and the code image.
func newScratchCase(tb testing.TB, name string, prog *minic.Program, cfg Config) scratchCase {
	tb.Helper()
	c, err := minic.Compile(prog)
	if err != nil {
		tb.Fatal(err)
	}
	learned := rule.NewStore()
	learn.FromCompiled(c, learned)
	cfg.Rules, _ = core.Parameterize(learned, core.Config{Opcode: true, AddrMode: true})
	cfg.DelegateFlags = true
	m := mem.New()
	if _, err := c.LoadGuest(m); err != nil {
		tb.Fatal(err)
	}
	sc := scratchCase{name: name}
	seen := map[uint32]bool{}
	cfg.TraceBlock = func(pc uint32) {
		if !seen[pc] {
			seen[pc] = true
			sc.pcs = append(sc.pcs, pc)
		}
	}
	e := New(m, cfg)
	init := &guest.State{Mem: m}
	init.R[guest.SP] = env.StackTop
	e.SetGuestState(init)
	if _, err := e.Run(env.CodeBase, 100_000_000); err != nil {
		tb.Fatal(err)
	}
	sc.tr, sc.code = e.tr, m.Clone()
	best := -1
	for _, pc := range sc.pcs {
		b, err := sc.tr.translate(sc.code, pc, &txctx{}, nil, nil)
		if err != nil {
			tb.Fatal(err)
		}
		if score := len(b.rules) * len(b.uncovered) * len(b.hb.Labels()); score > best {
			best, sc.rich = score, pc
		}
	}
	return sc
}

// unit translates the case's unit A, its richest block, with tx.
func (sc scratchCase) unit(tx *txctx) (*tblock, error) {
	return sc.tr.translate(sc.code, sc.rich, tx, nil, nil)
}

// kept is everything a tblock keeps from its translation, deep-copied:
// the guest block prints with its instructions, counts and emulated
// opcodes.
type kept struct {
	host, labels, block, links, ranges string
	rules                              []*rule.Template
	uncovered                          int
}

func keptOf(tb *tblock) kept {
	return kept{
		host:      fmt.Sprint(tb.hb.Insts),
		labels:    fmt.Sprint(tb.hb.Labels()),
		block:     fmt.Sprint(tb.pc, tb.insts, tb.nGuest, tb.nCovered, tb.nSeq, tb.uncovered),
		links:     fmt.Sprint(tb.links),
		ranges:    fmt.Sprint(tb.ranges),
		rules:     append([]*rule.Template(nil), tb.rules...),
		uncovered: len(tb.uncovered),
	}
}

// checkScratchAliasing translates the case's unit A with tx, then
// every block (and A again) with the same tx: A must be unchanged, and
// equal to a translation of A with a fresh txctx.
func checkScratchAliasing(sc scratchCase, tx *txctx) error {
	a, err := sc.unit(tx)
	if err != nil {
		return err
	}
	want := keptOf(a)
	if len(want.rules) == 0 || want.uncovered == 0 || want.labels == "map[]" {
		return fmt.Errorf("unit A has no rule, emulated opcode or label: %+v", want)
	}
	for _, pc := range sc.pcs {
		if _, err := sc.tr.translate(sc.code, pc, tx, nil, nil); err != nil {
			return fmt.Errorf("block %#x: %v", pc, err)
		}
	}
	if _, err := sc.unit(tx); err != nil {
		return err
	}
	if got := keptOf(a); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("translating more units with the same txctx changed unit A:\n got %+v\nwant %+v", got, want)
	}
	fresh, err := sc.unit(&txctx{})
	if err != nil {
		return err
	}
	if got := keptOf(fresh); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("unit A through a used txctx differs from a fresh one:\n got %+v\nwant %+v", got, want)
	}
	return nil
}

func scratchCases(t *testing.T) []scratchCase {
	x86, risc := backend.MustLookup("x86"), backend.MustLookup("risc")
	cases := []scratchCase{
		newScratchCase(t, "x86", testProgram(), Config{Backend: x86}),
		newScratchCase(t, "risc", testProgram(), Config{Backend: risc}),
		newScratchCase(t, "risc+peephole", testProgram(), Config{Backend: risc, Peephole: true}),
	}
	if cases[2].tr.validated.Value() == 0 {
		t.Fatal("risc+peephole: no optimized stream was installed, so the case misses the rewrite path")
	}
	return cases
}

// TestTranslateScratchAliasing: the txctx scratch (decode buffer, plans,
// register map, assembler buffer, TCG generator, used/uncovered
// accumulators) is reused by every unit a goroutine translates, so a
// kept block must own everything it keeps. Each case runs on the test
// goroutine and then on two goroutines at once, each with its own txctx
// over the one translator, as service tenants share it (the race
// detector sees them under `make race`).
func TestTranslateScratchAliasing(t *testing.T) {
	for _, sc := range scratchCases(t) {
		t.Run(sc.name, func(t *testing.T) {
			if err := checkScratchAliasing(sc, &txctx{}); err != nil {
				t.Fatal(err)
			}
			errs := make(chan error, 2)
			for i := 0; i < 2; i++ {
				go func() { errs <- checkScratchAliasing(sc, &txctx{}) }()
			}
			for i := 0; i < 2; i++ {
				if err := <-errs; err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// translateBlocks picks, from an x86 run of testProgram, one block every
// instruction of which a rule covers and one that goes through TCG for
// push/pop or ends in bl.
func translateBlocks(tb testing.TB) (sc scratchCase, covered, tcgHeavy uint32) {
	sc = newScratchCase(tb, "x86", testProgram(), Config{Backend: backend.MustLookup("x86")})
	var tx txctx
	for _, pc := range sc.pcs {
		b, err := sc.tr.translate(sc.code, pc, &tx, nil, nil)
		if err != nil {
			tb.Fatal(err)
		}
		if covered == 0 && b.nGuest > 1 && b.nCovered == b.nGuest {
			covered = pc
		}
		stack := false
		for _, in := range b.insts {
			stack = stack || in.Op == guest.PUSH || in.Op == guest.POP || in.Op == guest.BL
		}
		if tcgHeavy == 0 && stack && len(b.uncovered) >= 2 {
			tcgHeavy = pc
		}
	}
	if covered == 0 || tcgHeavy == 0 {
		tb.Fatalf("no fully covered (%#x) or TCG-heavy (%#x) block", covered, tcgHeavy)
	}
	return sc, covered, tcgHeavy
}

// TestTranslateAllocs pins the translate path's heap traffic on a warm
// txctx to what the tblock keeps (see txctx): at most 10 allocations a
// block.
func TestTranslateAllocs(t *testing.T) {
	sc, covered, tcgHeavy := translateBlocks(t)
	for _, pc := range []uint32{covered, tcgHeavy} {
		var tx txctx
		translate := func() {
			if _, err := sc.tr.translate(sc.code, pc, &tx, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		translate()
		if n := testing.AllocsPerRun(100, translate); n > 10 {
			t.Errorf("block %#x: %v allocations per translation, want ≤ 10", pc, n)
		}
	}
}

var sinkTB *tblock

// BenchmarkTranslateBlock is one block's translation on a warm txctx.
func BenchmarkTranslateBlock(b *testing.B) {
	sc, covered, tcgHeavy := translateBlocks(b)
	for _, c := range []struct {
		name string
		pc   uint32
	}{{"covered", covered}, {"tcg", tcgHeavy}} {
		b.Run(c.name, func(b *testing.B) {
			var tx txctx
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if sinkTB, err = sc.tr.translate(sc.code, c.pc, &tx, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
