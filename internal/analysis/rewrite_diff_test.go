package analysis_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"paramdbt/internal/analysis"
	"paramdbt/internal/backend"
	"paramdbt/internal/core"
	"paramdbt/internal/dbt"
	"paramdbt/internal/env"
	"paramdbt/internal/exp"
	"paramdbt/internal/guest"
	"paramdbt/internal/host"
	"paramdbt/internal/mem"
)

// peepholeRecorder is the risc backend with its peephole recorded:
// installed as Config.Backend it keeps every optimized stream the pass
// deleted something from, next to the stream it came from, in
// translation order — exactly the pairs the engine validates.
type peepholeRecorder struct {
	backend.Backend
	pairs [][2]*host.Block
}

func (r *peepholeRecorder) OptimizeBlock(b *host.Block) (*host.Block, backend.OptStats, error) {
	ob, st, err := r.Backend.(backend.Optimizer).OptimizeBlock(b)
	if err == nil && st.Deleted() > 0 {
		r.pairs = append(r.pairs, [2]*host.Block{b, ob})
	}
	return ob, st, err
}

// peepholeCase is one peephole candidate: the stream pair, its rewrite
// verdict (ValidateRewrite over the pair), the stream the engine
// installed for that unit, and that stream's guest verdict.
type peepholeCase struct {
	bench         string
	before, after *host.Block
	rewrite       *analysis.BlockReport
	installed     *host.Block
	guest         *analysis.BlockReport
}

var (
	peepholeOnce  sync.Once
	peepholeCases []peepholeCase
	peepholeErr   error
)

// recordPeephole runs the twelve workload profiles on risc with the
// peephole, once per test binary, and validates what they produced.
func recordPeephole(tb testing.TB) []peepholeCase {
	tb.Helper()
	peepholeOnce.Do(func() { peepholeCases, peepholeErr = buildPeepholeCases() })
	if peepholeErr != nil {
		tb.Fatal(peepholeErr)
	}
	return peepholeCases
}

func buildPeepholeCases() ([]peepholeCase, error) {
	c, err := exp.BuildCorpus(1)
	if err != nil {
		return nil, err
	}
	full, _ := core.Parameterize(c.Union(c.Names), core.Config{Opcode: true, AddrMode: true})
	var cases []peepholeCase
	for _, name := range c.Names {
		rec := &peepholeRecorder{Backend: backend.MustLookup("risc")}
		e, r, err := c.RunEngine(name, dbt.Config{Rules: full, DelegateFlags: true, Backend: rec, Peephole: true})
		if err != nil {
			return nil, err
		}
		if n := r.Stats.BlocksValidated + r.Stats.ValidateFallbacks; n != uint64(len(rec.pairs)) {
			return nil, fmt.Errorf("%s: %d recorded rewrites, %d engine verdicts", name, len(rec.pairs), n)
		}
		ts := e.Translations()
		proved := uint64(0)
		for _, p := range rec.pairs {
			rep := analysis.ValidateRewrite(p[0], p[1])
			if rep.Verdict == analysis.VerdictProved {
				proved++
			}
			// The unit the candidate came from holds one of its two
			// streams, whichever the engine installed.
			var unit *dbt.Translation
			for i := range ts {
				if slices.Equal(ts[i].Host.Insts, p[0].Insts) || slices.Equal(ts[i].Host.Insts, p[1].Insts) {
					unit = &ts[i]
					break
				}
			}
			if unit == nil {
				return nil, fmt.Errorf("%s: no installed unit holds either stream of a candidate", name)
			}
			rep.PC = unit.Segs[0].PC
			opts := analysis.ValidateOpts{CheckFlags: unit.FlagsExact, HaltPC: dbt.HaltPC}
			cases = append(cases, peepholeCase{bench: name, before: p[0], after: p[1], rewrite: rep,
				installed: unit.Host, guest: analysis.ValidateBlock(unit.Segs, unit.Host, opts)})
		}
		if proved != r.Stats.BlocksValidated {
			return nil, fmt.Errorf("%s: %d rewrites proved offline, engine installed %d", name, proved, r.Stats.BlocksValidated)
		}
	}
	return cases, nil
}

// TestValidateRewriteDifferential checks the rewrite verdicts on every
// peephole candidate the twelve risc profiles produce against three
// other authorities: the engine installed the optimized stream exactly
// for the proved candidates, the guest-vs-host validator on the
// installed stream never refutes a proved rewrite, and both streams of
// every proved rewrite leave the same guest-visible state on host CPUs
// from random images.
func TestValidateRewriteDifferential(t *testing.T) {
	cases := recordPeephole(t)
	proved := 0
	for i, pc := range cases {
		ok := pc.rewrite.Verdict == analysis.VerdictProved
		if slices.Equal(pc.installed.Insts, pc.after.Insts) != ok {
			t.Errorf("%s pc=%#x: rewrite %s, but the engine installed the %d-instruction stream (optimized %d, finalized %d)",
				pc.bench, pc.rewrite.PC, pc.rewrite.Verdict, len(pc.installed.Insts), len(pc.after.Insts), len(pc.before.Insts))
		}
		if !ok {
			continue
		}
		proved++
		if pc.guest.Verdict == analysis.VerdictRefuted {
			t.Errorf("%s pc=%#x: rewrite proved, optimized stream refuted against the guest: %s",
				pc.bench, pc.guest.PC, pc.guest.Reason)
		}
		for seed := int64(0); seed < 32; seed++ {
			if d := diffStreams(pc.before, pc.after, seed+int64(i)<<8); d != "" {
				t.Fatalf("%s pc=%#x seed %d: proved rewrite diverges: %s\nbefore:\n%s\nafter:\n%s",
					pc.bench, pc.rewrite.PC, seed, d, pc.before.Listing(), pc.after.Listing())
			}
		}
	}
	if proved == 0 {
		t.Fatal("no rewrite proved: the differential exercised nothing")
	}
	t.Logf("%d of %d rewrites proved, each run from 32 images", proved, len(cases))
}

// diffStreams runs before and after from one random machine image —
// host registers, EFLAGS, every CPUState word, a populated data segment
// that guest registers often point into — and describes the first
// difference in what the rewrite contract covers: exit PC, every
// CPUState word that is not translator-private (guest registers, NZCV,
// float registers, OffSBExit) and guest memory below the CPUState
// frame.
func diffStreams(before, after *host.Block, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	m := mem.New()
	var regs [host.NumRegs]uint32
	for r := range regs {
		regs[r] = rng.Uint32()
	}
	regs[host.EBP], regs[host.ESP] = env.StateBase, env.HostStackTop
	flags := host.Flags{ZF: rng.Intn(2) == 0, SF: rng.Intn(2) == 0, CF: rng.Intn(2) == 0, OF: rng.Intn(2) == 0}
	for off := uint32(0); off < env.Size; off += 4 {
		m.Write32(env.StateBase+off, rng.Uint32())
	}
	for r := 0; r < guest.NumRegs; r++ {
		if rng.Intn(2) == 0 {
			m.Write32(env.StateBase+uint32(env.OffReg(r)), env.DataBase+uint32(rng.Intn(64))*4)
		}
	}
	for _, off := range []uint32{env.OffN, env.OffZ, env.OffC, env.OffV} {
		m.Write32(env.StateBase+off, uint32(rng.Intn(2)))
	}
	m.Write32(env.StateBase+env.OffSBExit, uint32(rng.Intn(4)))
	for i := uint32(0); i < 128; i++ {
		m.Write32(env.DataBase+4*i, rng.Uint32())
	}

	run := func(b *host.Block, m *mem.Memory) (*host.CPU, host.ExitResult, error) {
		c := host.NewCPU(m)
		c.R, c.Flags = regs, flags
		res, err := c.Exec(b, 1<<16)
		return c, res, err
	}
	c0, r0, e0 := run(before, m.Clone())
	c1, r1, e1 := run(after, m.Clone())
	switch {
	case (e0 == nil) != (e1 == nil):
		return fmt.Sprintf("exec error %v vs %v", e0, e1)
	case e0 != nil:
		return ""
	case r0.NextPC != r1.NextPC:
		return fmt.Sprintf("next pc %#x vs %#x", r0.NextPC, r1.NextPC)
	}
	// Every CPUState word that is not translator-private: everything
	// below the spill area, and the side-exit slot.
	words := []uint32{env.OffSBExit}
	for off := uint32(0); off < env.OffScratch; off += 4 {
		words = append(words, off)
	}
	for _, off := range words {
		if w, g := c0.Mem.Read32(env.StateBase+off), c1.Mem.Read32(env.StateBase+off); w != g {
			return fmt.Sprintf("env%+d: %#x vs %#x", off, w, g)
		}
	}
	if d := c0.Mem.DiffBelow(c1.Mem, env.StateBase, 4); len(d) > 0 {
		return fmt.Sprintf("guest memory differs at %#x", d)
	}
	return ""
}

// BenchmarkValidateRewrite is the per-block cost of licensing the risc
// peephole, over the candidates the twelve profiles produce.
func BenchmarkValidateRewrite(b *testing.B) {
	cases := recordPeephole(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := cases[i%len(cases)]
		analysis.ValidateRewrite(pc.before, pc.after)
	}
}
