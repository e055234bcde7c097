package host_test

import (
	"fmt"
	"testing"

	"paramdbt/internal/backend"
	"paramdbt/internal/core"
	"paramdbt/internal/dbt"
	"paramdbt/internal/env"
	"paramdbt/internal/exp"
	"paramdbt/internal/guest"
	"paramdbt/internal/host"
	"paramdbt/internal/learn"
	"paramdbt/internal/mem"
	"paramdbt/internal/minic"
	"paramdbt/internal/rule"
)

// recorder is a backend that keeps every block it finalizes: installed
// as Config.Backend it collects exactly the host code an engine run
// translates to, blocks and superblocks alike.
type recorder struct {
	backend.Backend
	blocks []*host.Block
}

func (r *recorder) Finalize(a *host.Asm) (*host.Block, error) {
	b, err := r.Backend.Finalize(a)
	if err == nil {
		r.blocks = append(r.blocks, b)
	}
	return b, err
}

// twinSweep runs b on twin CPUs at every step budget from 0 to len+1,
// with and without write tracking and an armed journal.
func twinSweep(t *testing.T, what string, b *host.Block) {
	t.Helper()
	init := func(c *host.CPU) {
		for r := range c.R {
			c.R[r] = 0x1111_1111 * uint32(r+1)
		}
		c.R[host.EBP] = env.StateBase
		c.R[host.ESP] = env.HostStackTop
		for x := range c.X {
			c.X[x] = 0x3f80_0000 + uint32(x)
		}
		c.Flags = host.Flags{CF: true, SF: true}
		// Guest registers hold data-segment pointers, so guest loads and
		// stores land on a couple of pages instead of one page each.
		for r := 0; r < guest.NumRegs; r++ {
			c.Mem.Write32(env.StateBase+uint32(env.OffReg(r)), env.DataBase+uint32(r)*68)
		}
		for i := uint32(0); i < 48; i++ {
			c.Mem.Write32(env.StateBase+uint32(env.Size)+i*4, 0xdead_beef+i)
			c.Mem.Write32(env.DataBase+i*16, 0xa5+i*0x0101_0101)
		}
	}
	for budget := uint64(0); budget <= uint64(len(b.Insts))+1; budget++ {
		for _, tracked := range []bool{false, true} {
			// The tracked range covers the data segment the guest stores
			// hit, so dirty pages and self hits are exercised, not just
			// the journal.
			if d := host.RunTwin(b, init, budget, tracked, env.DataBase, env.DataBase+mem.PageSize); d != "" {
				t.Fatalf("%s, budget %d, tracked %v: %s\n%s", what, budget, tracked, d, b.Listing())
			}
		}
	}
}

// TestExecMatchesReferenceOnTranslatedCode is the differential the
// pre-decoded loop answers to: every host block the twelve workload
// profiles translate to on both backends, run through CPU.Exec and
// through the reference interpreter at every budget.
func TestExecMatchesReferenceOnTranslatedCode(t *testing.T) {
	c, err := exp.BuildCorpus(1)
	if err != nil {
		t.Fatal(err)
	}
	full, _ := core.Parameterize(c.Union(c.Names), core.Config{Opcode: true, AddrMode: true})
	for _, be := range backend.Names() {
		total, frames := 0, 0
		for _, name := range c.Names {
			rec := &recorder{Backend: backend.MustLookup(be)}
			if _, err := c.Run(name, dbt.Config{Rules: full, DelegateFlags: true, Backend: rec}); err != nil {
				t.Fatal(err)
			}
			if len(rec.blocks) == 0 {
				t.Fatalf("%s/%s: no blocks recorded", be, name)
			}
			for i, b := range rec.blocks {
				twinSweep(t, fmt.Sprintf("%s/%s block %d", be, name, i), b)
				// Every translated block but the halt (a lone exit_tb)
				// reads or writes a guest register slot at disp(%ebp): the
				// frame path must be what runs it.
				if host.FrameOps(b) == 0 && len(b.Insts) > 1 {
					t.Errorf("%s/%s block %d has no frame micro-op\n%s", be, name, i, b.Listing())
				}
				frames += host.FrameOps(b)
			}
			total += len(rec.blocks)
		}
		t.Logf("%s: %d blocks, %.1f frame micro-ops per block", be, total, float64(frames)/float64(total))
	}
}

// hotProgram is the superblock tests' loop (internal/dbt): an if/else
// seam that side-exits on alternating iterations and a call seam into a
// helper, hot enough to form traces at threshold 2.
func hotProgram() *minic.Program {
	helper := &minic.Func{
		Name: "bump", NArgs: 1, NVars: 2,
		Body: []*minic.Stmt{
			minic.Return(minic.B(minic.OpAdd, minic.V(0), minic.C(3))),
		},
	}
	main := &minic.Func{
		Name: "main", NVars: 5,
		Body: []*minic.Stmt{
			minic.Assign(0, minic.C(0)),
			minic.Assign(1, minic.C(60)),
			minic.Assign(2, minic.C(int32(env.DataBase))),
			minic.While(minic.Cond{Op: minic.CmpNe, L: minic.V(1), R: minic.C(0)}, []*minic.Stmt{
				minic.If(minic.Cond{Op: minic.CmpGt, L: minic.V(0), R: minic.V(1)},
					[]*minic.Stmt{minic.Assign(0, minic.B(minic.OpSub, minic.V(0), minic.V(1)))},
					[]*minic.Stmt{minic.Assign(0, minic.B(minic.OpAdd, minic.V(0), minic.V(1)))}),
				minic.Call(4, 1, minic.V(0)),
				minic.Store(minic.B(minic.OpAdd, minic.V(2), minic.C(8)), minic.V(4)),
				minic.Assign(0, minic.LoadE(minic.B(minic.OpAdd, minic.V(2), minic.C(8)))),
				minic.Assign(1, minic.B(minic.OpSub, minic.V(1), minic.C(1))),
			}),
			minic.Return(minic.V(0)),
		},
	}
	return &minic.Program{Funcs: []*minic.Func{main, helper}}
}

// TestExecMatchesReferenceOnSuperblocks covers the translations with
// side-exit stubs and seams: hotProgram with synchronous trace formation
// on both backends.
func TestExecMatchesReferenceOnSuperblocks(t *testing.T) {
	comp, err := minic.Compile(hotProgram())
	if err != nil {
		t.Fatal(err)
	}
	learned := rule.NewStore()
	learn.FromCompiled(comp, learned)
	par, _ := core.Parameterize(learned, core.Config{Opcode: true, AddrMode: true})
	for _, be := range backend.Names() {
		rec := &recorder{Backend: backend.MustLookup(be)}
		m := mem.New()
		if _, err := comp.LoadGuest(m); err != nil {
			t.Fatal(err)
		}
		e := dbt.New(m, dbt.Config{Rules: par, DelegateFlags: true, HotThreshold: 2, SyncTraces: true, Backend: rec})
		st := &guest.State{Mem: m}
		st.R[guest.SP] = env.StackTop
		e.SetGuestState(st)
		stats, err := e.Run(env.CodeBase, 100_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if stats.TracesFormed == 0 {
			t.Fatalf("%s: no superblock formed", be)
		}
		for i, b := range rec.blocks {
			twinSweep(t, fmt.Sprintf("%s superblock run, block %d", be, i), b)
		}
		t.Logf("%s: %d blocks, %d traces", be, len(rec.blocks), stats.TracesFormed)
	}
}

// TestExecMatchesReferenceOnLegalizedShapes runs the 24 instruction
// shapes of backend.TestLegalizeSemanticEquivalence — the operand forms
// only the slow path handles among them — raw and as the risc backend
// legalizes them.
func TestExecMatchesReferenceOnLegalizedShapes(t *testing.T) {
	const dataOff, dataOff2 = int32(env.Size) + 64, int32(env.Size) + 68
	md := func(off int32) host.Operand { return host.Mem(host.EBP, off) }
	shapes := [][]host.Inst{
		{host.I(host.MOVL, md(dataOff), host.Imm(42))},
		{host.I(host.ADDL, md(dataOff), host.R(host.ECX))},
		{host.I(host.SUBL, host.R(host.EDX), md(dataOff))},
		{host.I(host.ADCL, md(dataOff), host.Imm(1))},
		{host.I(host.SBBL, md(dataOff), host.R(host.EBX))},
		{host.I(host.ADDL, md(dataOff), md(dataOff2)), host.I(host.ADCL, host.R(host.EAX), md(dataOff))},
		{host.I1(host.NOTL, md(dataOff))},
		{host.I1(host.NEGL, md(dataOff))},
		{host.I(host.CMPL, md(dataOff), host.Imm(5))},
		{host.I(host.CMPL, host.R(host.ESI), md(dataOff))},
		{host.I(host.TESTL, md(dataOff), host.Imm(0xff))},
		{host.I(host.MOVZBL, md(dataOff), host.R(host.ECX))},
		{host.I(host.BSRL, host.R(host.EAX), md(dataOff2))},
		{host.I(host.MOVL, md(dataOff), host.Imm(0)), host.I(host.BSRL, host.R(host.EAX), md(dataOff))},
		{host.I(host.LEAL, md(dataOff), host.MemIdx(host.ESI, host.EDI, 2, 12))},
		{host.I(host.CMPL, host.R(host.ECX), host.R(host.ECX)), {Op: host.SETCC, Cond: host.E, Dst: md(dataOff)}},
		{host.I1(host.PUSHL, host.Imm(77))},
		{host.I1(host.PUSHL, md(dataOff))},
		{host.I1(host.PUSHL, host.R(host.EDX)), host.I1(host.POPL, md(dataOff))},
		{host.I(host.MOVSS, md(dataOff), host.Imm(0x40490fdb))},
		{host.I(host.MOVSS, md(dataOff), md(dataOff2))},
		{host.I(host.ADDSS, host.X(0), md(dataOff))},
		{host.I(host.MULSS, md(dataOff), host.X(1))},
		{host.I(host.UCOMISS, md(dataOff), host.X(0))},
	}
	if len(shapes) != 24 {
		t.Fatalf("%d shapes", len(shapes))
	}
	risc := backend.MustLookup("risc")
	for i, seq := range shapes {
		a := host.NewAsm()
		a.EmitAll(seq...)
		a.Emit(host.Exit(host.Imm(0x1234)))
		twinSweep(t, fmt.Sprintf("shape %d raw", i), a.Block())
		leg, err := risc.Finalize(a)
		if err != nil {
			t.Fatalf("shape %d: %v", i, err)
		}
		twinSweep(t, fmt.Sprintf("shape %d legalized", i), leg)
	}
}
