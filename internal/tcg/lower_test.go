package tcg

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"paramdbt/internal/guest"
	"paramdbt/internal/host"
)

// lowerWith lowers seq through lower into a fresh assembler and renders
// the stream and its label bindings, or the error or panic.
func lowerWith(lower func(*host.Asm, *Gen, func(guest.Reg) host.Operand, []host.Reg) error,
	seq []Inst, mapf func(guest.Reg) host.Operand, pool []host.Reg) (out string) {
	defer func() {
		if r := recover(); r != nil {
			out = fmt.Sprint("panic: ", r)
		}
	}()
	a := host.NewAsm()
	g := NewGen(a.NewLabel)
	g.Insts = append(g.Insts, seq...)
	if err := lower(a, g, mapf, pool); err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("%v %v", a.Insts(), a.Labels())
}

// chainIR reads r0 into a temp and adds 1 n times, each sum in a new
// temp that dies at the next add: n+1 temps, two live at a time.
func chainIR(n int) []Inst {
	seq := []Inst{{Op: GetReg, Dst: 0, GReg: guest.R0, A: None, B: None, C: None}}
	for t := 1; t <= n; t++ {
		seq = append(seq, Inst{Op: Add, Dst: t, A: TV(t - 1), B: CV(1), C: None})
	}
	return append(seq, Inst{Op: SetReg, GReg: guest.R1, A: TV(n), B: None, C: None, Dst: -1})
}

// wideIR reads n registers into temps that all stay live, then sums
// them: n simultaneously live temps, most of them spilled.
func wideIR(n int) []Inst {
	var seq []Inst
	for t := 0; t < n; t++ {
		seq = append(seq, Inst{Op: GetReg, Dst: t, GReg: guest.Reg(t % 12), A: None, B: None, C: None})
	}
	sum := n
	seq = append(seq, Inst{Op: Add, Dst: sum, A: TV(0), B: TV(1), C: None})
	for t := 2; t < n; t++ {
		seq = append(seq, Inst{Op: Add, Dst: sum + t - 1, A: TV(sum + t - 2), B: TV(t), C: None})
	}
	return append(seq, Inst{Op: SetReg, GReg: guest.R2, A: TV(sum + n - 2), B: None, C: None, Dst: -1})
}

// TestLowerMatchesMapLowering: Lower keeps temp locations and last uses
// in slices indexed by temp id (stack arrays up to 32 ids) and the free
// list in a fixed array; it must emit exactly what the map-based
// lowering it replaced (refLower) emits — over the shapes the frontend
// never produces as well as over every instruction it does.
func TestLowerMatchesMapLowering(t *testing.T) {
	mapped := func(r guest.Reg) host.Operand {
		switch r {
		case guest.R0:
			return host.R(host.EBX)
		case guest.R1:
			return host.R(host.ESI)
		}
		return envMap(r)
	}
	pools := [][]host.Reg{fullPool, {host.EAX, host.ECX, host.EDX}, {host.EAX, host.EDX}}
	maps := []func(guest.Reg) host.Operand{envMap, mapped}

	cases := []struct {
		name string
		seq  []Inst
	}{
		{"more than 32 temps (heap)", chainIR(40)},
		{"12 live temps, spilled", wideIR(12)},
		{"sparse ids", []Inst{
			{Op: GetReg, Dst: 3, GReg: guest.R0},
			{Op: GetReg, Dst: 17, GReg: guest.R1},
			{Op: Add, Dst: 29, A: TV(3), B: TV(17)},
			{Op: SaveFlags, Fam: FamAdd, A: None, C: None},
			{Op: SetReg, GReg: guest.R2, A: TV(29)},
		}},
		{"sparse ids beyond the stack arrays", []Inst{
			{Op: GetReg, Dst: 5, GReg: guest.R0},
			{Op: GetReg, Dst: 900, GReg: guest.R1},
			{Op: Sub, Dst: 4000, A: TV(900), B: TV(5)},
			{Op: SetReg, GReg: guest.R2, A: TV(4000)},
		}},
		{"temp written, never read", []Inst{
			{Op: GetReg, Dst: 0, GReg: guest.R0},
			{Op: GetReg, Dst: 1, GReg: guest.R1},
			{Op: GetF, Dst: 2, Flag: FlagC},
			{Op: Add, Dst: 3, A: TV(1), B: CV(1)},
			{Op: SetReg, GReg: guest.R2, A: TV(3)},
		}},
		{"empty", nil},
	}
	for _, c := range cases {
		for pi, pool := range pools {
			for mi, mapf := range maps {
				want := lowerWith(refLower, c.seq, mapf, pool)
				if strings.HasPrefix(want, "panic") || strings.HasPrefix(want, "error") {
					t.Fatalf("%s (pool %d, map %d): reference lowering failed: %s", c.name, pi, mi, want)
				}
				if got := lowerWith(Lower, c.seq, mapf, pool); got != want {
					t.Errorf("%s (pool %d, map %d):\n got %s\nwant %s", c.name, pi, mi, got, want)
				}
			}
		}
	}

	// Every instruction the frontend emits, conditional ones included,
	// and every condition evaluation the terminators lower.
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 3000; trial++ {
		g := NewGen(func() int { return 1 })
		if trial%8 == 0 {
			v := g.EvalCond(guest.Cond(r.Intn(int(guest.NumConds))))
			g.emit(Inst{Op: Brnz, A: v, Label: 1, Dst: -1})
		} else if err := g.Translate(randEmulatableInst(r), 0x1000); err != nil {
			t.Fatal(err)
		}
		pool, mapf := pools[trial%len(pools)], maps[trial%len(maps)]
		want := lowerWith(refLower, g.Insts, mapf, pool)
		if got := lowerWith(Lower, g.Insts, mapf, pool); got != want {
			t.Fatalf("trial %d %v:\n got %s\nwant %s", trial, g.Insts, got, want)
		}
	}
}

// TestGenReset: a reset generator numbers temps from zero again and
// keeps its label source, so one Gen serves every instruction of a
// block.
func TestGenReset(t *testing.T) {
	in := guest.MustAssemble("adds r0, r1, r2")[0]
	fresh := NewGen(func() int { return 7 })
	if err := fresh.Translate(in, 0); err != nil {
		t.Fatal(err)
	}
	g := NewGen(func() int { return 7 })
	if err := g.Translate(guest.MustAssemble("addne r3, r3, #1")[0], 0); err != nil {
		t.Fatal(err)
	}
	g.Reset()
	if err := g.Translate(in, 0); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(g.Insts) != fmt.Sprint(fresh.Insts) || g.NumTemps() != fresh.NumTemps() {
		t.Fatalf("reset generator emitted %v (%d temps), fresh %v (%d temps)",
			g.Insts, g.NumTemps(), fresh.Insts, fresh.NumTemps())
	}
}
