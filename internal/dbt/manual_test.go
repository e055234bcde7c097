package dbt

import (
	"math/rand"
	"testing"

	"paramdbt/internal/env"
	"paramdbt/internal/guest"
	"paramdbt/internal/mem"
)

// runAsm executes hand-assembled guest code under the engine.
func runAsm(t *testing.T, src string, cfg Config, init func(*guest.State)) (*guest.State, *Engine) {
	t.Helper()
	prog := guest.MustAssemble(src)
	m := mem.New()
	if err := guest.LoadProgram(m, env.CodeBase, prog); err != nil {
		t.Fatal(err)
	}
	e := New(m, cfg)
	st := &guest.State{Mem: m}
	st.R[guest.SP] = env.StackTop
	if init != nil {
		init(st)
	}
	e.SetGuestState(st)
	if _, err := e.Run(env.CodeBase, 10_000_000); err != nil {
		t.Fatal(err)
	}
	return e.GuestState(), e
}

// interpAsm runs the same code under the interpreter oracle.
func interpAsm(t *testing.T, src string, init func(*guest.State)) *guest.State {
	t.Helper()
	prog := guest.MustAssemble(src)
	st := guest.NewState()
	if err := guest.LoadProgram(st.Mem, env.CodeBase, prog); err != nil {
		t.Fatal(err)
	}
	st.SetPC(env.CodeBase)
	st.R[guest.SP] = env.StackTop
	if init != nil {
		init(st)
	}
	if _, err := st.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestManualSpecialInstructions pins the hand-written mla/umla/clz
// translations (never produced by the workload compiler) against the
// interpreter over random inputs.
func TestManualSpecialInstructions(t *testing.T) {
	const src = `
		mla r3, r0, r1, r2
		umla r4, r0, r1, r2
		clz r5, r0
		clz r6, r7
		hlt
	`
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		vals := [3]uint32{r.Uint32(), r.Uint32(), r.Uint32()}
		r7 := uint32(0)
		if trial%4 != 0 {
			r7 = r.Uint32() // exercise the clz zero case too
		}
		init := func(st *guest.State) {
			st.R[guest.R0], st.R[guest.R1], st.R[guest.R2] = vals[0], vals[1], vals[2]
			st.R[guest.R7] = r7
		}
		want := interpAsm(t, src, init)
		got, e := runAsm(t, src, Config{ManualABI: true, TranslateFirst: true}, init)
		for _, reg := range []guest.Reg{guest.R3, guest.R4, guest.R5, guest.R6} {
			if want.R[reg] != got.R[reg] {
				t.Fatalf("trial %d: %v = %#x, want %#x", trial, reg, got.R[reg], want.R[reg])
			}
		}
		if unc := e.UncoveredOps(); unc[guest.MLA] != 0 || unc[guest.UMLA] != 0 || unc[guest.CLZ] != 0 {
			t.Fatalf("specials still emulated: %v", unc)
		}
	}
}

// TestManualSpecialsOffUseTCG sanity-checks the same program without
// manual rules: still correct, but emulated.
func TestManualSpecialsOffUseTCG(t *testing.T) {
	const src = `
		mla r3, r0, r1, r2
		clz r5, r0
		hlt
	`
	init := func(st *guest.State) {
		st.R[guest.R0], st.R[guest.R1], st.R[guest.R2] = 123456, 789, 0xfffffff0
	}
	want := interpAsm(t, src, init)
	got, e := runAsm(t, src, Config{TranslateFirst: true}, init)
	if want.R[guest.R3] != got.R[guest.R3] || want.R[guest.R5] != got.R[guest.R5] {
		t.Fatalf("tcg path wrong: r3=%#x/%#x r5=%d/%d",
			got.R[guest.R3], want.R[guest.R3], got.R[guest.R5], want.R[guest.R5])
	}
	if unc := e.UncoveredOps(); unc[guest.MLA] == 0 || unc[guest.CLZ] == 0 {
		t.Fatal("specials unexpectedly covered without manual rules")
	}
}

// TestBlockListingRendersBothSides exercises the debug surface.
func TestBlockListingRendersBothSides(t *testing.T) {
	prog := guest.MustAssemble("add r0, r0, r1\nhlt")
	m := mem.New()
	if err := guest.LoadProgram(m, env.CodeBase, prog); err != nil {
		t.Fatal(err)
	}
	e := New(m, Config{})
	s, err := e.BlockListing(env.CodeBase)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"guest block", "add r0, r0, r1", "host code:", "exit_tb"} {
		if !contains(s, want) {
			t.Fatalf("listing missing %q:\n%s", want, s)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestConditionalBodyInstructions runs conditionally executed ALU
// instructions (cond != AL mid-block) through the TCG path.
func TestConditionalBodyInstructions(t *testing.T) {
	const src = `
		cmp r0, r1
		addeq r2, r2, #10
		addne r2, r2, #1
		movlt r3, #7
		hlt
	`
	for _, pair := range [][2]uint32{{5, 5}, {3, 9}, {9, 3}} {
		init := func(st *guest.State) {
			st.R[guest.R0], st.R[guest.R1] = pair[0], pair[1]
			st.R[guest.R2], st.R[guest.R3] = 100, 0
		}
		want := interpAsm(t, src, init)
		got, _ := runAsm(t, src, Config{}, init)
		if want.R[guest.R2] != got.R[guest.R2] || want.R[guest.R3] != got.R[guest.R3] {
			t.Fatalf("pair %v: r2=%d/%d r3=%d/%d", pair,
				got.R[guest.R2], want.R[guest.R2], got.R[guest.R3], want.R[guest.R3])
		}
	}
}

// TestEngineErrorPaths covers translation failures.
func TestEngineErrorPaths(t *testing.T) {
	m := mem.New()
	// Garbage at the entry point: undecodable instruction word.
	m.Write32(env.CodeBase, 0xffffffff)
	e := New(m, Config{})
	if _, err := e.Run(env.CodeBase, 1000); err == nil {
		t.Fatal("garbage code executed without error")
	}

	// A block that never terminates within the cap.
	m2 := mem.New()
	w, err := guest.Encode(guest.MustAssemble("add r0, r0, r1")[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		m2.Write32(env.CodeBase+uint32(i*4), w)
	}
	e2 := New(m2, Config{})
	if _, err := e2.Run(env.CodeBase, 100_000); err == nil {
		t.Fatal("unterminated block accepted")
	}
}
