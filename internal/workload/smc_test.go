package workload

import (
	"testing"

	"paramdbt/internal/env"
	"paramdbt/internal/guest"
	"paramdbt/internal/mem"
)

// TestSMCProfilesInterpret runs each self-modifying profile on the pure
// interpreter and checks the hand-computed accumulator value. These are
// the ground-truth results the DBT must reproduce (internal/dbt and
// internal/exp assert engine-vs-interpreter equality; this test pins
// what both should compute).
func TestSMCProfilesInterpret(t *testing.T) {
	want := map[string]uint32{
		// 100 iterations at +1, then the patched +2 for the rest of 200.
		"smc-patch": 100 + 100*2,
		// fn adds +1 through iteration 60 (the patch lands after that
		// iteration's call), +4 for the remaining 90.
		"smc-cross": 60 + 90*4,
		// The store precedes the accumulate, so iteration 50 already runs
		// patched: 49 at +1, then 251 at +5.
		"smc-sbmid": 49 + 251*5,
		// A for i=1..7, then per 8-iteration period 4×(+2) and 4×(+1);
		// 49 full periods cover i=8..399, and i=400 re-patches to B.
		"smc-toggle": 7 + 49*12 + 2,
	}
	for _, p := range SMCProfiles() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			m := mem.New()
			if err := guest.LoadProgram(m, env.CodeBase, p.Prog); err != nil {
				t.Fatalf("loading %s: %v", p.Name, err)
			}
			st := &guest.State{Mem: m}
			st.SetPC(env.CodeBase)
			if _, err := st.Run(p.MaxGuestInsts); err != nil {
				t.Fatalf("interpreting %s: %v", p.Name, err)
			}
			if !st.Halted {
				t.Fatalf("%s did not halt", p.Name)
			}
			if st.R[0] != want[p.Name] {
				t.Fatalf("%s: r0 = %d, want %d", p.Name, st.R[0], want[p.Name])
			}
		})
	}
}
