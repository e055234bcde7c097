package main

import "testing"

func TestOrderHalves(t *testing.T) {
	for _, c := range []struct {
		name     string
		byOrder  [2][]float64
		cf, bf   float64
		disagree bool
	}{
		// The serve pairs that showed the effect: whichever side ran
		// second won.
		{"second wins", [2][]float64{{1.117, 1.091, 0.963, 0.978}, {0.984, 0.938, 0.888, 0.975}}, 0.9565, 1.0345, true},
		{"both halves ahead", [2][]float64{{1.05, 1.10}, {1.02, 1.04}}, 1.03, 1.075, false},
		{"one half at parity", [2][]float64{{1.0}, {0.9}}, 0.9, 1.0, false},
		{"no change-first pair", [2][]float64{{1.2}, nil}, 0, 0, false},
	} {
		cf, bf, disagree := orderHalves(c.byOrder)
		if d := cf - c.cf; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s: change-first median %g, want %g", c.name, cf, c.cf)
		}
		if d := bf - c.bf; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s: base-first median %g, want %g", c.name, bf, c.bf)
		}
		if disagree != c.disagree {
			t.Errorf("%s: disagree = %v, want %v", c.name, disagree, c.disagree)
		}
	}
}
