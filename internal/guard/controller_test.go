package guard

import "testing"

func TestControllerDecaysMonotonically(t *testing.T) {
	c := NewController(ControllerPolicy{BaseRate: 1, MinRate: 0.02, HalfLife: 8})
	if c.Rate() != 1 {
		t.Fatalf("initial rate = %v, want 1", c.Rate())
	}
	prev := c.Rate()
	for i := 0; i < 200; i++ {
		c.OnClean()
		r := c.Rate()
		if r > prev {
			t.Fatalf("rate rose from %v to %v after clean check %d", prev, r, i+1)
		}
		if r < 0.02 {
			t.Fatalf("rate %v fell below MinRate after clean check %d", r, i+1)
		}
		prev = r
	}
	if prev != 0.02 {
		t.Fatalf("rate after 200 clean checks = %v, want MinRate 0.02", prev)
	}
	// One half-life of clean checks halves the rate (checked on a fresh
	// controller so the floor is not in play).
	c = NewController(ControllerPolicy{BaseRate: 1, MinRate: 0.001, HalfLife: 8})
	for i := 0; i < 8; i++ {
		c.OnClean()
	}
	if got := c.Rate(); got < 0.499 || got > 0.501 {
		t.Fatalf("rate after one half-life = %v, want 0.5", got)
	}
}

func TestControllerSnapsOnEvent(t *testing.T) {
	c := NewController(ControllerPolicy{BaseRate: 1, MinRate: 0.01, HalfLife: 4})
	for i := 0; i < 100; i++ {
		c.OnClean()
	}
	if c.Rate() != 0.01 {
		t.Fatalf("decayed rate = %v, want 0.01", c.Rate())
	}
	c.OnEvent()
	if c.Rate() != 1 {
		t.Fatalf("rate after event = %v, want snap back to 1", c.Rate())
	}
	if c.Clean() != 0 {
		t.Fatalf("clean count after event = %d, want 0", c.Clean())
	}
	if c.Snaps() != 1 {
		t.Fatalf("snaps = %d, want 1", c.Snaps())
	}
	// Confidence rebuilds from scratch after the snap.
	c.OnClean()
	if r := c.Rate(); r >= 1 || r <= 0.5 {
		t.Fatalf("rate one clean check after snap = %v, want in (0.5, 1)", r)
	}
}

func TestControllerPolicyDefaults(t *testing.T) {
	c := NewController(ControllerPolicy{})
	if c.Rate() != 1 {
		t.Fatalf("default BaseRate = %v, want 1", c.Rate())
	}
	for i := 0; i < 10000; i++ {
		c.OnClean()
	}
	if c.Rate() != 0.01 {
		t.Fatalf("default MinRate floor = %v, want 0.01", c.Rate())
	}
	// MinRate above BaseRate clamps to BaseRate instead of rising.
	c = NewController(ControllerPolicy{BaseRate: 0.1, MinRate: 0.5})
	for i := 0; i < 1000; i++ {
		c.OnClean()
	}
	if c.Rate() != 0.1 {
		t.Fatalf("clamped MinRate floor = %v, want BaseRate 0.1", c.Rate())
	}
}

// TestControllerDecaysSamplerRate: the controller decays only the
// sampler's steady-state rate, and Select honours the decayed rate past
// the FirstN warm-up.
func TestControllerDecaysSamplerRate(t *testing.T) {
	s := NewSampler(Policy{Rate: 1, FirstN: 0, Seed: 7})
	c := NewController(ControllerPolicy{BaseRate: 1, MinRate: 0.001, HalfLife: 2})
	for i := 0; i < 64; i++ {
		c.OnClean()
	}
	s.SetRate(c.Rate())
	if s.Rate() != 0.001 {
		t.Fatalf("sampler rate = %v, want decayed 0.001", s.Rate())
	}
	selected := 0
	for exec := uint64(1); exec <= 1000; exec++ {
		if s.Select(exec) {
			selected++
		}
	}
	if selected > 50 {
		t.Fatalf("selections = %d/1000, want close to the 0.001 rate", selected)
	}
}
