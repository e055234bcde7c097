package guard

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"paramdbt/internal/guest"
	"paramdbt/internal/mem"
)

// TestSamplerFirstN: the first execution of every block is verified
// whatever the rate; later ones follow it.
func TestSamplerFirstN(t *testing.T) {
	s := NewSampler(Policy{Rate: 0})
	if !s.Select(1) {
		t.Fatal("first execution not selected at rate 0")
	}
	for exec := uint64(2); exec <= 100; exec++ {
		if s.Select(exec) {
			t.Fatalf("exec %d selected with rate 0", exec)
		}
	}
}

func TestSamplerRateOne(t *testing.T) {
	s := NewSampler(Policy{Rate: 1})
	for exec := uint64(1); exec <= 50; exec++ {
		if !s.Select(exec) {
			t.Fatalf("exec %d not selected at rate 1", exec)
		}
	}
}

func TestSamplerDeterministic(t *testing.T) {
	pick := func() []bool {
		s := NewSampler(Policy{Rate: 0.5, Seed: 42})
		var out []bool
		for exec := uint64(1); exec <= 200; exec++ {
			out = append(out, s.Select(exec))
		}
		return out
	}
	a, b := pick(), pick()
	hits := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sampling not deterministic at %d", i)
		}
		if a[i] {
			hits++
		}
	}
	// Rate 0.5 over 200 draws: loose bounds, deterministic via seed.
	if hits < 60 || hits > 140 {
		t.Fatalf("rate 0.5 produced %d/200 samples", hits)
	}
}

// The adaptive rate (Policy.HalfLife > 0), the controller half of the
// sampler.

func TestControllerDecaysMonotonically(t *testing.T) {
	s := NewSampler(Policy{Rate: 1, HalfLife: 8})
	if s.Rate() != 1 {
		t.Fatalf("initial rate = %v, want 1", s.Rate())
	}
	prev := s.Rate()
	for i := 0; i < 200; i++ {
		if !s.OnClean() {
			t.Fatal("adaptive sampler reported a fixed rate")
		}
		r := s.Rate()
		if r > prev {
			t.Fatalf("rate rose from %v to %v after clean check %d", prev, r, i+1)
		}
		if r < MinRate {
			t.Fatalf("rate %v fell below MinRate after clean check %d", r, i+1)
		}
		prev = r
	}
	if prev != MinRate {
		t.Fatalf("rate after 200 clean checks = %v, want MinRate %v", prev, MinRate)
	}
	// One half-life of clean checks halves the rate (checked on a fresh
	// sampler so the floor is not in play).
	s = NewSampler(Policy{Rate: 1, HalfLife: 8})
	for i := 0; i < 8; i++ {
		s.OnClean()
	}
	if got := s.Rate(); got < 0.499 || got > 0.501 {
		t.Fatalf("rate after one half-life = %v, want 0.5", got)
	}
}

func TestControllerSnapsOnEvent(t *testing.T) {
	s := NewSampler(Policy{Rate: 1, HalfLife: 4})
	for i := 0; i < 100; i++ {
		s.OnClean()
	}
	if s.Rate() != MinRate {
		t.Fatalf("decayed rate = %v, want %v", s.Rate(), MinRate)
	}
	if !s.OnEvent() {
		t.Fatal("adaptive rate did not report a snap")
	}
	if s.Rate() != 1 {
		t.Fatalf("rate after event = %v, want snap back to 1", s.Rate())
	}
	// Confidence rebuilds from scratch after the snap.
	s.OnClean()
	if r := s.Rate(); r >= 1 || r <= 0.5 {
		t.Fatalf("rate one clean check after snap = %v, want in (0.5, 1)", r)
	}
}

// TestControllerPolicyDefaults: a zero HalfLife is a fixed rate that no
// verdict moves, and a base rate below MinRate is its own floor.
func TestControllerPolicyDefaults(t *testing.T) {
	s := NewSampler(Policy{Rate: 0.5})
	if s.OnClean() || s.OnEvent() {
		t.Fatal("fixed rate reported itself adaptive")
	}
	if s.Rate() != 0.5 {
		t.Fatalf("fixed rate moved to %v", s.Rate())
	}
	s = NewSampler(Policy{Rate: 0.005, HalfLife: 1})
	for i := 0; i < 1000; i++ {
		s.OnClean()
	}
	if s.Rate() != 0.005 {
		t.Fatalf("floor below MinRate = %v, want the base rate 0.005", s.Rate())
	}
}

// TestControllerDecaysSamplerRate: Select honours the decayed rate past
// the first execution.
func TestControllerDecaysSamplerRate(t *testing.T) {
	s := NewSampler(Policy{Rate: 1, HalfLife: 2, Seed: 7})
	for i := 0; i < 64; i++ {
		s.OnClean()
	}
	if s.Rate() != MinRate {
		t.Fatalf("sampler rate = %v, want decayed %v", s.Rate(), MinRate)
	}
	selected := 0
	for exec := uint64(2); exec <= 1001; exec++ {
		if s.Select(exec) {
			selected++
		}
	}
	if selected < 1 || selected > 50 {
		t.Fatalf("selections = %d/1000, want close to the %v rate", selected, MinRate)
	}
}

func TestRunReferenceStraightLine(t *testing.T) {
	insts := guest.MustAssemble("mov r0, #5\nadd r0, r0, #7\nb #0")
	st := guest.NewState()
	st.R[guest.SP] = 0x1000
	next, err := RunReference(st, 0x100, insts, 0xffffffff)
	if err != nil {
		t.Fatal(err)
	}
	if st.R[0] != 12 {
		t.Fatalf("r0 = %d, want 12", st.R[0])
	}
	// b #0 lands on the instruction after the branch.
	if want := uint32(0x100 + 3*guest.InstBytes); next != want {
		t.Fatalf("next pc = %#x, want %#x", next, want)
	}
}

func TestRunReferenceHalt(t *testing.T) {
	insts := guest.MustAssemble("mov r0, #1\nhlt")
	st := guest.NewState()
	next, err := RunReference(st, 0x100, insts, 0xffffffff)
	if err != nil {
		t.Fatal(err)
	}
	if next != 0xffffffff || !st.Halted {
		t.Fatalf("halt not reported: next=%#x halted=%v", next, st.Halted)
	}
}

func TestCompareStates(t *testing.T) {
	a, b := guest.NewState(), guest.NewState()
	if mm := CompareStates(a, b, true); len(mm) != 0 {
		t.Fatalf("equal states diverge: %v", mm)
	}
	b.R[3] = 7
	b.Flags.Z = true
	b.R[guest.PC] = 0x999 // must be ignored
	mm := CompareStates(a, b, true)
	if len(mm) != 2 {
		t.Fatalf("want 2 mismatches (r3, Z), got %v", mm)
	}
	if mm[0].Kind != MismatchReg || mm[0].Index != 3 || mm[0].Got != 7 {
		t.Fatalf("bad reg mismatch: %+v", mm[0])
	}
	if mm[1].Kind != MismatchFlag {
		t.Fatalf("bad flag mismatch: %+v", mm[1])
	}
	// Flags excluded when the block does not materialize them.
	if mm := CompareStates(a, b, false); len(mm) != 1 {
		t.Fatalf("flag compared despite checkFlags=false: %v", mm)
	}
}

func TestCompareMemory(t *testing.T) {
	a, b := mem.New(), mem.New()
	a.Write32(0x100, 1)
	b.Write32(0x100, 2)
	b.Write32(0x0F00_0000, 99) // above the limit: translator-private
	mm := CompareMemory(a, b, 0x0F00_0000, 4)
	if len(mm) != 1 || mm[0].Index != 0x100 || mm[0].Want != 1 || mm[0].Got != 2 {
		t.Fatalf("bad memory mismatches: %v", mm)
	}
}

// TestCompareWritesMatchesCompareMemory: over random pairs of
// executions from one image — byte and word stores, overlapping,
// unaligned, some equal on both sides, some above the limit —
// CompareWrites on the two write sets must report exactly what
// CompareMemory reports on the two post-images, for every max.
func TestCompareWritesMatchesCompareMemory(t *testing.T) {
	const limit = 0x0F00_0000
	diverged := 0
	for seed := int64(1); seed <= 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		spots := []uint32{0x100, 0x104, 0x2ffe, 0x0100_0000, 0x0200_0040, limit - 4, limit, limit + 0x40}
		live := mem.New()
		live.EnableWriteTracking()
		for _, a := range spots {
			live.Write32(a, r.Uint32())
		}
		store := func(m *mem.Memory, r *rand.Rand) {
			a := spots[r.Intn(len(spots))] + uint32(r.Intn(6))
			if r.Intn(3) == 0 {
				m.Write8(a, byte(r.Intn(4)))
			} else {
				m.Write32(a, uint32(r.Intn(4))*0x01010101)
			}
		}
		// One store stream replayed on both sides, with a few stores
		// dropped, added or changed on the translated side.
		refSeed := r.Int63()
		n := r.Intn(8)
		play := func(divergent bool) {
			rr := rand.New(rand.NewSource(refSeed))
			for i := 0; i < n; i++ {
				if divergent && r.Intn(4) == 0 {
					if r.Intn(2) == 0 {
						store(live, r) // a store the reference never made
					}
					store(mem.New(), rr) // the reference's store, not made
					continue
				}
				store(live, rr)
			}
		}
		live.ArmSMC(true, nil)
		play(false)
		ref := live.JournalWrites(nil, limit)
		refImage := live.Clone()
		live.RollbackJournal()
		live.ArmSMC(true, nil)
		play(true)
		got := live.JournalWrites(nil, limit)
		if len(CompareMemory(refImage, live, limit, 1)) > 0 {
			diverged++
		}
		for _, max := range []int{1, 2, 4, 64} {
			want := CompareMemory(refImage, live, limit, max)
			if have := CompareWrites(ref, got, live, max); !reflect.DeepEqual(have, want) {
				t.Fatalf("seed %d max %d:\n write sets %v\n images     %v", seed, max, have, want)
			}
		}
	}
	if diverged < 50 || diverged > 150 {
		t.Fatalf("%d of 200 pairs diverged: the generator no longer mixes clean and divergent pairs", diverged)
	}
}

func TestDivergenceString(t *testing.T) {
	d := Divergence{
		PC:   0x10040,
		Exec: 3,
		Mismatches: []Mismatch{
			{Kind: MismatchReg, Index: 2, Want: 5, Got: 6},
			{Kind: MismatchNextPC, Want: 0x10, Got: 0x20},
		},
		Blamed: []string{"fp"},
	}
	s := d.String()
	for _, frag := range []string{"0x10040", "r2", "next pc", "blamed 1"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("divergence string %q missing %q", s, frag)
		}
	}
}
