// Package guard implements the guarded-execution layer of the DBT:
// shadow differential verification of translated blocks against the
// guest reference interpreter, divergence reporting, and the sampling
// policy deciding which block executions get verified. The engine side
// (recovery, rule quarantine, cache purging) lives in internal/dbt;
// this package holds the pieces that are independent of the engine so
// they can be tested in isolation and reused by the experiment harness.
//
// The threat model follows the paper's: learned rules are verified
// symbolically at derivation time, but a bug anywhere downstream — rule
// serialization, parameter binding, host emission, or a corrupted rule
// table — silently produces wrong guest state. Shadow verification
// executes a sampled block twice from one pre-block image — on the
// reference interpreter, whose stores are then undone, and as
// translated — and compares every architectural effect: registers,
// flags, exit pc (CompareStates) and the two executions' write sets
// (CompareWrites), turning silent corruption into an attributable,
// recoverable divergence. CompareMemory is the same comparison over two
// whole images, for callers that have them.
package guard

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// MinRate is the floor an adaptive rate decays toward — one
// steady-state check per ~100 block executions even for a long-clean
// tenant — or the base rate, when that is lower.
const MinRate = 0.01

// Policy selects which block executions are shadow-verified.
type Policy struct {
	// Rate is the base steady-state sampling probability in [0,1]; 1
	// verifies every execution, 0 disables steady-state sampling.
	Rate float64
	// HalfLife, when positive, makes the rate adaptive: it halves every
	// HalfLife consecutive clean checks, down to MinRate, and snaps back
	// to Rate on any divergence or quarantine event. Zero keeps Rate
	// fixed.
	HalfLife uint64
	// Seed makes the steady-state sampling deterministic (same seed,
	// same block-execution sequence, same sample set).
	Seed int64
}

// Sampler implements a Policy: it selects the executions to verify and,
// when the policy is adaptive, moves its own rate with the verdicts it
// is told about. Verification cost thus scales down as confidence
// accumulates, while a single bad event buys back full scrutiny. The
// first execution of every block is verified whatever the rate — new
// translations are the risky ones.
//
// It is not safe for concurrent use; the engine drives it from the Run
// goroutine only, and each tenant owns its sampler — confidence earned
// by one guest never discounts verification for another.
type Sampler struct {
	base, floor, rate float64
	halfLife          uint64
	clean             uint64 // consecutive clean checks since the last event
	rng               *rand.Rand
}

// NewSampler returns a sampler at the policy's base rate.
func NewSampler(pol Policy) *Sampler {
	return &Sampler{
		base: pol.Rate, floor: min(MinRate, pol.Rate), rate: pol.Rate,
		halfLife: pol.HalfLife,
		rng:      rand.New(rand.NewSource(pol.Seed)),
	}
}

// Select reports whether the exec-th execution of a block (1-based)
// should be shadow-verified: always the first, then with probability
// Rate.
func (s *Sampler) Select(exec uint64) bool {
	if exec <= 1 || s.rate >= 1 {
		return true
	}
	if s.rate <= 0 {
		return false
	}
	return s.rng.Float64() < s.rate
}

// Rate reports the current steady-state rate. Like every Sampler method
// it is not concurrent-safe; read it from the Run goroutine or after the
// run.
func (s *Sampler) Rate() float64 { return s.rate }

// OnClean records one verified-clean shadow check. An adaptive rate
// decays to max(MinRate, Rate · 2^(−clean/HalfLife)), monotonically
// non-increasing between events. It reports whether the rate is
// adaptive.
func (s *Sampler) OnClean() bool {
	if s.halfLife == 0 {
		return false
	}
	s.clean++
	s.rate = max(s.floor, s.base*math.Exp2(-float64(s.clean)/float64(s.halfLife)))
	return true
}

// OnEvent records a divergence or quarantine event: an adaptive rate
// discards its accumulated confidence and snaps back to the base rate.
// It reports whether the rate snapped (false at a fixed rate).
func (s *Sampler) OnEvent() bool {
	if s.halfLife == 0 {
		return false
	}
	s.clean = 0
	s.rate = s.base
	return true
}

// Mismatch kinds.
const (
	MismatchReg    = "reg"    // general register; Index is the register number
	MismatchFlag   = "flag"   // NZCV flag; Index is 0..3 for N,Z,C,V
	MismatchMem    = "mem"    // guest memory word; Index is the address
	MismatchNextPC = "nextpc" // block exit pc
)

// Mismatch is one architectural difference between the reference
// interpreter's result and the translated block's.
type Mismatch struct {
	Kind  string `json:"kind"`
	Index uint32 `json:"index"`
	Want  uint32 `json:"want"` // reference interpreter
	Got   uint32 `json:"got"`  // translated block
}

// String renders the mismatch for logs.
func (m Mismatch) String() string {
	switch m.Kind {
	case MismatchReg:
		return fmt.Sprintf("r%d: want %#x got %#x", m.Index, m.Want, m.Got)
	case MismatchFlag:
		return fmt.Sprintf("flag %c: want %d got %d", "NZCV"[m.Index], m.Want, m.Got)
	case MismatchMem:
		return fmt.Sprintf("[%#x]: want %#x got %#x", m.Index, m.Want, m.Got)
	case MismatchNextPC:
		return fmt.Sprintf("next pc: want %#x got %#x", m.Want, m.Got)
	}
	return fmt.Sprintf("%s[%d]: want %#x got %#x", m.Kind, m.Index, m.Want, m.Got)
}

// Divergence is one detected shadow-verification failure: the block, the
// architectural differences, and the rules the engine blamed.
type Divergence struct {
	PC   uint32 `json:"pc"`
	Exec uint64 `json:"exec"` // which execution of the block diverged (1-based)
	// Backend names the host backend the diverging translation was
	// emitted for — divergence records from a multi-backend run stay
	// attributable.
	Backend    string     `json:"backend,omitempty"`
	Mismatches []Mismatch `json:"mismatches"`
	// Blamed lists the fingerprints of the rules the engine quarantined
	// for this divergence (empty when the block used no rules — a
	// translator rather than rule bug).
	Blamed []string `json:"blamed,omitempty"`
}

// String renders the divergence for logs.
func (d Divergence) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "divergence at pc=%#x (exec %d):", d.PC, d.Exec)
	for _, m := range d.Mismatches {
		fmt.Fprintf(&b, " %s;", m)
	}
	if len(d.Blamed) > 0 {
		fmt.Fprintf(&b, " blamed %d rule(s)", len(d.Blamed))
	}
	return b.String()
}
