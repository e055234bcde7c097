// Package faultinject is the deterministic fault-injection harness for
// the guarded-execution layer: a seedable Plan describes which faults
// to inject — corrupted rule semantics, translator panics, decode
// errors, guest code overwrites — and an Injector doles them out with
// atomic counters so the same plan produces the same fault sequence on
// every run. The engine takes an *Injector as dbt.Config.Faults; this
// package imports only host and rule, so it never depends on the
// engine.
package faultinject

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync/atomic"

	"paramdbt/internal/host"
	"paramdbt/internal/rule"
)

// Plan is the JSON description of a fault campaign. Counts are totals
// for the run; the Every fields thin a fault to one injection per N
// opportunities (0 and 1 both mean every opportunity). See
// docs/ROBUSTNESS.md for the format reference.
type Plan struct {
	// CorruptRules asks the harness to silently corrupt the host
	// semantics of this many learned rules before the run (exercising
	// shadow verification and quarantine). The injector itself cannot
	// reach the store; callers apply it via CorruptTemplates.
	CorruptRules int `json:"corruptRules,omitempty"`

	// TranslatePanics injects panics into demand translation.
	TranslatePanics int `json:"translatePanics,omitempty"`
	PanicEvery      int `json:"panicEvery,omitempty"`

	// DecodeErrors makes demand translation fail with a decode error.
	DecodeErrors int `json:"decodeErrors,omitempty"`
	DecodeEvery  int `json:"decodeEvery,omitempty"`

	// SMCWrites overwrite guest code words at named block-entry
	// ordinals, exercising the self-modifying-code fence from outside
	// the guest (write-then-execute, cross-block overwrite, overwrite
	// in a chained hot loop — the campaign picks the ordinals). The engine applies them through its
	// tracked store path immediately before the named entry, so each
	// lands exactly where a guest store at the preceding block boundary
	// would.
	SMCWrites []SMCWrite `json:"smcWrites,omitempty"`
}

// SMCWrite is one deterministic guest code overwrite: at block-entry
// ordinal Entry (1-based), store Word at Addr.
type SMCWrite struct {
	Entry uint64 `json:"entry"`
	Addr  uint32 `json:"addr"`
	Word  uint32 `json:"word"`
}

// ParsePlan decodes a plan from JSON.
func ParsePlan(r io.Reader) (Plan, error) {
	var p Plan
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return Plan{}, fmt.Errorf("faultinject: parsing plan: %w", err)
	}
	return p, nil
}

// LoadPlan reads a plan file.
func LoadPlan(path string) (Plan, error) {
	f, err := os.Open(path)
	if err != nil {
		return Plan{}, err
	}
	defer f.Close()
	return ParsePlan(f)
}

// Injector hands out the plan's faults. All methods are safe for
// concurrent use and deterministic given the plan: every decision comes
// from atomic counters, never from wall-clock or randomness.
type Injector struct {
	plan Plan

	panicOps  atomic.Uint64 // translation opportunities seen by TranslatePanic
	panics    atomic.Int64  // panics injected so far
	decodeOps atomic.Uint64
	decodes   atomic.Int64
}

// New returns an injector for the plan.
func New(plan Plan) *Injector {
	return &Injector{plan: plan}
}

// every applies an Every thinning factor: opportunity counters are
// 1-based, and factor n fires on every n-th opportunity.
func every(op uint64, factor int) bool {
	if factor <= 1 {
		return true
	}
	return op%uint64(factor) == 0
}

// TranslatePanic reports whether the demand translation at pc should
// panic (the engine's guarded translation path recovers it).
func (i *Injector) TranslatePanic(pc uint32) bool {
	if i.plan.TranslatePanics <= 0 {
		return false
	}
	op := i.panicOps.Add(1)
	if !every(op, i.plan.PanicEvery) {
		return false
	}
	if i.panics.Add(1) > int64(i.plan.TranslatePanics) {
		return false
	}
	return true
}

// DecodeError reports whether the demand translation at pc should fail
// as if the guest code bytes did not decode.
func (i *Injector) DecodeError(pc uint32) bool {
	if i.plan.DecodeErrors <= 0 {
		return false
	}
	op := i.decodeOps.Add(1)
	if !every(op, i.plan.DecodeEvery) {
		return false
	}
	if i.decodes.Add(1) > int64(i.plan.DecodeErrors) {
		return false
	}
	return true
}

// CodePokes returns the plan's guest code overwrites for block-entry
// ordinal n (1-based) as (addr, word) pairs. A pure function of the
// plan and n — no counters — so the sequence is identical on every run
// and the method is trivially safe for concurrent use. The engine
// applies them before every block entry.
func (i *Injector) CodePokes(n uint64) [][2]uint32 {
	var out [][2]uint32
	for _, w := range i.plan.SMCWrites {
		if w.Entry == n {
			out = append(out, [2]uint32{w.Addr, w.Word})
		}
	}
	return out
}

// Counts reports how many faults of each kind were actually injected,
// for test assertions and run summaries.
func (i *Injector) Counts() (panics, decodes int64) {
	clamp := func(v, max int64) int64 {
		if v > max {
			return max
		}
		return v
	}
	return clamp(i.panics.Load(), int64(i.plan.TranslatePanics)),
		clamp(i.decodes.Load(), int64(i.plan.DecodeErrors))
}

// swapOp maps a host compute op to a same-shape, different-semantics
// replacement. Shape preservation matters: the corrupted rule must
// still instantiate and execute, producing silently wrong values — the
// fault shadow verification exists to catch.
var swapOp = map[host.Op]host.Op{
	host.ADDL: host.SUBL, host.SUBL: host.ADDL,
	host.ANDL: host.ORL, host.ORL: host.XORL, host.XORL: host.ANDL,
	host.SHLL: host.SHRL, host.SHRL: host.SHLL,
}

// CorruptTemplate flips one host compute op of the template to a
// same-shape replacement, silently changing its semantics. It reports
// whether the template had a corruptible op.
func CorruptTemplate(t *rule.Template) bool {
	for i := range t.Host {
		if repl, ok := swapOp[t.Host[i].Op]; ok {
			t.Host[i].Op = repl
			return true
		}
	}
	return false
}

// CorruptTemplates corrupts up to n of the given templates (in
// deterministic fingerprint order, skipping uncorruptible ones) and
// returns the post-corruption fingerprints — the identities a
// quarantine set will record if the guard catches them.
func CorruptTemplates(ts []*rule.Template, n int) []string {
	sorted := append([]*rule.Template(nil), ts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Fingerprint() < sorted[j].Fingerprint() })
	var out []string
	for _, t := range sorted {
		if len(out) >= n {
			break
		}
		if CorruptTemplate(t) {
			out = append(out, t.Fingerprint())
		}
	}
	return out
}
