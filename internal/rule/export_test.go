package rule

import (
	"fmt"
	"strings"

	"paramdbt/internal/guest"
)

// Test-only surface, shared by the in-package tests and the external
// ones that need the workload corpus: the string key oracle, the
// per-length probe the prefix walk replaced, and patKeyFps.

// Key computes the human-readable key of a guest instruction window:
// opcode, S bit and operand kinds (including the memory sub-mode) per
// instruction — the shape KeyFp fingerprints. Tests use it as the
// oracle fingerprints must agree with.
func Key(seq []guest.Inst) string {
	var b strings.Builder
	for i, in := range seq {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%s", in.Op)
		if in.Op == guest.B {
			b.WriteString(in.Cond.String())
		}
		if in.S {
			b.WriteByte('!')
		}
		for j := 0; j < in.N; j++ {
			o := in.Ops[j]
			b.WriteByte(',')
			switch o.Kind {
			case guest.KindReg:
				b.WriteByte('r')
			case guest.KindImm:
				b.WriteByte('i')
			case guest.KindMem:
				if o.HasIdx {
					b.WriteString("mx")
				} else {
					b.WriteString("md")
				}
			case guest.KindFReg:
				b.WriteByte('f')
			case guest.KindRegList:
				b.WriteByte('l')
			}
		}
	}
	return b.String()
}

// PatKeyFps exposes patKeyFps: the fingerprint of every prefix of t's
// key under seed, shortest first.
func PatKeyFps(t *Template, seed uint64) []uint64 { return patKeyFps(t, seed) }

// LookupPerLength is the retrieval LookupInto's prefix walk replaced,
// kept as the reference it must agree with: fingerprint every window
// length up to MaxLen, then probe the index once per length, longest
// first, trying each length's candidates in order under the same
// quarantine and skip filters.
func (s *Store) LookupPerLength(seq []guest.Inst, skip func(*Template) bool, b *Binding) (*Template, int) {
	ix := s.idx.Load()
	max := min(s.maxLen, len(seq))
	var fps [maxKeyWindow]uint64
	h := ix.keySeed()
	for l := 1; l <= max; l++ {
		h = ExtendKeyFp(h, seq[l-1])
		fps[l-1] = h
	}
	for l := max; l >= 1; l-- {
		for _, t := range ix.byKey[fps[l-1]] {
			if s.IsQuarantined(t) || (skip != nil && skip(t)) {
				continue
			}
			if MatchInto(t, seq[:l], b) {
				return t, l
			}
		}
	}
	return nil, 0
}
