package rule

import "paramdbt/internal/guest"

// Rule-retrieval keys. The runtime hash lookup of §IV-D abstracts a
// guest instruction window down to opcode, S bit and operand kinds
// (including the memory sub-mode), as a 64-bit FNV-1a fingerprint
// computed without allocation.
//
// The fingerprint is prefix-extendable: hashing window [0:l] equals
// extending the hash of window [0:l-1] with instruction l-1. The store
// indexes every prefix of every template key, so a lookup extends the
// window one instruction at a time and stops at the first fingerprint
// no template key starts with.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

// kindTok is the key token of one operand shape. It distinguishes
// exactly what the string key does: register, immediate, the two memory
// sub-modes, float register and register list.
func kindTok(k guest.OperandKind, hasIdx bool) byte {
	switch k {
	case guest.KindReg:
		return 'r'
	case guest.KindImm:
		return 'i'
	case guest.KindMem:
		if hasIdx {
			return 'x'
		}
		return 'd'
	case guest.KindFReg:
		return 'f'
	case guest.KindRegList:
		return 'l'
	}
	return '?'
}

// KeyFpSeed is the fingerprint of the empty window under the default
// (x86, id 0) host backend.
const KeyFpSeed = uint64(fnvOffset64)

// KeyFpSeedFor returns the empty-window fingerprint seed for a host
// backend id, namespacing every retrieval key per backend: a table or
// cache warmed under one backend can never alias a lookup made under
// another. Backend 0 keeps the historical KeyFpSeed so existing
// fingerprints, benchmarks and serialized dumps stay byte-identical.
func KeyFpSeedFor(bid uint8) uint64 {
	if bid == 0 {
		return KeyFpSeed
	}
	return fnvByte(fnvByte(KeyFpSeed, 'B'), bid)
}

// ExtendKeyFp extends a window fingerprint with one more instruction.
func ExtendKeyFp(h uint64, in guest.Inst) uint64 {
	h = fnvByte(h, byte(in.Op))
	if in.Op == guest.B {
		// Branch condition is part of the key (branch-tail rules are
		// stored per condition); 0x80 keeps it disjoint from kind tokens.
		h = fnvByte(h, 0x80|byte(in.Cond))
	}
	if in.S {
		h = fnvByte(h, '!')
	}
	for j := 0; j < in.N; j++ {
		h = fnvByte(h, kindTok(in.Ops[j].Kind, in.Ops[j].HasIdx))
	}
	return fnvByte(h, ';')
}

// KeyFp fingerprints a guest instruction window. Windows with the same
// key shape have equal fingerprints; a collision between distinct
// shapes would be benign, because Match re-validates every candidate
// against the concrete window (and the shipped table is tested to have
// none).
func KeyFp(seq []guest.Inst) uint64 {
	h := KeyFpSeed
	for _, in := range seq {
		h = ExtendKeyFp(h, in)
	}
	return h
}

// patKeyFps fingerprints every prefix of a template's key from a
// (per-backend) seed, shortest first, with exactly the token sequence
// ExtendKeyFp produces for the instructions the template can match: the
// last fingerprint is the one the template is stored under.
func patKeyFps(t *Template, seed uint64) []uint64 {
	fps := make([]uint64, 0, t.GuestLen())
	h := seed
	for _, p := range t.Guest {
		h = fnvByte(h, byte(p.Op))
		if p.S {
			h = fnvByte(h, '!')
		}
		for _, a := range p.Args {
			h = fnvByte(h, kindTok(a.Kind, a.HasIdx))
		}
		h = fnvByte(h, ';')
		fps = append(fps, h)
	}
	if t.BranchTail {
		// The concrete tail is `b<cond> #imm`.
		h = fnvByte(h, byte(guest.B))
		h = fnvByte(h, 0x80|byte(t.GCond))
		h = fnvByte(h, 'i')
		h = fnvByte(h, ';')
		fps = append(fps, h)
	}
	return fps
}

// MissSet is retired: lookups walk the prefix-closed index instead of
// memoizing misses. It stays, empty, only while bench/ compiles against it.
type MissSet struct{}

// Reset does nothing; it stays only while bench/ calls it.
func (*MissSet) Reset() {}
