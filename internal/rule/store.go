package rule

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"paramdbt/internal/guest"
	"paramdbt/internal/obs"
)

// maxKeyWindow bounds the guest-window length the prefix walk handles
// with a fixed-size (stack-allocated) candidate buffer. Learned rules
// span a few instructions at most; Add enforces the bound so retrieval
// can never silently miss a longer rule.
const maxKeyWindow = 16

// Store is the rule table: a hash map from guest-window key
// fingerprints to candidate templates, with duplicate merging. Once
// populated it is safe for concurrent readers (Lookup); Add must not
// run concurrently with lookups. The quarantine set is one of the two
// mutable pieces of a live store: Quarantine may be called concurrently
// with lookups (the guard layer demotes rules mid-run), so it is kept
// in a sync.Map keyed by template pointer, with an atomic count gating
// the hot path to a single load when the set is empty. The other is the
// retrieval index itself: SetBackendID swaps a fresh immutable index in
// atomically, so a rekey may race live lookups (a mid-rekey lookup sees
// either the old or the new keying, never a torn map) — engines sharing
// one store with a translation service may be constructed at any time.
type Store struct {
	byFp   map[string]*Template
	maxLen int

	// idx is the immutable retrieval index (key seed + fingerprint
	// map), replaced wholesale by SetBackendID. rekeyMu serializes the
	// rebuilds themselves; readers never take it.
	idx     atomic.Pointer[ruleIndex]
	rekeyMu sync.Mutex

	quarN atomic.Int32
	quar  sync.Map // *Template -> reason string
}

// ruleIndex is one immutable snapshot of the retrieval index: the
// per-backend key seed (see KeyFpSeedFor; zero means "unset" and
// behaves as the default KeyFpSeed) and the fingerprint → candidates
// map built under it. The map is prefix-closed: every prefix of every
// template key is present, a prefix no template is keyed on with an
// empty candidate list, so a lookup can stop extending its window at
// the first absent fingerprint. Lookups load the pointer once and work
// against a consistent (seed, byKey) pair even while SetBackendID
// swaps in a replacement.
type ruleIndex struct {
	seed  uint64
	byKey map[uint64][]*Template
}

// add files t under its key fingerprint and makes every shorter prefix
// of the key present.
func (ix *ruleIndex) add(t *Template) {
	fps := patKeyFps(t, ix.keySeed())
	for i, fp := range fps {
		cands, ok := ix.byKey[fp]
		if i == len(fps)-1 {
			ix.byKey[fp] = append(cands, t)
		} else if !ok {
			ix.byKey[fp] = nil
		}
	}
}

// keySeed returns the index's effective retrieval-key seed.
func (ix *ruleIndex) keySeed() uint64 {
	if ix.seed == 0 {
		return KeyFpSeed
	}
	return ix.seed
}

// NewStore returns an empty store keyed for the default backend.
func NewStore() *Store {
	s := &Store{byFp: map[string]*Template{}}
	s.idx.Store(&ruleIndex{byKey: map[uint64][]*Template{}})
	return s
}

// keySeed returns the store's current retrieval-key seed.
func (s *Store) keySeed() uint64 {
	return s.idx.Load().keySeed()
}

// KeySeed exposes the store's retrieval-key seed, so callers deriving
// window fingerprints by hand (benchmarks, diagnostics) match lookups.
func (s *Store) KeySeed() uint64 { return s.keySeed() }

// SetBackendID rekeys the store for a host backend: retrieval-key
// fingerprints are seeded per backend id (KeyFpSeedFor), so rule
// lookups can never alias across backends. The engine calls it at
// construction. Quarantine state is deliberately untouched: entries are
// keyed by backend-neutral rule fingerprints, so a rule quarantined
// under one backend stays quarantined when the engine restarts under
// another.
//
// Safe to call concurrently with lookups: the rebuild happens off to
// the side and is installed with one atomic pointer swap, so a racing
// lookup observes either the old or the new index in full. The
// seed-unchanged path performs no writes at all, and rekeyMu serializes
// the rebuilds, so engines sharing one store may be constructed
// concurrently — including the misconfigured case where a tenant names
// a different backend than the service that owns the store (its lookups
// then simply miss until the store is rekeyed back).
func (s *Store) SetBackendID(bid uint8) {
	seed := KeyFpSeedFor(bid)
	s.rekeyMu.Lock()
	defer s.rekeyMu.Unlock()
	if seed == s.keySeed() {
		return
	}
	ix := &ruleIndex{seed: seed, byKey: make(map[uint64][]*Template, len(s.byFp))}
	for _, t := range s.All() {
		ix.add(t)
	}
	s.idx.Store(ix)
}

// Add inserts a template unless an identical one exists (the merging
// stage of the paper's workflow). It reports whether the template was
// new.
func (s *Store) Add(t *Template) bool {
	if t.GuestLen() > maxKeyWindow {
		panic(fmt.Sprintf("rule: template spans %d guest instructions, retrieval window is %d", t.GuestLen(), maxKeyWindow))
	}
	if len(t.Params) > maxParams {
		panic(fmt.Sprintf("rule: template has %d params, matcher scratch holds %d", len(t.Params), maxParams))
	}
	fp := t.Fingerprint()
	if _, dup := s.byFp[fp]; dup {
		return false
	}
	s.byFp[fp] = t
	s.idx.Load().add(t)
	if t.GuestLen() > s.maxLen {
		s.maxLen = t.GuestLen()
	}
	return true
}

// Len reports the number of (unique) templates.
func (s *Store) Len() int { return len(s.byFp) }

// MaxLen reports the longest guest window any rule covers.
func (s *Store) MaxLen() int { return s.maxLen }

// All returns the templates in a deterministic order.
func (s *Store) All() []*Template {
	out := make([]*Template, 0, len(s.byFp))
	fps := make([]string, 0, len(s.byFp))
	for fp := range s.byFp {
		fps = append(fps, fp)
	}
	sort.Strings(fps)
	for _, fp := range fps {
		out = append(out, s.byFp[fp])
	}
	return out
}

// Quarantine demotes a template: it stays in the store (so Save and
// the accounting still see it) but no lookup will return it until
// Unquarantine. The reason is recorded for the persisted quarantine
// file. Safe to call concurrently with lookups; reports whether the
// template was newly quarantined.
func (s *Store) Quarantine(t *Template, reason string) bool {
	if _, loaded := s.quar.LoadOrStore(t, reason); loaded {
		return false
	}
	s.quarN.Add(1)
	return true
}

// Unquarantine restores a quarantined template to lookup eligibility.
func (s *Store) Unquarantine(t *Template) bool {
	if _, loaded := s.quar.LoadAndDelete(t); !loaded {
		return false
	}
	s.quarN.Add(-1)
	return true
}

// IsQuarantined reports whether t is currently quarantined.
func (s *Store) IsQuarantined(t *Template) bool {
	if s.quarN.Load() == 0 {
		return false
	}
	_, ok := s.quar.Load(t)
	return ok
}

// QuarantineLen reports the number of quarantined templates.
func (s *Store) QuarantineLen() int { return int(s.quarN.Load()) }

// Quarantined returns the quarantine set as persistable entries, in
// deterministic (fingerprint) order.
func (s *Store) Quarantined() []QuarantineEntry {
	var out []QuarantineEntry
	s.quar.Range(func(k, v any) bool {
		t := k.(*Template)
		out = append(out, QuarantineEntry{
			Fingerprint: t.Fingerprint(),
			Rule:        t.String(),
			Reason:      v.(string),
		})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Fingerprint < out[j].Fingerprint })
	return out
}

// ApplyQuarantine quarantines every store template whose fingerprint
// appears in entries (a previously persisted quarantine set) and
// reports how many matched. Entries for rules not in this store are
// ignored — the quarantine file may outlive a retrained table. A
// template matches on its fingerprint now, as Quarantined records it,
// not as it was added: a template corrupted in place (a fault plan's
// corruptRules) matches the entry its corrupted form was saved under.
func (s *Store) ApplyQuarantine(entries []QuarantineEntry) int {
	reasons := make(map[string]string, len(entries))
	for _, e := range entries {
		reasons[e.Fingerprint] = e.Reason
	}
	n := 0
	for _, t := range s.byFp {
		if reason, ok := reasons[t.Fingerprint()]; ok && s.Quarantine(t, reason) {
			n++
		}
	}
	return n
}

// Lookup finds the longest template matching a prefix of seq, preferring
// longer windows (more context means better host code). It returns the
// template, its binding and the number of guest instructions consumed.
func (s *Store) Lookup(seq []guest.Inst) (*Template, Binding, int) {
	var b Binding
	t, l := s.LookupInto(seq, nil, nil, &b)
	if t == nil {
		return nil, Binding{}, 0
	}
	return t, b, l
}

// LookupInto is the allocation-free retrieval the translator runs at
// every window start: Lookup with a caller-provided exclusion predicate
// and Binding scratch. Candidates for which skip returns true are passed
// over as if they did not match (the guard layer's blame isolation
// translates trial blocks with one suspect rule excluded); quarantined
// templates are always passed over. On a hit the winning binding is
// left in b (whose slices are reused across calls, so a warm scratch
// never allocates); on a miss b is truncated. The translator keeps an
// arena of scratch Bindings — one slot per accepted rule window — so
// block translation allocates nothing per lookup.
//
// The MissSet argument is ignored; it stays only while bench/ passes one.
func (s *Store) LookupInto(seq []guest.Inst, _ *MissSet, skip func(*Template) bool, b *Binding) (*Template, int) {
	telemetry := obs.On()
	if telemetry {
		metLookups.Inc()
	}
	// One index load for the whole retrieval: seed and map stay mutually
	// consistent even if SetBackendID swaps in a rekeyed index mid-call.
	// Walk the window one instruction at a time while its fingerprint is
	// a prefix of some template key, noting the candidates met on the
	// way; then try them longest window first.
	ix := s.idx.Load()
	var cands [maxKeyWindow][]*Template
	n := min(s.maxLen, len(seq))
	h := ix.keySeed()
	l := 0
	for l < n {
		h = ExtendKeyFp(h, seq[l])
		c, ok := ix.byKey[h]
		if !ok {
			break
		}
		cands[l] = c
		l++
	}
	b.Regs, b.Imms = b.Regs[:0], b.Imms[:0]
	quarActive := s.quarN.Load() != 0
	for ; l > 0; l-- {
		for _, t := range cands[l-1] {
			if quarActive {
				if _, q := s.quar.Load(t); q {
					continue
				}
			}
			if skip != nil && skip(t) {
				continue
			}
			if telemetry {
				metMatchAttempts.Inc()
			}
			if MatchInto(t, seq[:l], b) {
				if telemetry {
					metLookupHits.Inc()
				}
				return t, l
			}
		}
	}
	return nil, 0
}

// CountByOrigin tallies templates per origin, for the experiment
// harness.
func (s *Store) CountByOrigin() map[Origin]int {
	out := map[Origin]int{}
	for _, t := range s.byFp {
		out[t.Origin]++
	}
	return out
}

// GroupCount tallies the number of distinct GroupKeys among templates
// with one, approximating the paper's "parameterized rule" count (each
// group is one parameterized rule; its members are the instantiable
// derived rules).
func (s *Store) GroupCount() int {
	set := map[string]bool{}
	for _, t := range s.byFp {
		if t.GroupKey != "" {
			set[t.GroupKey] = true
		}
	}
	return len(set)
}

// Dump renders every rule, one per line.
func (s *Store) Dump() string {
	var b strings.Builder
	for _, t := range s.All() {
		fmt.Fprintf(&b, "%-10s %s\n", t.Origin, t)
	}
	return b.String()
}
