package mem

import (
	"cmp"
	"encoding/binary"
	"slices"
)

// Guest-write tracking is the memory half of self-modifying-code (SMC)
// safety (the engine half lives in internal/dbt; docs/ROBUSTNESS.md
// "Self-modifying code" is the design). The engine registers every page
// that holds translated guest code; from then on each store into a
// registered page is recorded at page granularity in a dirty list the
// dispatch loop drains to invalidate stale translations before they can
// run again.
//
// Two further mechanisms serve the store-inside-its-own-block case,
// where invalidation-before-next-dispatch is not enough because the
// stale host code is already executing:
//
//   - self ranges: before executing a translation that contains guest
//     stores, the engine arms the tracker with the guest address ranges
//     the translation was decoded from. A store landing inside one sets
//     selfHit, telling the engine the host code it just ran was
//     modifying itself.
//   - the undo journal: while armed, every store records the prior
//     value. Translated host code is straight-line per execution (block
//     translations contain no backward branches — loops re-enter
//     through the dispatcher), so the journal is bounded by
//     one translation's length and RollbackJournal can restore the
//     exact memory image at block entry. The engine then replays the
//     block on the reference interpreter up to the faulting store,
//     achieving the precise-exit rule.
//
// The journal has a second user: shadow verification (internal/dbt
// guard.go) arms it — with no self ranges — around each of the two
// executions of a sampled block, reads the execution's write set off it
// (JournalWrites) and rolls the reference interpreter's stores back, so
// checking a block costs in proportion to its stores and copies nothing.
//
// Everything here is nil-guarded: a Memory without a tracker (the
// default — New installs none) pays two pointer compares per store.
// Clones never inherit the tracker; they are snapshots, not the
// execution image (the tracker lives in Memory.hot beside the
// lookaside, which clones do not carry either).

// trackerWords sizes the page bitmaps in uint64 words for a given
// exclusive page-key bound.
func trackerWords(limitKey uint32) int { return int(limitKey+63) / 64 }

// jwrite is one undo-journal entry: the address and prior content of a
// store. wide distinguishes 32-bit from byte stores.
type jwrite struct {
	addr uint32
	old  uint32
	wide bool
}

// writeTracker holds the per-Memory tracking state. All fields are
// owned by the goroutine driving execution (the engine's Run loop);
// concurrent readers go through Memory clones, which drop the tracker.
type writeTracker struct {
	// limit is the exclusive upper bound of every tracked range; stores
	// at or above it take the one-compare fast path. It rises as code
	// pages are registered (including, e.g., dynamically generated code
	// above the static code region).
	limit uint32

	tracked  []uint64 // bitmap over page keys < limit>>PageBits
	dirtyMap []uint64 // dedup bitmap for dirty
	dirty    []uint32 // page keys stored-to while tracked, in first-write order

	// Armed per-execution by the engine (ArmSMC/DisarmSMC).
	self      [][2]uint32 // guest [lo,hi) ranges of the executing translation
	selfHit   bool
	journalOn bool
	journal   []jwrite
}

// EnableWriteTracking installs (or resets) the write tracker. The
// engine calls it once per Memory at construction; enabling is what
// turns every Write8/Write32 into a tracked store.
func (m *Memory) EnableWriteTracking() {
	if m.hot == nil {
		m.hot = new(hotState)
	}
	m.hot.wt = &writeTracker{journal: make([]jwrite, 0, 256)}
}

// tracker returns the installed write tracker, or nil.
func (m *Memory) tracker() *writeTracker {
	if m.hot == nil {
		return nil
	}
	return m.hot.wt
}

// WriteTrackingEnabled reports whether the tracker is installed.
func (m *Memory) WriteTrackingEnabled() bool { return m.tracker() != nil }

// ensure grows the bitmaps to cover page keys below limitKey.
func (t *writeTracker) ensure(limitKey uint32) {
	w := trackerWords(limitKey)
	for len(t.tracked) < w {
		t.tracked = append(t.tracked, 0)
		t.dirtyMap = append(t.dirtyMap, 0)
	}
}

// TrackRange registers every page overlapping [lo, hi) as holding
// translated code. No-op without a tracker.
func (m *Memory) TrackRange(lo, hi uint32) {
	t := m.tracker()
	if t == nil || hi <= lo {
		return
	}
	lastKey := (hi - 1) >> PageBits
	t.ensure(lastKey + 1)
	for k := lo >> PageBits; k <= lastKey; k++ {
		t.tracked[k>>6] |= 1 << (k & 63)
	}
	if end := (lastKey + 1) << PageBits; end > t.limit {
		t.limit = end
	}
}

// UntrackPage deregisters one page (by page key). The engine untracks a
// page once no cached translation overlaps it, so stores there return
// to the fast path.
func (m *Memory) UntrackPage(key uint32) {
	t := m.tracker()
	if t == nil || int(key>>6) >= len(t.tracked) {
		return
	}
	t.tracked[key>>6] &^= 1 << (key & 63)
}

// TrackedPage reports whether the page holding addr is registered.
func (m *Memory) TrackedPage(addr uint32) bool {
	t := m.tracker()
	if t == nil {
		return false
	}
	key := addr >> PageBits
	return int(key>>6) < len(t.tracked) && t.tracked[key>>6]&(1<<(key&63)) != 0
}

// CodeDirty reports whether any tracked page has been stored to since
// the last TakeDirtyPages. This is the dispatch loop's per-iteration
// fence check; it must stay two pointer compares plus a length load.
func (m *Memory) CodeDirty() bool {
	t := m.tracker()
	return t != nil && len(t.dirty) > 0
}

// TakeDirtyPages returns the dirty page keys (first-write order) and
// clears the dirty set.
func (m *Memory) TakeDirtyPages() []uint32 {
	t := m.tracker()
	if t == nil || len(t.dirty) == 0 {
		return nil
	}
	out := append([]uint32(nil), t.dirty...)
	for _, k := range t.dirty {
		t.dirtyMap[k>>6] &^= 1 << (k & 63)
	}
	t.dirty = t.dirty[:0]
	return out
}

// ClearDirty drops the dirty set without returning it: whoever rolls
// the journal back clears the dirt the undone stores left, and lets
// what runs next — the self-abort's interpreter replay, a shadow check's
// translated pass — re-dirty exactly what it really stores.
func (m *Memory) ClearDirty() {
	t := m.tracker()
	if t == nil {
		return
	}
	for _, k := range t.dirty {
		t.dirtyMap[k>>6] &^= 1 << (k & 63)
	}
	t.dirty = t.dirty[:0]
}

// ArmSMC prepares the tracker for one translated-block execution whose
// guest source ranges are self: the undo journal restarts empty and a
// store into any self range will set SMCSelfHit. Passing hasStores
// false disarms instead (the translation contains no guest stores, so
// neither journal nor self detection is needed). A shadow-verified
// execution arms with hasStores true whatever the translation contains
// — it is the journal that would show a store that should not be there
// — and with nil ranges where no self hit can be meant. The ranges slice
// is retained until the next call; callers pass the translation's
// cached slice, so arming allocates nothing.
func (m *Memory) ArmSMC(hasStores bool, self [][2]uint32) {
	t := m.tracker()
	if t == nil {
		return
	}
	t.selfHit = false
	t.journal = t.journal[:0]
	if hasStores {
		t.self = self
		t.journalOn = true
	} else {
		t.self = nil
		t.journalOn = false
	}
}

// DisarmSMC turns off the journal and self detection (between
// translated executions, and before interpreter replay — interpreter
// stores are authoritative and must not be journaled).
func (m *Memory) DisarmSMC() {
	t := m.tracker()
	if t == nil {
		return
	}
	t.self = nil
	t.selfHit = false
	t.journalOn = false
	t.journal = t.journal[:0]
}

// SMCSelfHit reports whether a store since the last ArmSMC landed
// inside one of the armed self ranges.
func (m *Memory) SMCSelfHit() bool {
	t := m.tracker()
	return t != nil && t.selfHit
}

// JournalLen reports the current undo-journal length (tests).
func (m *Memory) JournalLen() int {
	t := m.tracker()
	if t == nil {
		return 0
	}
	return len(t.journal)
}

// WriteByte is one byte of an execution's write set, read off the undo
// journal: the byte's content when the journal was armed and its content
// when the set was taken.
type WriteByte struct {
	Addr     uint32
	Old, New byte
}

// JournalWrites appends to dst the write set the armed journal has
// recorded below limit (page-aligned): one entry per distinct byte
// stored to since ArmSMC, in ascending address order, however often and
// at whatever width it was stored. Old is the first journaled prior
// value — the byte at arm time — and New the byte in memory now. The
// journal itself is left as it is, so the caller may still roll it back.
// Shadow verification compares two executions of one block through
// their write sets, at a cost proportional to the stores made rather
// than to the image (see internal/guard.CompareWrites).
func (m *Memory) JournalWrites(dst []WriteByte, limit uint32) []WriteByte {
	t := m.tracker()
	if t == nil {
		return dst
	}
	base := len(dst)
	for _, e := range t.journal {
		// A wide entry never straddles a page, so its first byte decides.
		if e.addr >= limit {
			continue
		}
		n := uint32(1)
		if e.wide {
			n = 4
		}
		for i := uint32(0); i < n; i++ {
			at, found := slices.BinarySearchFunc(dst[base:], e.addr+i, func(w WriteByte, addr uint32) int {
				return cmp.Compare(w.Addr, addr)
			})
			if !found { // else an earlier entry holds the arm-time value
				dst = slices.Insert(dst, base+at, WriteByte{Addr: e.addr + i, Old: byte(e.old >> (8 * i))})
			}
		}
	}
	for i := base; i < len(dst); i++ {
		dst[i].New = m.Read8(dst[i].Addr)
	}
	return dst
}

// RollbackJournal undoes every store recorded since the last ArmSMC,
// newest first, restoring the exact memory image at arm time. It also
// disarms the tracker: the rollback's own writes bypass tracking, and
// the caller's next step (interpreter replay) must run with the journal
// off.
func (m *Memory) RollbackJournal() {
	t := m.tracker()
	if t == nil {
		return
	}
	for i := len(t.journal) - 1; i >= 0; i-- {
		e := t.journal[i]
		if e.wide {
			m.rawWrite32(e.addr, e.old)
		} else {
			m.rawWrite8(e.addr, byte(e.old))
		}
	}
	t.journal = t.journal[:0]
	t.journalOn = false
	t.self = nil
	t.selfHit = false
}

// rawWrite8 stores without tracker hooks (journal rollback only).
func (m *Memory) rawWrite8(addr uint32, b byte) {
	m.touch(addr)[addr&pageMask] = b
}

// rawWrite32 stores without tracker hooks (journal rollback only).
func (m *Memory) rawWrite32(addr uint32, v uint32) {
	if off := addr & pageMask; off <= PageSize-4 {
		binary.LittleEndian.PutUint32(m.touch(addr)[off:off+4], v)
		return
	}
	m.rawWrite8(addr, byte(v))
	m.rawWrite8(addr+1, byte(v>>8))
	m.rawWrite8(addr+2, byte(v>>16))
	m.rawWrite8(addr+3, byte(v>>24))
}

// note8 records a byte store about to happen at addr, over the byte old.
func (t *writeTracker) note8(addr uint32, old byte) {
	if t.journalOn {
		t.journal = append(t.journal, jwrite{addr: addr, old: uint32(old)})
	}
	if addr < t.limit {
		t.noteTracked(addr, 1)
	}
}

// note32 records a non-straddling word store about to happen at addr,
// over the word old.
func (t *writeTracker) note32(addr, old uint32) {
	if t.journalOn {
		t.journal = append(t.journal, jwrite{addr: addr, old: old, wide: true})
	}
	if addr < t.limit {
		t.noteTracked(addr, 4)
	}
}

// noteTracked marks the page dirty and checks the armed self ranges for
// a store of the given size at addr (one page: callers never straddle).
func (t *writeTracker) noteTracked(addr, size uint32) {
	key := addr >> PageBits
	if t.tracked[key>>6]&(1<<(key&63)) == 0 {
		return
	}
	w, b := key>>6, uint64(1)<<(key&63)
	if t.dirtyMap[w]&b == 0 {
		t.dirtyMap[w] |= b
		t.dirty = append(t.dirty, key)
	}
	for _, r := range t.self {
		if addr+size > r[0] && addr < r[1] {
			t.selfHit = true
			return
		}
	}
}
