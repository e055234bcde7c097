// Package mem implements the sparse paged memory shared by the guest
// machine state and the host CPU simulator. The DBT operates in
// "user mode": guest addresses are identity-mapped into this single
// address space, exactly as QEMU's linux-user mode maps the guest image
// into the emulator's own address space.
//
// The page map is the authority: every allocated page is an entry of
// Memory.pages and nothing else owns one. In front of the map an
// execution image (a Memory made by New) keeps a small direct-mapped
// page-pointer lookaside, filled on a miss, so the guest data and stack
// accesses of simulated host code cost one compare instead of a map
// probe. Its CPUState accesses — half of all the micro-ops it retires —
// skip even that: the host CPU resolves the CPUState page once per block
// through Frame and indexes it directly, journaling each store with
// Journal32 exactly as Write32 would. Frame declines (the CPU falls back
// to Read32/Write32) on snapshots, untouched pages and pages below the
// write tracker's limit.
//
// The lookaside is a lookaside over the map and not a flat or two-level
// page table because images are tiny (≈6 pages) and, when the choice
// was made, snapshots were frequent: shadow verification cloned the
// image per sampled block, and a table that every clone must allocate
// and fill measured −19…−54 % requests per second on the serving
// workload for +3–7 % on the execution-bound one, while the lookaside
// matched it there and leaves clones exactly as cheap as a bare map
// copy. Shadow verification has since stopped cloning — it compares the
// write sets of two executions read off the undo journal (track.go:
// ArmSMC, JournalWrites, RollbackJournal), so an image is now copied
// once per engine at most, or after a detected divergence — and, now
// that the CPUState traffic no longer goes through it, the table's A/B
// can be re-run on its merits (ROADMAP item 3).
//
// Snapshots (Clone, CloneBelow) and the zero value carry no lookaside
// and no write tracker; every access goes to the map. That is also the
// concurrency contract: a snapshot nobody writes may be read from many
// goroutines (the translation service's shared code image, the
// speculative workers' code snapshot), because reading it mutates
// nothing. A Memory made by New fills its lookaside on reads and is
// owned by one goroutine.
package mem

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// PageBits is the log2 of the page size.
const PageBits = 12

// PageSize is the size in bytes of one backing page.
const PageSize = 1 << PageBits

const pageMask = PageSize - 1

type page = [PageSize]byte

// Memory is a sparse 32-bit byte-addressed memory. Pages are allocated on
// first touch; reads of untouched memory return zero, matching a freshly
// mapped anonymous page. The zero value is ready to use.
type Memory struct {
	pages map[uint32]*page
	// hot is the state only an execution image has: the page-pointer
	// lookaside and the optional guest-write tracker (track.go). Nil in
	// clones and in the zero value, whose accesses all go to the map.
	hot *hotState
}

// lookasideSize is the number of direct-mapped lookaside entries. The
// working set of translated code is the CPUState page plus a few data,
// heap and stack pages; 64 entries keep those in distinct slots under
// lookasideSlot for 1 KB per execution image.
const lookasideSize = 64

// lookasideEntry caches pages[tag-1] == p; tag 0 is an empty slot.
// Absent pages are never cached, and a page once in the map is neither
// replaced nor removed except by Reset, so an entry can only go stale
// there.
type lookasideEntry struct {
	tag uint32
	p   *page
}

type hotState struct {
	la [lookasideSize]lookasideEntry
	wt *writeTracker // nil until EnableWriteTracking
}

// lookasideSlot maps a page key to its slot. The regions of the address
// space (env: code, data, heap, stacks, CPUState) start at keys that
// differ only in bits 12 and up, so those are folded down; taking the
// low bits alone would put every region's first page in slot 0.
func lookasideSlot(key uint32) uint32 {
	return (key ^ key>>10) & (lookasideSize - 1)
}

// New returns an empty memory with a lookaside: an execution image.
func New() *Memory {
	return &Memory{pages: make(map[uint32]*page), hot: new(hotState)}
}

// snapshot returns an empty memory without hot state, the receiver of a
// clone.
func snapshot() *Memory {
	return &Memory{pages: make(map[uint32]*page)}
}

// find returns the page holding addr, or nil when it was never touched.
func (m *Memory) find(addr uint32) *page {
	key := addr >> PageBits
	h := m.hot
	if h == nil {
		return m.pages[key]
	}
	e := &h.la[lookasideSlot(key)]
	if e.tag == key+1 {
		return e.p
	}
	p := m.pages[key]
	if p != nil {
		e.tag, e.p = key+1, p
	}
	return p
}

// touch returns the page holding addr, allocating it on first use.
func (m *Memory) touch(addr uint32) *page {
	key := addr >> PageBits
	var e *lookasideEntry
	if h := m.hot; h != nil {
		if e = &h.la[lookasideSlot(key)]; e.tag == key+1 {
			return e.p
		}
	}
	p := m.pages[key]
	if p == nil {
		if m.pages == nil {
			m.pages = make(map[uint32]*page)
		}
		p = new(page)
		m.pages[key] = p
	}
	if e != nil {
		*e = lookasideEntry{key + 1, p}
	}
	return p
}

// Read8 returns the byte at addr.
func (m *Memory) Read8(addr uint32) byte {
	p := m.find(addr)
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}

// Write8 stores b at addr.
func (m *Memory) Write8(addr uint32, b byte) {
	p := m.touch(addr)
	if t := m.tracker(); t != nil {
		t.note8(addr, p[addr&pageMask])
	}
	p[addr&pageMask] = b
}

// Read32 returns the little-endian 32-bit word at addr. The access may
// straddle a page boundary.
func (m *Memory) Read32(addr uint32) uint32 {
	if h := m.hot; h != nil {
		key, off := addr>>PageBits, addr&pageMask
		if e := &h.la[lookasideSlot(key)]; e.tag == key+1 && off <= PageSize-4 {
			return binary.LittleEndian.Uint32(e.p[off:])
		}
	}
	return m.read32Slow(addr)
}

// read32Slow is Read32 past the lookaside: a miss, a snapshot, or a
// word that straddles two pages.
func (m *Memory) read32Slow(addr uint32) uint32 {
	off := addr & pageMask
	if off > PageSize-4 {
		return uint32(m.Read8(addr)) |
			uint32(m.Read8(addr+1))<<8 |
			uint32(m.Read8(addr+2))<<16 |
			uint32(m.Read8(addr+3))<<24
	}
	p := m.find(addr)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p[off:])
}

// Write32 stores v little-endian at addr. With write tracking on, the
// journal's old word and the store share the one page lookup.
func (m *Memory) Write32(addr uint32, v uint32) {
	if h := m.hot; h != nil {
		key, off := addr>>PageBits, addr&pageMask
		if e := &h.la[lookasideSlot(key)]; e.tag == key+1 && off <= PageSize-4 {
			w := e.p[off:]
			// The tracker's two conditions are tested here so the common
			// store — journal off, address above every tracked page —
			// makes no call.
			if t := h.wt; t != nil && (t.journalOn || addr < t.limit) {
				t.note32(addr, binary.LittleEndian.Uint32(w))
			}
			binary.LittleEndian.PutUint32(w, v)
			return
		}
	}
	m.write32Slow(addr, v)
}

// write32Slow is Write32 past the lookaside: a miss, a first touch, a
// snapshot, or a word that straddles two pages.
func (m *Memory) write32Slow(addr uint32, v uint32) {
	off := addr & pageMask
	if off > PageSize-4 {
		m.Write8(addr, byte(v))
		m.Write8(addr+1, byte(v>>8))
		m.Write8(addr+2, byte(v>>16))
		m.Write8(addr+3, byte(v>>24))
		return
	}
	w := m.touch(addr)[off:]
	if t := m.tracker(); t != nil {
		t.note32(addr, binary.LittleEndian.Uint32(w))
	}
	binary.LittleEndian.PutUint32(w, v)
}

// Frame returns the page at addr for a caller that reads and writes
// words inside it directly — the host CPU's accesses to the CPUState
// page through %ebp — and whether the undo journal is armed, in which
// case each word store into the page must first be recorded with
// Journal32. The lookup goes through the lookaside, once per caller
// rather than once per access.
//
// Frame returns nil, and the caller must use Read32 and Write32
// instead, when addr is not page-aligned, when m is a snapshot (no hot
// state), when the page was never touched, or when the page lies below
// the write tracker's limit, where a store may need the dirty-page and
// self-range checks. The page stays valid until Reset; the journal
// flag until the next ArmSMC, DisarmSMC or RollbackJournal, and the
// verdict on the limit until the next TrackRange.
func (m *Memory) Frame(addr uint32) (*[PageSize]byte, bool) {
	if m == nil || m.hot == nil || addr&pageMask != 0 {
		return nil, false
	}
	t := m.hot.wt
	if t != nil && addr < t.limit {
		return nil, false
	}
	return m.find(addr), t != nil && t.journalOn
}

// Journal32 records in the armed undo journal the word old at addr,
// which a store through a Frame page is about to overwrite: the entry
// Write32 makes for the same store. A no-op while the journal is off.
func (m *Memory) Journal32(addr, old uint32) {
	if t := m.tracker(); t != nil && t.journalOn {
		t.journal = append(t.journal, jwrite{addr: addr, old: old, wide: true})
	}
}

// Write8s copies b into memory starting at addr.
func (m *Memory) Write8s(addr uint32, b []byte) {
	for i, c := range b {
		m.Write8(addr+uint32(i), c)
	}
}

// Read8s copies n bytes starting at addr into a fresh slice.
func (m *Memory) Read8s(addr uint32, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = m.Read8(addr + uint32(i))
	}
	return out
}

// PageCount reports the number of allocated pages, for tests and
// diagnostics.
func (m *Memory) PageCount() int { return len(m.pages) }

// Reset drops every allocated page, and with them the lookaside.
func (m *Memory) Reset() {
	m.pages = make(map[uint32]*page)
	if m.hot != nil {
		m.hot.la = [lookasideSize]lookasideEntry{}
	}
}

// Clone returns a deep copy of the memory. Used by the differential
// testers to run the same program under two engines.
func (m *Memory) Clone() *Memory {
	c := snapshot()
	for k, p := range m.pages {
		cp := *p
		c.pages[k] = &cp
	}
	return c
}

// CloneBelow deep-copies only the pages below limit (a page-aligned
// boundary). The speculative-translation pool snapshots just the guest
// code region this way: cloning the data, heap and stack pages of a
// large workload dominated the cost of starting the pool, and code
// fetch never reads them.
func (m *Memory) CloneBelow(limit uint32) *Memory {
	limitKey := limit >> PageBits
	c := snapshot()
	for k, p := range m.pages {
		if k < limitKey {
			cp := *p
			c.pages[k] = &cp
		}
	}
	return c
}

// DiffBelow compares the two memories over all addresses below limit
// (a page-aligned boundary separating guest-visible memory from
// host-private regions) and returns up to max differing word-aligned
// addresses, lowest first. Pages absent on one side compare as zero,
// matching read semantics. Used wherever two whole images are compared:
// the translation validator's concrete replay, blame-isolation trials
// after a shadow divergence (guard.CompareMemory) and the tests.
func (m *Memory) DiffBelow(other *Memory, limit uint32, max int) []uint32 {
	limitKey := limit >> PageBits
	keys := map[uint32]bool{}
	for k := range m.pages {
		if k < limitKey {
			keys[k] = true
		}
	}
	for k := range other.pages {
		if k < limitKey {
			keys[k] = true
		}
	}
	sorted := make([]uint32, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var zero [PageSize]byte
	var out []uint32
	for _, k := range sorted {
		pa, pb := m.pages[k], other.pages[k]
		if pa == nil {
			pa = &zero
		}
		if pb == nil {
			pb = &zero
		}
		if *pa == *pb {
			continue
		}
		base := k << PageBits
		for off := 0; off < PageSize; off += 4 {
			if pa[off] != pb[off] || pa[off+1] != pb[off+1] ||
				pa[off+2] != pb[off+2] || pa[off+3] != pb[off+3] {
				out = append(out, base+uint32(off))
				if len(out) >= max {
					return out
				}
			}
		}
	}
	return out
}

// RestoreBelow overwrites every page of m below limit with src's
// content (missing src pages zero the destination page), leaving pages
// at or above limit untouched. After the call the two memories read
// identically below limit. Nothing on the execution path needs it any
// more (divergence recovery rolls the undo journal back and re-applies
// the reference's write set); the benchmark's layer table and the tests
// restore images with it.
func (m *Memory) RestoreBelow(src *Memory, limit uint32) {
	limitKey := limit >> PageBits
	// With write tracking on, a tracked page whose content the restore
	// changes must be reported dirty like any other store — a restore
	// may rewrite guest code the engine has translated, and the stale
	// translations must be fenced out exactly as if the guest had stored
	// the bytes itself.
	markChanged := func(k uint32, before, after *page) {
		t := m.tracker()
		if t == nil || *before == *after {
			return
		}
		base := k << PageBits
		if m.TrackedPage(base) {
			t.noteTracked(base, 1)
		}
	}
	var zero [PageSize]byte
	for k, p := range m.pages {
		if k >= limitKey {
			continue
		}
		sp := src.pages[k]
		if sp == nil {
			sp = &zero
		}
		markChanged(k, p, sp)
		*p = *sp
	}
	for k, sp := range src.pages {
		if k >= limitKey || m.pages[k] != nil {
			continue
		}
		cp := *sp
		if m.pages == nil {
			m.pages = make(map[uint32]*page)
		}
		markChanged(k, sp, &zero)
		m.pages[k] = &cp
	}
}

// Checksum digests the address range [lo, hi) with 64-bit FNV-1a,
// hashing allocated pages in ascending address order. Pages that are
// absent or all zero contribute nothing, so two images that differ only
// in untouched (or explicitly zeroed) pages checksum identically —
// matching read semantics, where both return zero. The translation
// service keys its per-program code snapshots on the checksum of the
// guest code region, so tenants share a snapshot only when their code
// images match.
func (m *Memory) Checksum(lo, hi uint32) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	keys := make([]uint32, 0, len(m.pages))
	for k := range m.pages {
		base := k << PageBits
		if base+PageSize > lo && base < hi {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	h := uint64(offset64)
	var zero [PageSize]byte
	for _, k := range keys {
		p := m.pages[k]
		base := k << PageBits
		start, end := uint32(0), uint32(PageSize)
		if base < lo {
			start = lo - base
		}
		if base+PageSize > hi {
			end = hi - base
		}
		window := p[start:end]
		if start == 0 && end == PageSize && *p == zero {
			continue
		}
		allZero := true
		for _, b := range window {
			if b != 0 {
				allZero = false
				break
			}
		}
		if allZero {
			continue
		}
		// Fold the page's absolute position in, so moving content to a
		// different address changes the digest.
		pos := base + start
		for s := 0; s < 32; s += 8 {
			h = (h ^ uint64(byte(pos>>s))) * prime64
		}
		for _, b := range window {
			h = (h ^ uint64(b)) * prime64
		}
	}
	return h
}

// Dump formats a hex dump of n bytes at addr, for debugging.
func (m *Memory) Dump(addr uint32, n int) string {
	s := ""
	for i := 0; i < n; i += 16 {
		s += fmt.Sprintf("%08x:", addr+uint32(i))
		for j := 0; j < 16 && i+j < n; j++ {
			s += fmt.Sprintf(" %02x", m.Read8(addr+uint32(i+j)))
		}
		s += "\n"
	}
	return s
}
