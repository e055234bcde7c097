package mem

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// The model-based property test: random interleavings of every
// operation that reads, writes, allocates, drops or copies pages, on a
// growing family of memories (an execution image and the clones taken
// from it), each checked against a plain map[uint32]byte. The lookaside
// is invisible if and only if every read agrees with the model — a stale
// entry (after Reset), a foreign one (a page of the clone's source, or
// of a key that shares the slot) or a shared page (a store to one family
// member showing up in another) all surface as a wrong byte.

// modelMem is one memory under test beside its model.
type modelMem struct {
	m       *Memory
	bytes   map[uint32]byte // absent: zero
	tracked map[uint32]bool // page keys registered with TrackRange
	dirty   []uint32        // expected TakeDirtyPages content, first-write order
	armed   map[uint32]byte // model image at ArmSMC, nil when disarmed
}

// modelPages are the pages the test touches: low pages of each region,
// pairs that share a lookaside slot (0x10/0x50, 0x1000/0x1040), the
// page below a region boundary and the top page of the address space.
var modelPages = []uint32{0x10, 0x11, 0x50, 0x1000, 0x1040, 0x1fff, 0x2000, 0xf000, 0xfffff}

func init() {
	if lookasideSlot(0x10) != lookasideSlot(0x50) || lookasideSlot(0x1000) != lookasideSlot(0x1040) {
		panic("modelPages no longer contains slot-sharing pairs")
	}
}

func (mm *modelMem) store8(addr uint32, b byte) {
	mm.bytes[addr] = b
	if key := addr >> PageBits; mm.tracked[key] {
		for _, k := range mm.dirty {
			if k == key {
				return
			}
		}
		mm.dirty = append(mm.dirty, key)
	}
}

func (mm *modelMem) store32(addr, v uint32) {
	for i := uint32(0); i < 4; i++ {
		mm.store8(addr+i, byte(v>>(8*i)))
	}
}

func (mm *modelMem) load32(addr uint32) uint32 {
	var v uint32
	for i := uint32(0); i < 4; i++ {
		v |= uint32(mm.bytes[addr+i]) << (8 * i)
	}
	return v
}

// check compares every byte the model knows of, and the words around
// every page edge, through both read paths.
func (mm *modelMem) check(t *testing.T, why string) {
	t.Helper()
	for addr, want := range mm.bytes {
		if got := mm.m.Read8(addr); got != want {
			t.Fatalf("%s: Read8(%#x) = %#x, model %#x", why, addr, got, want)
		}
	}
	for _, key := range modelPages {
		base := key << PageBits
		for _, off := range []uint32{0, 4, PageSize - 8, PageSize - 4, PageSize - 3, PageSize - 1} {
			if got, want := mm.m.Read32(base+off), mm.load32(base+off); got != want {
				t.Fatalf("%s: Read32(%#x) = %#x, model %#x", why, base+off, got, want)
			}
		}
	}
}

func copyBytes(src map[uint32]byte, keep func(addr uint32) bool) map[uint32]byte {
	out := make(map[uint32]byte, len(src))
	for a, b := range src {
		if keep(a) {
			out[a] = b
		}
	}
	return out
}

func TestLookasideAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		addr := func() uint32 {
			base := modelPages[r.Intn(len(modelPages))] << PageBits
			switch r.Intn(4) {
			case 0:
				return base + uint32(PageSize-1-r.Intn(6)) // at and across the page edge
			case 1:
				return base + uint32(r.Intn(8))
			}
			return base + uint32(r.Intn(PageSize))
		}
		limit := func() uint32 { return modelPages[r.Intn(len(modelPages))] << PageBits }
		family := []*modelMem{{m: New(), bytes: map[uint32]byte{}, tracked: map[uint32]bool{}}}
		for step := 0; step < 600; step++ {
			mm := family[r.Intn(len(family))]
			why := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := r.Intn(22); {
			case op < 3:
				a := addr()
				if got, want := mm.m.Read8(a), mm.bytes[a]; got != want {
					t.Fatalf("%s: Read8(%#x) = %#x, model %#x", why, a, got, want)
				}
			case op < 7:
				a := addr()
				if got, want := mm.m.Read32(a), mm.load32(a); got != want {
					t.Fatalf("%s: Read32(%#x) = %#x, model %#x", why, a, got, want)
				}
			case op < 9:
				a, b := addr(), byte(r.Intn(256))
				mm.m.Write8(a, b)
				mm.store8(a, b)
			case op < 13:
				a, v := addr(), r.Uint32()
				mm.m.Write32(a, v)
				mm.store32(a, v)
			case op < 14:
				a := addr()
				buf := make([]byte, r.Intn(12))
				r.Read(buf)
				mm.m.Write8s(a, buf)
				for i, b := range buf {
					mm.store8(a+uint32(i), b)
				}
			case op < 15:
				switch r.Intn(3) {
				case 0:
					mm.m.DisarmSMC()
					mm.armed = nil
					mm.m.Reset()
					mm.bytes = map[uint32]byte{}
				case 1:
					c := &modelMem{m: mm.m.Clone(), bytes: copyBytes(mm.bytes, func(uint32) bool { return true }), tracked: map[uint32]bool{}}
					family = append(family, c)
				case 2:
					l := limit()
					c := &modelMem{m: mm.m.CloneBelow(l), bytes: copyBytes(mm.bytes, func(a uint32) bool { return a < l }), tracked: map[uint32]bool{}}
					family = append(family, c)
				}
			case op < 16:
				src, l := family[r.Intn(len(family))], limit()
				if src == mm {
					break
				}
				mm.m.DisarmSMC()
				mm.armed = nil
				before := mm.bytes
				mm.m.RestoreBelow(src.m, l)
				mm.bytes = copyBytes(before, func(a uint32) bool { return a >= l })
				for a, b := range src.bytes {
					if a < l {
						mm.bytes[a] = b
					}
				}
				// A restore that changes a tracked page dirties it, in map
				// order: fold the expectation in sorted, compare sorted below.
				var changed []uint32
				for key := range mm.tracked {
					if key<<PageBits >= l {
						continue
					}
					for off := uint32(0); off < PageSize; off++ {
						if a := key<<PageBits + off; before[a] != mm.bytes[a] {
							changed = append(changed, key)
							break
						}
					}
				}
				sort.Slice(changed, func(i, j int) bool { return changed[i] < changed[j] })
				for _, key := range changed {
					mm.store8(key<<PageBits, mm.bytes[key<<PageBits])
				}
			case op < 17:
				if !mm.m.WriteTrackingEnabled() {
					mm.m.EnableWriteTracking()
				}
				key := modelPages[r.Intn(len(modelPages)-1)] // TrackRange sizes a bitmap by key: leave the top page out
				mm.m.TrackRange(key<<PageBits+uint32(r.Intn(PageSize)), key<<PageBits+PageSize)
				mm.tracked[key] = true
			case op < 18:
				got, want := append([]uint32(nil), mm.m.TakeDirtyPages()...), mm.dirty
				sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
				sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: dirty pages %x, model %x", why, got, want)
				}
				mm.dirty = nil
			case op < 19:
				if mm.m.WriteTrackingEnabled() {
					mm.m.ArmSMC(true, nil)
					mm.armed = copyBytes(mm.bytes, func(uint32) bool { return true })
				}
			case op < 21:
				// A word store through Frame, as the host CPU makes one.
				base := modelPages[r.Intn(len(modelPages))] << PageBits
				if r.Intn(8) == 0 {
					base += uint32(4 * (1 + r.Intn(8))) // not page-aligned
				}
				frameStep(t, why, mm, base, uint32(r.Intn(PageSize-3)), r.Uint32())
			default:
				if mm.armed != nil {
					mm.m.RollbackJournal()
					// Bytes first stored since the arm read zero again: keep
					// them in the model so the checks look at them.
					for a := range mm.bytes {
						if _, ok := mm.armed[a]; !ok {
							mm.armed[a] = 0
						}
					}
					mm.bytes, mm.armed = mm.armed, nil
				}
			}
			if step%40 == 39 {
				for i, f := range family {
					f.check(t, fmt.Sprintf("%s, family member %d", why, i))
				}
			}
		}
		for i, f := range family {
			f.check(t, fmt.Sprintf("seed %d end, family member %d", seed, i))
		}
	}
}

// frameStep asks mm's memory for the frame page at base and checks the
// answer against the rule: a page exactly when base is page-aligned, the
// memory is an execution image, the page exists and no tracked range
// reaches it, and the journal flag exactly when the journal is armed.
// With a page, it stores v at off through it, journaling like the host
// CPU does, and folds the store into the model.
func frameStep(t *testing.T, why string, mm *modelMem, base, off, v uint32) {
	t.Helper()
	p, journal := mm.m.Frame(base)
	var wt *writeTracker
	if mm.m.hot != nil {
		wt = mm.m.hot.wt
	}
	want := base&pageMask == 0 && mm.m.hot != nil && mm.m.pages[base>>PageBits] != nil && (wt == nil || base >= wt.limit)
	if (p != nil) != want {
		t.Fatalf("%s: Frame(%#x) = %p, want a page %v", why, base, p, want)
	}
	if p == nil {
		return
	}
	if p != mm.m.pages[base>>PageBits] || journal != (wt != nil && wt.journalOn) {
		t.Fatalf("%s: Frame(%#x) returned a foreign page or journal flag %v", why, base, journal)
	}
	w := p[off : off+4]
	if journal {
		mm.m.Journal32(base+off, binary.LittleEndian.Uint32(w))
	}
	binary.LittleEndian.PutUint32(w, v)
	mm.store32(base+off, v)
}

// TestCloneSharesNoPage is the direct form of the clone half of the
// property: after Clone and CloneBelow no page pointer is common to
// source and copy, and the copies carry no lookaside and no tracker.
func TestCloneSharesNoPage(t *testing.T) {
	m := New()
	m.EnableWriteTracking()
	for _, key := range modelPages {
		m.Write32(key<<PageBits+8, key)
		m.Read32(key<<PageBits + 8) // the source's lookaside is warm
	}
	for name, c := range map[string]*Memory{"Clone": m.Clone(), "CloneBelow": m.CloneBelow(0x2000 << PageBits)} {
		if c.hot != nil {
			t.Errorf("%s carries hot state", name)
		}
		for key, p := range c.pages {
			if p == m.pages[key] {
				t.Errorf("%s shares page %#x with its source", name, key)
			}
			if *p != *m.pages[key] {
				t.Errorf("%s page %#x differs from its source", name, key)
			}
		}
	}
}
