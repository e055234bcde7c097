package mem

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// The model-based test of JournalWrites, in the style of
// TestLookasideAgainstModel: random byte, word and page-straddling
// stores — many of them to a few hot addresses, so one byte is stored
// repeatedly and at both widths — between arm, rollback and re-arm,
// against a map[uint32]byte image. At every probe the write set must be
// exactly the bytes the model saw stored since the arm, below the
// limit, ascending, each with its arm-time and its current value; after
// a rollback the image must be the arm-time image and the set empty.
func TestJournalWritesAgainstModel(t *testing.T) {
	pages := []uint32{0x10, 0x11, 0x50, 0x1000, 0xf000}
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		hot := make([]uint32, 6)
		for i := range hot {
			hot[i] = pages[r.Intn(len(pages))]<<PageBits + uint32(r.Intn(PageSize))
		}
		addr := func() uint32 {
			switch r.Intn(4) {
			case 0:
				return pages[r.Intn(len(pages))]<<PageBits + uint32(PageSize-1-r.Intn(6)) // at and across the edge
			case 1:
				return pages[r.Intn(len(pages))]<<PageBits + uint32(r.Intn(PageSize))
			}
			return hot[r.Intn(len(hot))] + uint32(r.Intn(3)) // overlapping, unaligned
		}
		m := New()
		m.EnableWriteTracking()
		image := map[uint32]byte{} // absent: zero
		var armed map[uint32]byte  // image at ArmSMC; nil while disarmed
		stored := map[uint32]bool{}
		store8 := func(a uint32, b byte) {
			image[a] = b
			if armed != nil {
				stored[a] = true
			}
		}
		probe := func(why string) {
			limit := pages[r.Intn(len(pages))]<<PageBits + PageSize
			prefix := []WriteByte{{Addr: 0xffffffff, Old: 1, New: 2}}
			ws := m.JournalWrites(prefix, limit)
			if ws[0] != prefix[0] {
				t.Fatalf("%s: JournalWrites overwrote dst's prefix: %+v", why, ws[0])
			}
			ws = ws[1:]
			var want []uint32
			for a := range stored {
				if a < limit {
					want = append(want, a)
				}
			}
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			if len(ws) != len(want) {
				t.Fatalf("%s: %d bytes in the write set below %#x, model stored %d", why, len(ws), limit, len(want))
			}
			for i, w := range ws {
				if w.Addr != want[i] {
					t.Fatalf("%s: write set[%d] is %#x, model %#x", why, i, w.Addr, want[i])
				}
				if w.Old != armed[w.Addr] || w.New != image[w.Addr] {
					t.Fatalf("%s: %#x journaled %#x -> %#x, model %#x -> %#x",
						why, w.Addr, w.Old, w.New, armed[w.Addr], image[w.Addr])
				}
			}
		}
		for step := 0; step < 500; step++ {
			why := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := r.Intn(20); {
			case op < 6:
				a, b := addr(), byte(r.Intn(256))
				m.Write8(a, b)
				store8(a, b)
			case op < 14:
				a, v := addr(), r.Uint32()
				m.Write32(a, v)
				for i := uint32(0); i < 4; i++ {
					store8(a+i, byte(v>>(8*i)))
				}
			case op < 15:
				a := addr()
				buf := make([]byte, r.Intn(10))
				r.Read(buf)
				m.Write8s(a, buf)
				for i, b := range buf {
					store8(a+uint32(i), b)
				}
			case op < 17:
				probe(why)
			case op < 18:
				m.ArmSMC(true, nil) // re-arming restarts the journal
				armed, stored = make(map[uint32]byte, len(image)), map[uint32]bool{}
				for a, b := range image {
					armed[a] = b
				}
			case op < 19:
				if armed == nil {
					break
				}
				probe(why + " before rollback")
				m.RollbackJournal()
				image, armed, stored = armed, nil, map[uint32]bool{}
				for a, want := range image {
					if got := m.Read8(a); got != want {
						t.Fatalf("%s: after rollback Read8(%#x) = %#x, arm-time image %#x", why, a, got, want)
					}
				}
				probe(why + " after rollback")
			default:
				m.DisarmSMC()
				armed, stored = nil, map[uint32]bool{}
			}
		}
		for a, want := range image {
			if got := m.Read8(a); got != want {
				t.Fatalf("seed %d end: Read8(%#x) = %#x, model %#x", seed, a, got, want)
			}
		}
	}
}

// TestJournalWritesEdges: no tracker and no armed journal give back dst
// untouched; a journal armed without self ranges — the reference pass
// of a shadow check — records stores into a tracked page and dirties
// it, but reports no self hit, whatever ranges were armed before.
func TestJournalWritesEdges(t *testing.T) {
	if ws := New().JournalWrites(nil, 0xffff_f000); ws != nil {
		t.Fatalf("untracked memory returned a write set: %v", ws)
	}
	m := New()
	m.EnableWriteTracking()
	m.TrackRange(0x10000, 0x10010)
	m.Write32(0x10004, 7)
	m.TakeDirtyPages()
	if ws := m.JournalWrites(nil, 0xffff_f000); ws != nil {
		t.Fatalf("disarmed journal returned a write set: %v", ws)
	}
	m.ArmSMC(true, [][2]uint32{{0x10000, 0x10010}})
	m.ArmSMC(true, nil)
	m.Write32(0x10004, 9)
	m.Write8(0x10005, 1)
	if m.SMCSelfHit() {
		t.Fatal("a journal armed without self ranges reported a self hit")
	}
	if !m.CodeDirty() {
		t.Fatal("store into a tracked page left it clean")
	}
	want := []WriteByte{{0x10004, 7, 9}, {0x10005, 0, 1}, {0x10006, 0, 0}, {0x10007, 0, 0}}
	if got := m.JournalWrites(nil, 0x11000); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("write set %v, want %v", got, want)
	}
	if got := m.JournalWrites(nil, 0x10000); len(got) != 0 {
		t.Fatalf("write set below the page: %v", got)
	}
	m.RollbackJournal()
	m.ClearDirty()
	if m.Read32(0x10004) != 7 || m.CodeDirty() || m.JournalLen() != 0 {
		t.Fatal("rollback and ClearDirty left a trace of the pass")
	}
}
