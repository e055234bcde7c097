package mem

import "testing"

var (
	sink32    uint32
	sinkClone *Memory
)

// BenchmarkRead32 is the load path over a small image: every access
// after the first per page is a lookaside hit.
func BenchmarkRead32(b *testing.B) {
	m := New()
	const base, words = 0x10000, 2048
	for i := uint32(0); i < words; i++ {
		m.Write32(base+i*4, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink32 += m.Read32(base + uint32(i%words)*4)
	}
}

// BenchmarkWrite32 is the store path, plain and with the tracker
// installed, armed (journaling) and disarmed.
func BenchmarkWrite32(b *testing.B) {
	const base, words = 0x0100_0000, 4096
	arms := []struct {
		name string
		prep func(m *Memory)
	}{
		{"plain", func(*Memory) {}},
		{"tracked", func(m *Memory) {
			m.EnableWriteTracking()
			m.TrackRange(0x10000, 0x12000)
		}},
		{"journaled", func(m *Memory) {
			m.EnableWriteTracking()
			m.TrackRange(0x10000, 0x12000)
			m.ArmSMC(true, nil)
		}},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			m := New()
			arm.prep(m)
			for i := 0; i < b.N; i++ {
				if i%words == 0 && m.JournalLen() > 0 {
					m.ArmSMC(true, nil)
				}
				m.Write32(base+uint32(i%words)*4, uint32(i))
			}
		})
	}
}

// BenchmarkCloneBelow is the snapshot shadow verification and the
// speculative workers take: a clone pays for its pages and its map and
// nothing else (no lookaside, no tracker).
func BenchmarkCloneBelow(b *testing.B) {
	m := New()
	for _, a := range []uint32{0x10000, 0x11000, 0x0100_0000, 0x0100_1000, 0x0200_0000, 0x02ff_f000, 0x0f00_0000} {
		m.Write32(a, 1)
	}
	m.EnableWriteTracking()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkClone = m.CloneBelow(0x0f00_0000)
	}
}
