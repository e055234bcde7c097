package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
)

// EventKind tags one trace-ring event.
type EventKind uint8

// Trace event kinds recorded by the DBT execution loop.
const (
	// EvDispatch is a block entry that went through the dispatcher's
	// code-cache lookup.
	EvDispatch EventKind = iota
	// EvChained is a block entry reached through a patched direct link,
	// bypassing the dispatcher.
	EvChained
	// EvTranslate is a demand translation of a new block.
	EvTranslate
	// EvInvalidate is a cache invalidation at the event's pc.
	EvInvalidate
	// EvDiverge is a shadow-verification divergence detected at the
	// event's pc (the entry of the mis-translated block).
	EvDiverge
	// EvFallback is a block executed by the reference interpreter
	// because translation failed persistently at the event's pc.
	EvFallback
	// EvSuperblock is an entry into a hot-trace superblock (the event's
	// pc is the trace head); it replaces the EvDispatch/EvChained event
	// the entry would otherwise record.
	EvSuperblock
	// EvInterp is a block entry run on the reference interpreter because
	// the block had not yet run often enough to be translated
	// (interpret-first; see dbt.Config.TranslateFirst).
	EvInterp
)

// String names the kind for dumps.
func (k EventKind) String() string {
	switch k {
	case EvDispatch:
		return "dispatch"
	case EvChained:
		return "chained"
	case EvTranslate:
		return "translate"
	case EvInvalidate:
		return "invalidate"
	case EvDiverge:
		return "diverge"
	case EvFallback:
		return "fallback"
	case EvSuperblock:
		return "superblock"
	case EvInterp:
		return "interp"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one recorded block transition.
type Event struct {
	Seq  uint64    `json:"seq"` // global recording order, starts at 1
	Kind EventKind `json:"kind"`
	PC   uint32    `json:"pc"`
}

// TraceRing holds the last N execution events. Recording takes a
// mutex, so the ring is only wired up when tracing is explicitly
// requested (dbt.Config.Trace / paradbt -trace); the metrics-disabled
// hot path never touches it. Dump-on-demand (the /trace endpoint, the
// panic handler in dbt.Engine.Run) may run concurrently with the
// recording goroutine.
type TraceRing struct {
	mu  sync.Mutex
	buf []Event
	seq uint64 // total events ever recorded
}

// NewTraceRing returns a ring holding the last n events (n >= 1).
func NewTraceRing(n int) *TraceRing {
	if n < 1 {
		n = 1
	}
	return &TraceRing{buf: make([]Event, n)}
}

// Record appends one event, evicting the oldest when full.
func (t *TraceRing) Record(kind EventKind, pc uint32) {
	t.mu.Lock()
	t.seq++
	t.buf[(t.seq-1)%uint64(len(t.buf))] = Event{Seq: t.seq, Kind: kind, PC: pc}
	t.mu.Unlock()
}

// Len reports how many events the ring currently holds.
func (t *TraceRing) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.seq < uint64(len(t.buf)) {
		return int(t.seq)
	}
	return len(t.buf)
}

// Total reports how many events were ever recorded (including evicted
// ones); Total - Len is the eviction count.
func (t *TraceRing) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// Events returns the retained events, oldest first.
func (t *TraceRing) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := uint64(len(t.buf))
	if t.seq < n {
		out := make([]Event, t.seq)
		copy(out, t.buf[:t.seq])
		return out
	}
	out := make([]Event, n)
	start := t.seq % n // oldest slot
	copy(out, t.buf[start:])
	copy(out[n-start:], t.buf[:start])
	return out
}

// Dump writes a human-readable listing, oldest first: one
// "seq kind pc" line per event, plus a header noting evictions. This is
// the format docs/OBSERVABILITY.md documents for post-mortem reading.
func (t *TraceRing) Dump(w io.Writer) {
	evs := t.Events()
	total := t.Total()
	fmt.Fprintf(w, "trace ring: %d event(s) retained, %d recorded\n", len(evs), total)
	for _, e := range evs {
		fmt.Fprintf(w, "%8d %-10s pc=%#x\n", e.Seq, e.Kind, e.PC)
	}
}

// String renders the dump as a string.
func (t *TraceRing) String() string {
	var b strings.Builder
	t.Dump(&b)
	return b.String()
}
