package dbt

import (
	"sync"
	"sync/atomic"
	"testing"

	"paramdbt/internal/core"
)

// TestPoolPriorityBackpressure pins the executor's queueing contract on
// one worker: hi jobs run before any queued lo job, and a full queue
// refuses instead of blocking. Runs under -race in make race / race-obs.
func TestPoolPriorityBackpressure(t *testing.T) {
	p := newPool(1, 4, 4)
	gate, parked := make(chan struct{}), make(chan struct{})
	if !p.submit(p.hi, func(*txctx) { close(parked); <-gate }) {
		t.Fatal("empty hi queue refused a job")
	}
	<-parked // the lone worker is now inside the gate job; queues are ours

	var mu sync.Mutex
	var order []string
	var ran sync.WaitGroup
	note := func(s string) job {
		return func(tx *txctx) {
			defer ran.Done()
			if tx == nil {
				t.Error("job ran without a worker txctx")
			}
			mu.Lock()
			order = append(order, s)
			mu.Unlock()
		}
	}
	ran.Add(8)
	for i := 0; i < 4; i++ {
		if !p.submit(p.lo, note("lo")) {
			t.Fatalf("lo submit %d refused below capacity", i)
		}
	}
	for i := 0; i < 4; i++ {
		if !p.submit(p.hi, note("hi")) {
			t.Fatalf("hi submit %d refused below capacity", i)
		}
	}
	if p.submit(p.hi, func(*txctx) {}) || p.submit(p.lo, func(*txctx) {}) {
		t.Fatal("full queue accepted a job")
	}
	close(gate)
	ran.Wait()
	p.close()

	for i, s := range order {
		if s == "hi" && i >= 4 {
			t.Fatalf("hi job ran after a lo job: %v", order)
		}
	}

	// With no queue at all (depth 0) submit always refuses.
	q := newPool(0, 2, 0)
	if q.submit(q.lo, func(*txctx) {}) {
		t.Fatal("depth-0 queue accepted a job")
	}
	q.close()
}

// TestPoolCloseAbandonsQueuedHi: close waits only for the job a worker
// is already running — the hi jobs still queued behind
// it (an engine's superblock formations at Invalidate / SMC fence / Run
// exit, whose results would be discarded anyway) never start.
func TestPoolCloseAbandonsQueuedHi(t *testing.T) {
	p := newPool(1, 4, 0)
	gate, parked := make(chan struct{}), make(chan struct{})
	p.submit(p.hi, func(*txctx) { close(parked); <-gate })
	<-parked
	var ran atomic.Int64
	for i := 0; i < 3; i++ {
		if !p.submit(p.hi, func(*txctx) { ran.Add(1) }) {
			t.Fatalf("hi submit %d refused below capacity", i)
		}
	}
	closed := make(chan struct{})
	go func() { p.close(); close(closed) }()
	<-p.quit // close is now waiting on the gate job
	close(gate)
	<-closed
	if n := ran.Load(); n != 0 {
		t.Fatalf("close ran %d queued hi jobs", n)
	}
}

// specLoser is a fault injector that loses every speculative job.
type specLoser struct{ polls atomic.Int64 }

func (*specLoser) TranslatePanic(uint32) bool  { return false }
func (*specLoser) DecodeError(uint32) bool     { return false }
func (*specLoser) DropCacheShard() (int, bool) { return 0, false }
func (f *specLoser) FailSpecWorker() bool      { f.polls.Add(1); return true }

// TestSpecFaultsNeverStallSuperblocks: speculation and superblock
// formation share the engine's pool, so an injected speculative-worker
// failure must cost only the speculative job — with every one of them
// lost, background traces still form and the result is unchanged.
func TestSpecFaultsNeverStallSuperblocks(t *testing.T) {
	prog := hotProgramN(20000)
	c := compileT(t, prog)
	_, par := learnRules(t, prog, core.Config{Opcode: true, AddrMode: true})
	want, wantStats := runProgram(t, c, Config{Rules: par, DelegateFlags: true, NoChain: true})

	f := &specLoser{}
	got, stats := runProgram(t, c, Config{Rules: par, DelegateFlags: true,
		HotThreshold: 2, TranslateWorkers: 1, Faults: f})
	sameResult(t, want, got, "async formation under spec faults")
	if stats.GuestExec != wantStats.GuestExec {
		t.Fatalf("GuestExec = %d, unchained retired %d", stats.GuestExec, wantStats.GuestExec)
	}
	if f.polls.Load() == 0 {
		t.Fatal("no speculative job polled the injector")
	}
	if stats.TracesFormed == 0 || stats.SuperblockExecs == 0 {
		t.Fatalf("superblock formation stalled behind failed speculation: %+v", stats)
	}
}
