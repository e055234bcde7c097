package dbt

import "sync"

// pool is an engine's background-translation executor: a fixed set of
// workers, each owning a txctx, fed by two bounded queues. hi jobs
// (superblock formation) always run before lo jobs (speculative
// successor translation). Submission never blocks — a full queue
// reports false and the caller drops the job.
//
// The pool is deliberately dumb: it knows nothing about caches,
// generations or budgets. Whether a finished job's result is still
// wanted is the submitter's problem (superblock results carry a cacheGen
// stamp; cache inserts are first-writer-wins), and a job must not block
// indefinitely or close waits on it forever.
type pool struct {
	hi, lo chan job
	quit   chan struct{}
	wg     sync.WaitGroup
}

// job is one unit of background work, run with the executing worker's
// translation scratch.
type job func(tx *txctx)

// newPool starts the workers. A zero depth makes that priority's queue
// refuse everything (a nil channel is never ready).
func newPool(workers, hiDepth, loDepth int) *pool {
	p := &pool{quit: make(chan struct{})}
	if hiDepth > 0 {
		p.hi = make(chan job, hiDepth)
	}
	if loDepth > 0 {
		p.lo = make(chan job, loDepth)
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.work()
	}
	return p
}

// submit offers j to q (p.hi or p.lo) without blocking and reports
// whether it was queued. Submitting to a closed pool is harmless: the
// job sits in a queue nobody reads.
func (p *pool) submit(q chan job, j job) bool {
	select {
	case q <- j:
		return true
	default:
		return false
	}
}

// close stops the workers and waits for the jobs they are running — so
// every cache insert a job makes is visible once close returns. Queued
// jobs are abandoned unrun (a worker checks for close before each job,
// so at most the one it is running finishes).
func (p *pool) close() {
	close(p.quit)
	p.wg.Wait()
}

func (p *pool) work() {
	defer p.wg.Done()
	var tx txctx
	for {
		// Closed: abandon whatever is still queued.
		select {
		case <-p.quit:
			return
		default:
		}
		// Strict priority: take a lo job only when no hi job is ready.
		select {
		case j := <-p.hi:
			j(&tx)
			continue
		default:
		}
		select {
		case j := <-p.hi:
			j(&tx)
		case j := <-p.lo:
			j(&tx)
		case <-p.quit:
		}
	}
}

// recoverTranslate runs one translation, converting a panic (a corrupted
// rule template mid-instantiation, an injected fault, a translator bug)
// into a *PanicError at pc — the single recovery wrapper every
// translation that must not take its goroutine down goes through: the
// guarded demand path (which retries and quarantines), the service's
// single-flight leader (which hands the error to every waiter) and every
// pool job (where the demand path owns real error reporting, so the
// error is simply dropped).
func recoverTranslate(pc uint32, f func() (*tblock, error)) (tb *tblock, err error) {
	defer func() {
		if r := recover(); r != nil {
			tb, err = nil, &PanicError{PC: pc, Cause: r}
		}
	}()
	return f()
}
