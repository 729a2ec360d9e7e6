package service

import (
	"context"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"grover/internal/telemetry"
)

// Pool bounds the number of concurrently executing compilation/tuning
// jobs. The VM already parallelizes one launch across cores, so running
// an unbounded number of simultaneous simulations would thrash the
// machine; under heavy traffic excess requests queue on the semaphore
// (HTTP handler goroutines block cheaply) instead. An optional queue
// bound sheds work beyond it (RunCtx returns a 503-coded error) so a
// saturated daemon degrades by refusing instead of accumulating
// unbounded blocked handlers.
type Pool struct {
	sem      chan struct{}
	workers  int
	maxQueue int
	waitObs  func(time.Duration)

	active    atomic.Int64
	queued    atomic.Int64
	completed atomic.Int64
	shed      atomic.Int64
}

// NewPool creates a pool with the given number of slots; workers <= 0
// sizes it to GOMAXPROCS, the most the VM can usefully run at once.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{sem: make(chan struct{}, workers), workers: workers}
}

// SetMaxQueue bounds the number of jobs allowed to wait for a slot;
// n <= 0 (the default) queues without bound. Call before serving.
func (p *Pool) SetMaxQueue(n int) { p.maxQueue = n }

// SetWaitObserver installs a callback receiving each job's queue wait
// (time between submission and slot acquisition). Call before serving;
// the server wires the queue-wait histogram here.
func (p *Pool) SetWaitObserver(f func(time.Duration)) { p.waitObs = f }

// errOverloaded is the shed verdict: the queue bound is reached and the
// job was refused rather than queued.
var errOverloaded = &apiError{
	code: http.StatusServiceUnavailable,
	msg:  "server overloaded: job queue is full",
}

// acquire blocks until a slot is free, recording the queue wait as a
// "queue.wait" span on the context's trace and into the wait observer.
func (p *Pool) acquire(ctx context.Context) {
	p.queued.Add(1)
	end := telemetry.StartSpan(ctx, "queue.wait")
	waitStart := time.Now()
	p.sem <- struct{}{}
	end()
	if f := p.waitObs; f != nil {
		f(time.Since(waitStart))
	}
	p.queued.Add(-1)
	p.active.Add(1)
}

func (p *Pool) release() {
	p.active.Add(-1)
	p.completed.Add(1)
	<-p.sem
}

// RunCtx executes fn in the caller's goroutine once a slot is free,
// blocking while the pool is saturated. The queue wait lands as a
// "queue.wait" span on ctx's trace, and when the queue bound is reached
// the job is shed — fn never runs and the returned error carries HTTP
// status 503.
func (p *Pool) RunCtx(ctx context.Context, fn func()) error {
	if p.maxQueue > 0 && p.queued.Load() >= int64(p.maxQueue) {
		p.shed.Add(1)
		return errOverloaded
	}
	p.acquire(ctx)
	defer p.release()
	fn()
	return nil
}

// PoolStats is a snapshot of pool occupancy for the stats endpoint.
type PoolStats struct {
	// Workers is the slot count.
	Workers int `json:"workers"`
	// Active jobs hold a slot; Queued jobs are waiting for one.
	Active int64 `json:"active"`
	Queued int64 `json:"queued"`
	// Completed counts finished jobs.
	Completed int64 `json:"completed"`
	// Shed counts jobs refused by the queue bound (503 responses).
	Shed int64 `json:"shed"`
}

// Healthy reports readiness: either a slot is free right now, or the
// pool is saturated but making progress (jobs are actively running, not
// wedged). Only a pool whose slots are all taken with nothing running —
// which cannot happen short of corruption — reports unhealthy.
func (p *Pool) Healthy() bool {
	select {
	case p.sem <- struct{}{}:
		<-p.sem
		return true
	default:
		return p.active.Load() > 0
	}
}

// Snapshot returns the current occupancy.
func (p *Pool) Snapshot() PoolStats {
	return PoolStats{
		Workers:   p.workers,
		Active:    p.active.Load(),
		Queued:    p.queued.Load(),
		Completed: p.completed.Load(),
		Shed:      p.shed.Load(),
	}
}
