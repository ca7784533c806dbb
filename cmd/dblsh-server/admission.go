package main

import (
	"context"
	"errors"
)

// errShed reports that a request was refused at admission: every execution
// slot is busy and the wait queue is at budget. The caller answers 429
// with Retry-After rather than letting unbounded waiters pile up — under
// sustained overload the queue would otherwise grow without bound and
// every request would eventually time out, in-budget ones included.
var errShed = errors.New("server overloaded")

// limiter is the admission controller: a semaphore of maxInflight
// execution slots plus a bounded wait queue. A request that finds a free
// slot proceeds; one that would wait joins the queue if it is under
// budget, or is shed immediately. A nil limiter admits everything.
type limiter struct {
	slots chan struct{}
	queue chan struct{} // its capacity is the queue budget; a token held while waiting
}

// newLimiter returns a limiter with maxInflight execution slots and a
// maxQueue-deep wait queue, or nil (unlimited) when maxInflight is 0.
func newLimiter(maxInflight, maxQueue int) *limiter {
	if maxInflight <= 0 {
		return nil
	}
	return &limiter{
		slots: make(chan struct{}, maxInflight),
		queue: make(chan struct{}, maxQueue),
	}
}

// acquire takes an execution slot, waiting in the bounded queue if none is
// free. It returns errShed when the queue is at budget, or ctx.Err() when
// the caller's context expires while queued. A nil error means the caller
// holds a slot and must release it.
func (l *limiter) acquire(ctx context.Context) error {
	if l == nil {
		return nil
	}
	select {
	case l.slots <- struct{}{}:
		return nil
	default:
	}
	// No free slot: join the wait queue if it has room.
	select {
	case l.queue <- struct{}{}:
	default:
		return errShed
	}
	defer func() { <-l.queue }()
	select {
	case l.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release returns an execution slot taken by a successful acquire.
func (l *limiter) release() {
	if l == nil {
		return
	}
	<-l.slots
}

// queued reports how many requests are currently waiting for a slot.
func (l *limiter) queued() int {
	if l == nil {
		return 0
	}
	return len(l.queue)
}

// inflight reports how many execution slots are currently held.
func (l *limiter) inflight() int {
	if l == nil {
		return 0
	}
	return len(l.slots)
}
