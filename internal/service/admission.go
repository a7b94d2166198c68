package service

import (
	"context"
	"net/http"
	"sync/atomic"
)

// gate is the admission controller: at most `workers` verifications run
// concurrently, at most `queue` more wait for a slot, and everything
// beyond that is refused immediately so overload sheds load instead of
// accumulating unbounded goroutines. In-flight work is never dropped —
// the gate only refuses at the door.
type gate struct {
	slots   chan struct{}
	pending atomic.Int64 // admitted requests: waiting + running
	limit   int64        // workers + queue depth
}

func newGate(workers, queue int) *gate {
	return &gate{
		slots: make(chan struct{}, workers),
		limit: int64(workers + queue),
	}
}

// acquire admits the caller, or answers why not: 429 without blocking
// when the queue is full, 499 when ctx ends while queued. On nil the
// caller holds a slot and must call release when its verification
// finishes.
func (g *gate) acquire(ctx context.Context) error {
	if g.pending.Add(1) > g.limit {
		g.pending.Add(-1)
		return &httpError{http.StatusTooManyRequests, "verification queue is full; retry later"}
	}
	select {
	case g.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		g.pending.Add(-1)
		return &httpError{statusClientClosedRequest, "client canceled while queued"}
	}
}

// release returns the slot a successful acquire took.
func (g *gate) release() {
	<-g.slots
	g.pending.Add(-1)
}

// queued returns how many admitted requests are waiting for a worker
// slot (the queue-depth gauge).
func (g *gate) queued() int64 {
	q := g.pending.Load() - int64(len(g.slots))
	if q < 0 {
		q = 0
	}
	return q
}

// running returns how many requests hold a worker slot.
func (g *gate) running() int64 { return int64(len(g.slots)) }
