package service

import (
	"context"
	"errors"
	"net/http"
	"sync/atomic"
)

// errOverloaded is returned by the gate when the bounded queue is full;
// admit maps it to 429 + Retry-After.
var errOverloaded = errors.New("service: admission queue full")

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

// acquire admits the caller or refuses. On success it returns a release
// function the caller must invoke when the verification finishes. A
// full queue returns errOverloaded without blocking; a context
// cancellation while queued returns the context error.
func (g *gate) acquire(ctx context.Context) (release func(), err error) {
	if g.pending.Add(1) > g.limit {
		g.pending.Add(-1)
		return nil, errOverloaded
	}
	select {
	case g.slots <- struct{}{}:
		return func() {
			<-g.slots
			g.pending.Add(-1)
		}, nil
	case <-ctx.Done():
		g.pending.Add(-1)
		return nil, ctx.Err()
	}
}

// admit takes a verification slot for r. When the gate refuses, admit
// answers the request itself (429 with Retry-After when the queue is
// full, 499 when the client gave up while queued) and reports false;
// otherwise the caller must call release when its verification ends.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	release, err := s.gate.acquire(r.Context())
	switch {
	case err == nil:
		return release, true
	case errors.Is(err, errOverloaded):
		s.met.rejected.Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "verification queue is full; retry later")
	default:
		s.met.errors.Inc()
		writeError(w, statusClientClosedRequest, "client canceled while queued")
	}
	return nil, false
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
