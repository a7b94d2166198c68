package registry

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"github.com/flashmark/flashmark/internal/wallclock"
)

// Remote is a client-side Store backend: every call becomes one wire
// round trip to an fmregistryd node. It pools idle connections, applies
// a per-operation deadline, and keeps the Store contract's error
// shapes:
//
//   - Enroll returns the node's error verbatim — enrollment is the
//     durability-bearing operation and must never fail silently.
//   - Lookup, SeenBefore and Stats fail open (not found / zero) when
//     the node is unreachable, because the Store interface has no error
//     channel on the read side; Errors() counts the degradations and
//     the *Err variants expose the cause for callers (the cluster
//     router) that can do better than fail-open.
//
// Remote is safe for concurrent use.
type Remote struct {
	addr string
	opts RemoteOptions
	idle chan *remoteConn

	errs   atomic.Int64
	closed atomic.Bool
}

// remoteIdleConns caps the idle connections a Remote keeps between
// calls.
const remoteIdleConns = 2

// RemoteOptions tunes a Remote. The zero value selects defaults.
type RemoteOptions struct {
	// Timeout bounds one round trip, dial included (0 selects 5s).
	Timeout time.Duration
	// Now supplies wall time for deadlines (nil selects wallclock.Now).
	Now func() time.Time
	// Dial overrides the transport — the fault-injection seam tests use
	// to wrap connections (nil selects net.Dial "tcp").
	Dial func(addr string) (net.Conn, error)
}

func (o RemoteOptions) withDefaults() RemoteOptions {
	if o.Timeout == 0 {
		o.Timeout = 5 * time.Second
	}
	if o.Now == nil {
		o.Now = wallclock.Now
	}
	if o.Dial == nil {
		o.Dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	return o
}

// OpError is an application-level refusal from the node (fenced
// primary, enrollment on a follower, replication rejection) — the node
// processed the request and said no, as opposed to a transport failure
// where the answer is unknown. The cluster router fails over only on
// transport errors; an OpError travels back to the caller.
type OpError struct{ Msg string }

func (e *OpError) Error() string { return "registry: remote: " + e.Msg }

// NewRemote returns a client for the node at addr. No connection is
// made until the first call.
func NewRemote(addr string, opts RemoteOptions) *Remote {
	opts = opts.withDefaults()
	return &Remote{addr: addr, opts: opts, idle: make(chan *remoteConn, remoteIdleConns)}
}

var _ Store = (*Remote)(nil)

// Addr returns the node address this client targets.
func (r *Remote) Addr() string { return r.addr }

// Errors returns how many read-side calls have failed open so far.
func (r *Remote) Errors() int64 { return r.errs.Load() }

// Close drops every pooled connection. In-flight calls finish; later
// calls dial fresh and fail if the node is gone.
func (r *Remote) Close() error {
	if !r.closed.CompareAndSwap(false, true) {
		return nil
	}
	for {
		select {
		case rc := <-r.idle:
			rc.Close()
		default:
			return nil
		}
	}
}

func (r *Remote) get() (*remoteConn, bool, error) {
	select {
	case rc := <-r.idle:
		return rc, true, nil
	default:
	}
	c, err := r.opts.Dial(r.addr)
	if err != nil {
		return nil, false, err
	}
	return newRemoteConn(c), false, nil
}

func (r *Remote) put(rc *remoteConn) {
	if r.closed.Load() {
		rc.Close()
		return
	}
	select {
	case r.idle <- rc:
	default:
		rc.Close()
	}
}

// do runs one round trip. decode runs while the connection is held (the
// response payload aliases the connection's read buffer). A transport
// failure on a *pooled* connection is retried exactly once on a fresh
// dial when retry is set: idle connections go stale across node
// restarts, and read-only operations are safe to reissue. Writes
// (enroll, promote) never auto-retry — their retry policy belongs to
// the cluster router, which knows about failover.
func (r *Remote) do(op Op, req []byte, retry bool, decode func(respOp Op, payload []byte) error) error {
	rc, pooled, err := r.get()
	if err != nil {
		return err
	}
	err = rc.roundtrip(r.opts.Now().Add(r.opts.Timeout), op, req, decode)
	if err == nil {
		r.put(rc)
		return nil
	}
	rc.Close()
	if _, refused := err.(*OpError); refused {
		return err // the node answered; nothing to retry
	}
	if !retry || !pooled {
		return err
	}
	c, derr := r.opts.Dial(r.addr)
	if derr != nil {
		return derr
	}
	rc = newRemoteConn(c)
	err = rc.roundtrip(r.opts.Now().Add(r.opts.Timeout), op, req, decode)
	if err != nil {
		rc.Close()
		return err
	}
	r.put(rc)
	return nil
}

// Ping asks the node for its role byte (RolePrimaryByte,
// RoleDegradedByte or RoleFollowerByte).
func (r *Remote) Ping() (byte, error) {
	var role byte
	err := r.do(OpPing, nil, true, func(op Op, p []byte) error {
		if op != OpOK || len(p) != 1 {
			return fmt.Errorf("registry: remote: bad ping response")
		}
		role = p[0]
		return nil
	})
	return role, err
}

// Enroll records one sighting on the node, returning after the node —
// and, through replication, its follower — has it durable.
func (r *Remote) Enroll(e Enrollment) (EnrollResult, error) {
	req, err := AppendWireEnrollment(nil, e)
	if err != nil {
		return EnrollResult{}, err
	}
	var res EnrollResult
	err = r.do(OpEnroll, req, false, func(op Op, p []byte) error {
		if op != OpOK {
			return respErr(op, p)
		}
		var derr error
		res, derr = DecodeWireEnrollResult(p)
		return derr
	})
	return res, err
}

// LookupErr is Lookup with the transport error exposed.
func (r *Remote) LookupErr(k Key) (LookupResult, bool, error) {
	req, err := AppendWireKey(nil, k)
	if err != nil {
		return LookupResult{}, false, err
	}
	var (
		res   LookupResult
		found bool
	)
	err = r.do(OpLookup, req, true, func(op Op, p []byte) error {
		if op != OpOK {
			return respErr(op, p)
		}
		if len(p) < 1 {
			return fmt.Errorf("registry: remote: empty lookup response")
		}
		if p[0] == 0 {
			return nil
		}
		var derr error
		res, derr = DecodeWireState(p[1:])
		found = derr == nil
		return derr
	})
	return res, found, err
}

// Lookup returns the node's view of a key, failing open to not-found
// when the node is unreachable.
func (r *Remote) Lookup(k Key) (LookupResult, bool) {
	res, found, err := r.LookupErr(k)
	if err != nil {
		r.errs.Add(1)
		return LookupResult{}, false
	}
	return res, found
}

// SeenBefore reports whether the key is on file, failing open to false
// when the node is unreachable.
func (r *Remote) SeenBefore(k Key) bool {
	req, err := AppendWireKey(nil, k)
	if err != nil {
		return false
	}
	var seen bool
	err = r.do(OpSeen, req, true, func(op Op, p []byte) error {
		if op != OpOK || len(p) != 1 {
			return respErr(op, p)
		}
		seen = p[0] != 0
		return nil
	})
	if err != nil {
		r.errs.Add(1)
		return false
	}
	return seen
}

// StatsErr is Stats with the transport error exposed.
func (r *Remote) StatsErr() (Stats, error) {
	var s Stats
	err := r.do(OpStats, nil, true, func(op Op, p []byte) error {
		if op != OpOK {
			return respErr(op, p)
		}
		var derr error
		s, derr = DecodeWireStats(p)
		return derr
	})
	return s, err
}

// Stats returns the node's counters, failing open to zero when the
// node is unreachable.
func (r *Remote) Stats() Stats {
	s, err := r.StatsErr()
	if err != nil {
		r.errs.Add(1)
		return Stats{}
	}
	return s
}

// LookupBatch resolves many keys in one round trip. found[i] reports
// whether keys[i] is on file; results[i] is only meaningful when it is.
func (r *Remote) LookupBatch(keys []Key) (results []LookupResult, found []bool, err error) {
	req := binary.LittleEndian.AppendUint32(nil, uint32(len(keys)))
	for _, k := range keys {
		if req, err = AppendWireKey(req, k); err != nil {
			return nil, nil, err
		}
	}
	results = make([]LookupResult, len(keys))
	found = make([]bool, len(keys))
	err = r.do(OpLookupBatch, req, true, func(op Op, p []byte) error {
		if op != OpOK {
			return respErr(op, p)
		}
		if len(p) < 4 {
			return fmt.Errorf("registry: remote: short batch response")
		}
		n := int(binary.LittleEndian.Uint32(p))
		if n != len(keys) {
			return fmt.Errorf("registry: remote: batch response has %d entries, want %d", n, len(keys))
		}
		off := 4
		for i := 0; i < n; i++ {
			if off >= len(p) {
				return fmt.Errorf("registry: remote: truncated batch response")
			}
			hit := p[off] != 0
			off++
			if !hit {
				continue
			}
			if off+4 > len(p) {
				return fmt.Errorf("registry: remote: truncated batch response")
			}
			entLen := int(binary.LittleEndian.Uint32(p[off:]))
			off += 4
			if off+entLen > len(p) {
				return fmt.Errorf("registry: remote: truncated batch response")
			}
			st, derr := DecodeWireState(p[off : off+entLen])
			if derr != nil {
				return derr
			}
			off += entLen
			results[i], found[i] = st, true
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return results, found, nil
}

// Promote tells a follower to start serving as primary. Idempotent on
// a node that already promoted itself.
func (r *Remote) Promote() error {
	return r.do(OpPromote, nil, false, func(op Op, p []byte) error {
		if op != OpOK {
			return respErr(op, p)
		}
		return nil
	})
}

func respErr(op Op, p []byte) error {
	if op == OpErr {
		return &OpError{Msg: string(p)}
	}
	return fmt.Errorf("registry: remote: unexpected response op %#x", byte(op))
}

// remoteConn is one pooled connection with its buffered reader/writer
// and a reusable read buffer.
type remoteConn struct {
	c   net.Conn
	br  *bufio.Reader
	bw  *bufio.Writer
	buf []byte
}

func newRemoteConn(c net.Conn) *remoteConn {
	return &remoteConn{c: c, br: bufio.NewReader(c), bw: bufio.NewWriter(c)}
}

func (rc *remoteConn) Close() { rc.c.Close() }

// roundtrip sends one request and decodes one response under deadline.
func (rc *remoteConn) roundtrip(deadline time.Time, op Op, req []byte, decode func(Op, []byte) error) error {
	if err := rc.c.SetDeadline(deadline); err != nil {
		return err
	}
	if err := WriteMessage(rc.bw, op, req); err != nil {
		return err
	}
	if err := rc.bw.Flush(); err != nil {
		return err
	}
	respOp, payload, err := ReadMessage(rc.br, rc.buf)
	if err != nil {
		return err
	}
	rc.buf = payload[:0]
	return decode(respOp, payload)
}
