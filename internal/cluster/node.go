package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/flashmark/flashmark/internal/registry"
	"github.com/flashmark/flashmark/internal/wallclock"
)

// Role is a node's position in its shard's primary/follower pair.
type Role int32

const (
	// RolePrimary accepts client enrollments and replicates them.
	RolePrimary Role = iota
	// RoleFollower refuses client enrollments, applies the primary's
	// replication stream, and serves reads. OpPromote flips it to
	// RolePrimary — after which it refuses the old primary's stream,
	// fencing a partitioned ex-primary out of the write path.
	RoleFollower
)

// ErrFenced reports an enrollment refused by a primary whose required
// follower link is down: accepting it would let an acknowledged record
// exist on one disk only, which a failover could then forget.
var ErrFenced = errors.New("cluster: primary fenced: follower link is down, refusing enrollments")

// NodeConfig configures one registry node.
type NodeConfig struct {
	// Store is the node's durable backend (required).
	Store *registry.Durable
	// Role the node starts in (a follower can be promoted at runtime).
	Role Role
	// FollowerAddr, on a primary, is the follower this node replicates
	// to (empty runs the primary solo).
	FollowerAddr string
	// RequireFollower fences the write path while the follower link is
	// down: enrollments fail with ErrFenced instead of landing on one
	// disk. This is what makes failover promotion safe — every
	// acknowledged enrollment exists on both nodes.
	RequireFollower bool
	// Timeout bounds one replication round trip (0 selects 5s).
	Timeout time.Duration
	// ReconnectEvery is the follower-link retry cadence (0 selects
	// 250ms).
	ReconnectEvery time.Duration
	// Now supplies wall time for replication deadlines (nil selects
	// wallclock.Now).
	Now func() time.Time
	// Logf receives operational log lines (nil discards).
	Logf func(format string, args ...any)
	// Dial opens the replication link to the follower — the
	// fault-injection seam (nil selects net.Dial "tcp").
	Dial func(addr string) (net.Conn, error)
}

func (c NodeConfig) withDefaults() NodeConfig {
	if c.Timeout == 0 {
		c.Timeout = 5 * time.Second
	}
	if c.ReconnectEvery == 0 {
		c.ReconnectEvery = 250 * time.Millisecond
	}
	if c.Now == nil {
		c.Now = wallclock.Now
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.Dial == nil {
		c.Dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	return c
}

// Node is one registry shard member: a wire-protocol server around a
// registry.Durable, plus (on a primary) the replication client that
// keeps its follower in lockstep.
//
// Write-path ordering: enroll-and-forward, link establishment, and (on
// a follower) apply-replication and promotion all serialize on one
// mutex. That single lock is the linearizability argument the fault
// matrix leans on — at every moment exactly one store is accepting the
// shard's writes, every acknowledged record is on both disks, and a
// promotion atomically cuts the old primary's stream before the first
// post-promotion write can be acknowledged.
type Node struct {
	cfg  NodeConfig
	role atomic.Int32
	// linkUp mirrors fw != nil for lock-free health reads.
	linkUp atomic.Bool

	mu sync.Mutex // serializes enroll+forward, link changes, repl apply, promote
	fw *followerLink

	connsMu sync.Mutex
	ln      net.Listener
	conns   map[net.Conn]struct{}

	closed atomic.Bool
	stopc  chan struct{}
	wg     sync.WaitGroup
}

// NewNode validates the configuration and returns an idle node; Serve
// starts it.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Store == nil {
		return nil, errors.New("cluster: NodeConfig.Store is required")
	}
	if cfg.Role == RoleFollower && cfg.FollowerAddr != "" {
		return nil, errors.New("cluster: a follower does not replicate onward; FollowerAddr is for primaries")
	}
	cfg = cfg.withDefaults()
	n := &Node{cfg: cfg, stopc: make(chan struct{}), conns: make(map[net.Conn]struct{})}
	n.role.Store(int32(cfg.Role))
	return n, nil
}

// Role returns the node's current role (a follower may have been
// promoted since NewNode).
func (n *Node) Role() Role { return Role(n.role.Load()) }

// LinkUp reports whether the follower replication link is established.
func (n *Node) LinkUp() bool { return n.linkUp.Load() }

// Serve accepts connections on ln until Close. On a primary with a
// follower it also runs the link-maintenance loop that establishes,
// resyncs, and re-establishes the replication stream.
func (n *Node) Serve(ln net.Listener) error {
	n.connsMu.Lock()
	n.ln = ln
	n.connsMu.Unlock()
	if n.cfg.FollowerAddr != "" {
		n.wg.Add(1)
		go n.maintainLink()
	}
	for {
		c, err := ln.Accept()
		if err != nil {
			if n.closed.Load() {
				return nil
			}
			return err
		}
		n.connsMu.Lock()
		if n.closed.Load() {
			n.connsMu.Unlock()
			c.Close()
			return nil
		}
		n.conns[c] = struct{}{}
		n.connsMu.Unlock()
		n.wg.Add(1)
		go n.handleConn(c)
	}
}

// Close stops serving: the listener and every open connection are torn
// down, the follower link is dropped, and all goroutines are joined.
func (n *Node) Close() error {
	if !n.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(n.stopc)
	n.connsMu.Lock()
	if n.ln != nil {
		n.ln.Close()
	}
	for c := range n.conns {
		c.Close()
	}
	n.connsMu.Unlock()
	n.mu.Lock()
	n.dropLinkLocked()
	n.mu.Unlock()
	n.wg.Wait()
	return nil
}

func (n *Node) deadline() time.Time { return n.cfg.Now().Add(n.cfg.Timeout) }

// roleByte is the OpPing health answer.
func (n *Node) roleByte() byte {
	if n.Role() == RoleFollower {
		return registry.RoleFollowerByte
	}
	if n.cfg.FollowerAddr != "" && n.cfg.RequireFollower && !n.linkUp.Load() {
		return registry.RoleDegradedByte
	}
	return registry.RolePrimaryByte
}

// enroll is the primary write path: apply locally (durable), then
// forward to the follower and wait for its fsynced ack — all under the
// node mutex, so the follower applies records in exactly the primary's
// WAL order. A forward failure drops the link (fencing subsequent
// enrollments when the follower is required) and surfaces as an error:
// the record exists locally but was never acknowledged, which is safe —
// an extra unacknowledged record can only make duplicate detection
// stricter, never laxer.
func (n *Node) enroll(e registry.Enrollment) (registry.EnrollResult, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.cfg.FollowerAddr != "" && n.cfg.RequireFollower && n.fw == nil {
		return registry.EnrollResult{}, ErrFenced
	}
	res, err := n.cfg.Store.Enroll(e)
	if err != nil {
		return res, err
	}
	if n.fw != nil {
		if ferr := n.fw.forward(e, n.deadline()); ferr != nil {
			n.dropLinkLocked()
			n.cfg.Logf("replication to %s failed, dropping link: %v", n.cfg.FollowerAddr, ferr)
			return res, fmt.Errorf("cluster: replication failed, enrollment recorded locally but not acknowledged: %w", ferr)
		}
	}
	return res, nil
}

// applyRepl is the follower write path: refuse once promoted, else
// apply to the local durable store. Sharing the node mutex with
// promote makes the promotion boundary exact — no replicated record
// can land after OpPromote has been acknowledged.
func (n *Node) applyRepl(e registry.Enrollment) (int64, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if Role(n.role.Load()) != RoleFollower {
		return 0, errors.New("node promoted to primary; replication stream refused")
	}
	if _, err := n.cfg.Store.Enroll(e); err != nil {
		return 0, err
	}
	return n.cfg.Store.Stats().Enrollments, nil
}

// promote flips a follower to primary. Idempotent on a primary.
func (n *Node) promote() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if Role(n.role.Load()) == RoleFollower {
		n.cfg.Logf("promoted to primary at position %d", n.cfg.Store.Stats().Enrollments)
	}
	n.role.Store(int32(RolePrimary))
}

// importState is the follower side of snapshot shipping.
func (n *Node) importState(state []registry.LookupResult) (int64, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if Role(n.role.Load()) != RoleFollower {
		return 0, errors.New("node promoted to primary; snapshot refused")
	}
	if err := n.cfg.Store.ImportState(state); err != nil {
		return 0, err
	}
	return n.cfg.Store.Stats().Enrollments, nil
}

func (n *Node) dropLinkLocked() {
	if n.fw != nil {
		n.fw.close()
		n.fw = nil
	}
	n.linkUp.Store(false)
}

// maintainLink re-establishes the follower link whenever it is down:
// dial, position handshake, snapshot ship if diverged, then hand the
// live connection to the enroll path.
func (n *Node) maintainLink() {
	defer n.wg.Done()
	for {
		n.mu.Lock()
		if n.fw == nil && !n.closed.Load() {
			if err := n.connectFollowerLocked(); err != nil {
				n.cfg.Logf("follower link to %s not established: %v", n.cfg.FollowerAddr, err)
			} else {
				n.cfg.Logf("follower link to %s established", n.cfg.FollowerAddr)
			}
		}
		n.mu.Unlock()
		select {
		case <-n.stopc:
			return
		case <-time.After(n.cfg.ReconnectEvery):
		}
	}
}

// connectFollowerLocked performs the resync handshake under the node
// mutex, so no enrollment can slip between the position exchange and
// the live stream:
//
//	-> OpSync [u64 myPos]      <- OpSyncOK [u64 theirPos]
//	(diverged: -> OpSnapBegin [u64 n], n x OpSnapChunk, OpSnapEnd
//	           <- OpOK [u64 newPos])
//
// Position is the store's total applied-enrollment count — a pure
// function of the record history, so equal positions on two nodes that
// only ever talked to each other mean equal states.
func (n *Node) connectFollowerLocked() error {
	c, err := n.cfg.Dial(n.cfg.FollowerAddr)
	if err != nil {
		return err
	}
	l := newFollowerLink(c)
	myPos := n.cfg.Store.Stats().Enrollments
	theirPos, err := l.syncHandshake(myPos, n.deadline())
	if err != nil {
		l.close()
		return err
	}
	if theirPos != myPos {
		n.cfg.Logf("follower at position %d, primary at %d: shipping snapshot", theirPos, myPos)
		newPos, err := l.shipSnapshot(n.cfg.Store, n.deadline())
		if err != nil {
			l.close()
			return err
		}
		if newPos != myPos {
			l.close()
			return fmt.Errorf("cluster: follower at position %d after snapshot, want %d", newPos, myPos)
		}
	}
	n.fw = l
	n.linkUp.Store(true)
	return nil
}

// snapshotState materializes the full read-side state for shipping.
func snapshotState(store *registry.Durable) []registry.LookupResult {
	state := make([]registry.LookupResult, 0, store.Stats().Keys)
	store.Range(func(k registry.Key, r registry.LookupResult) bool {
		state = append(state, r)
		return true
	})
	return state
}

// writeU64 renders one little-endian u64 payload.
func writeU64(v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return b[:]
}
