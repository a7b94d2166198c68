package main

// Tracing lives entirely in the benchmark: spans are recorded around
// calls into each layer's public surface (the service handler, the
// provenance store, a device decorator) and kept in memory until the
// run ends. Nothing inside the program is instrumented.

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"github.com/flashmark/flashmark/internal/cluster"
	"github.com/flashmark/flashmark/internal/device"
	"github.com/flashmark/flashmark/internal/nor"
	"github.com/flashmark/flashmark/internal/registry"
	"github.com/flashmark/flashmark/internal/vclock"
)

// span is one timed call. Parent is the request id of the request span
// that caused it (-1 for a root or an unresolved span); it is resolved
// after the run from the request's chips and its interval.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start"`
	End    time.Duration `json:"end"`
	Parent int           `json:"parent"`
	Req    int           `json:"req"`
	Ops    int           `json:"ops,omitempty"`
	Busy   time.Duration `json:"busy,omitempty"`
	Key    string        `json:"-"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer collects spans from every layer wrapper of one world.
type tracer struct {
	t0 time.Time

	mu       sync.Mutex
	requests []span     // service.request roots, Req = client request id
	reads    []span     // body reads, Req = client request id
	stores   []span     // provenance store calls, Key = die identity
	sessions []*session // one per decorated device
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.t0) }

// reset drops the spans recorded so far (set-up traffic).
func (t *tracer) reset() {
	t.mu.Lock()
	t.requests, t.reads, t.stores, t.sessions = nil, nil, nil, nil
	t.mu.Unlock()
}

// dump writes every span of the run as JSON.
func (t *tracer) dump(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var all []span
	all = append(all, t.requests...)
	all = append(all, t.reads...)
	all = append(all, t.stores...)
	for _, s := range t.sessions {
		for _, sp := range s.Spans {
			sp.Parent = s.Parent
			sp.Name = s.Backend + "." + sp.Name
			all = append(all, sp)
		}
	}
	data, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func (t *tracer) addStore(name string, k registry.Key, start time.Duration) {
	end := t.now()
	t.mu.Lock()
	t.stores = append(t.stores, span{Name: name, Start: start, End: end, Parent: -1, Key: identity(k)})
	t.mu.Unlock()
}

// identity strips the challenge-key prefix so a challenge fingerprint
// lookup resolves to the chip that caused it.
func identity(k registry.Key) string {
	m := k.Manufacturer
	if len(m) > 5 && m[:5] == "\x00crp\x00" {
		m = m[5:]
	}
	return m + "/" + strconv.FormatUint(k.DieID, 10)
}

// wrapHandler times Handler().ServeHTTP and the request body read. The
// client stamps each request with its id in the X-Bench-Req header.
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.Atoi(r.Header.Get("X-Bench-Req"))
		start := t.now()
		tb := &timedBody{ReadCloser: r.Body, t: t}
		r.Body = tb
		h.ServeHTTP(w, r)
		end := t.now()
		t.mu.Lock()
		t.requests = append(t.requests, span{Name: "service.request", Start: start, End: end, Parent: -1, Req: id})
		if tb.end > 0 {
			t.reads = append(t.reads, span{Name: "service.read", Start: start, End: tb.end, Req: id})
		}
		t.mu.Unlock()
	})
}

// timedBody records when the handler finished reading the body.
type timedBody struct {
	io.ReadCloser
	t   *tracer
	end time.Duration
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF && b.end == 0 {
		b.end = b.t.now()
	}
	return n, err
}

// tracedDurable wraps the single-node registry. It deliberately has no
// LookupBatch, so the service keeps its serial batch post-pass.
type tracedDurable struct {
	*registry.Durable
	t *tracer
}

func (s tracedDurable) Enroll(e registry.Enrollment) (registry.EnrollResult, error) {
	start := s.t.now()
	res, err := s.Durable.Enroll(e)
	s.t.addStore("registry.enroll", e.Key, start)
	return res, err
}

func (s tracedDurable) Lookup(k registry.Key) (registry.LookupResult, bool) {
	start := s.t.now()
	lr, ok := s.Durable.Lookup(k)
	s.t.addStore("registry.lookup", k, start)
	return lr, ok
}

// tracedCluster wraps the sharded registry client, bulk lookup included.
type tracedCluster struct {
	*cluster.Client
	t *tracer
}

func (s tracedCluster) Enroll(e registry.Enrollment) (registry.EnrollResult, error) {
	start := s.t.now()
	res, err := s.Client.Enroll(e)
	s.t.addStore("cluster.enroll", e.Key, start)
	return res, err
}

func (s tracedCluster) Lookup(k registry.Key) (registry.LookupResult, bool) {
	start := s.t.now()
	lr, ok := s.Client.Lookup(k)
	s.t.addStore("cluster.lookup", k, start)
	return lr, ok
}

func (s tracedCluster) LookupBatch(keys []registry.Key) ([]registry.LookupResult, []bool) {
	start := s.t.now()
	rs, fs := s.Client.LookupBatch(keys)
	k := registry.Key{}
	if len(keys) > 0 {
		k = keys[0]
	}
	s.t.addStore("cluster.lookup_batch", k, start)
	return rs, fs
}

// Segment roles: which part of the chip a device op touched.
const (
	roleExtract = iota // the watermark segment
	roleScreen         // sampled data segments (recycling screen)
	roleProbe          // the last segment (challenge probe)
	nRoles
)

var roleNames = [nRoles]string{"extract", "screen", "probe"}

// session is everything one decorated device did: contiguous ops on the
// same segment role coalesce into one span (Ops and Busy keep the exact
// count and the time inside the ops).
type session struct {
	Backend string
	Seed    uint64
	Created time.Duration
	Spans   []span
	Parent  int
}

func (s *session) busy(role int) (time.Duration, int) {
	var d time.Duration
	n := 0
	for _, sp := range s.Spans {
		if sp.Name == roleNames[role] {
			d += sp.Busy
			n += sp.Ops
		}
	}
	return d, n
}

// envelope is the interval from the first device op to the last.
func (s *session) envelope() (time.Duration, time.Duration, bool) {
	if len(s.Spans) == 0 {
		return 0, 0, false
	}
	return s.Spans[0].Start, s.Spans[len(s.Spans)-1].End, true
}

// decorate is the Config.Decorate hook of a traced world.
func (t *tracer) decorate(d device.Device) device.Device {
	s := &session{Backend: backendOf(d.PartName()), Seed: d.Seed(), Created: t.now(), Parent: -1}
	t.mu.Lock()
	t.sessions = append(t.sessions, s)
	t.mu.Unlock()
	return newTimedDevice(d, s, t.now)
}

// timedDevice times every flash operation of one device and attributes
// it by the segment it touched. Like the devices it wraps, it is used by
// one goroutine at a time.
type timedDevice struct {
	dev   device.Device
	s     *session
	now   func() time.Duration
	geom  nor.Geometry
	wmSeg int
}

func newTimedDevice(d device.Device, s *session, now func() time.Duration) *timedDevice {
	// The verifier's watermark segment is at address 0 (Config default).
	return &timedDevice{dev: d, s: s, now: now, geom: d.Geometry(), wmSeg: 0}
}

func (d *timedDevice) role(addr int) int {
	seg, err := d.geom.SegmentOfAddr(addr)
	switch {
	case err != nil:
		return roleScreen
	case seg == d.wmSeg:
		return roleExtract
	case seg == d.geom.TotalSegments()-1:
		return roleProbe
	}
	return roleScreen
}

func (d *timedDevice) record(addr int, start time.Duration) {
	end := d.now()
	name := roleNames[d.role(addr)]
	if n := len(d.s.Spans); n > 0 && d.s.Spans[n-1].Name == name {
		last := &d.s.Spans[n-1]
		last.End = end
		last.Ops++
		last.Busy += end - start
		return
	}
	d.s.Spans = append(d.s.Spans, span{Name: name, Start: start, End: end, Ops: 1, Busy: end - start})
}

func (d *timedDevice) Unwrap() device.Device    { return d.dev }
func (d *timedDevice) PartName() string         { return d.dev.PartName() }
func (d *timedDevice) Seed() uint64             { return d.dev.Seed() }
func (d *timedDevice) Geometry() nor.Geometry   { return d.geom }
func (d *timedDevice) Unlock() error            { return d.dev.Unlock() }
func (d *timedDevice) Lock()                    { d.dev.Lock() }
func (d *timedDevice) Clock() *vclock.Clock     { return d.dev.Clock() }
func (d *timedDevice) Ledger() *vclock.Ledger   { return d.dev.Ledger() }
func (d *timedDevice) ChargeHostTransfer(n int) { d.dev.ChargeHostTransfer(n) }
func (d *timedDevice) Save(w io.Writer) error   { return d.dev.Save(w) }

func (d *timedDevice) NominalEraseTime() time.Duration { return d.dev.NominalEraseTime() }

func (d *timedDevice) EraseSegment(addr int) error {
	start := d.now()
	err := d.dev.EraseSegment(addr)
	d.record(addr, start)
	return err
}

func (d *timedDevice) EraseSegmentAdaptive(addr int) (time.Duration, error) {
	start := d.now()
	p, err := d.dev.EraseSegmentAdaptive(addr)
	d.record(addr, start)
	return p, err
}

func (d *timedDevice) MassEraseBank(addr int) error {
	start := d.now()
	err := d.dev.MassEraseBank(addr)
	d.record(addr, start)
	return err
}

func (d *timedDevice) PartialEraseSegment(addr int, pulse time.Duration) error {
	start := d.now()
	err := d.dev.PartialEraseSegment(addr, pulse)
	d.record(addr, start)
	return err
}

func (d *timedDevice) ProgramBlock(addr int, values []uint64) error {
	start := d.now()
	err := d.dev.ProgramBlock(addr, values)
	d.record(addr, start)
	return err
}

func (d *timedDevice) ReadWord(addr int) (uint64, error) {
	start := d.now()
	v, err := d.dev.ReadWord(addr)
	d.record(addr, start)
	return v, err
}

func (d *timedDevice) ReadSegment(addr int) ([]uint64, error) {
	start := d.now()
	v, err := d.dev.ReadSegment(addr)
	d.record(addr, start)
	return v, err
}

func (d *timedDevice) StressSegmentWords(addr int, values []uint64, n int, adaptive bool) error {
	start := d.now()
	err := d.dev.StressSegmentWords(addr, values, n, adaptive)
	d.record(addr, start)
	return err
}
