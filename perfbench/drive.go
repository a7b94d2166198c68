package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the load generator's width: at most one client (and one
// connection) per CPU.
func clients() int { return runtime.NumCPU() }

// outcome is one completed operation as the client saw it.
type outcome struct {
	Req     int // request id (index into the phase's sent order)
	Kind    int
	Plan    int // index into plan.requests
	Chips   int // chips given a verdict
	Latency time.Duration
	Late    time.Duration // open loop: send time minus due time
	At      time.Duration // due (open loop) or send (closed loop) offset
	Sent    time.Duration // offset from phase start
	Done    time.Duration
	OK      bool
	False   bool // a clone or counterfeit was accepted
	Err     string
}

// phase is the record of one measured run of a workload.
type phase struct {
	outcomes []outcome
	// chipsPerS is the chips-per-second rate of the median one-second
	// slice of the window (closed loop), or chips over the time to the
	// last answer (open loop, whose rate the schedule fixes).
	chipsPerS float64
	wall      time.Duration
	timed     int // plan.timed
	group     int // plan.group
	// counters are the service counter deltas over the window.
	counters counters
	// peakRSS is the median over one-second slices of the window of the
	// slice's peak resident set, MiB.
	peakRSS float64
}

type sender struct {
	c    *http.Client
	base string
	buf  bytes.Buffer
}

func newTransport() *http.Transport {
	n := clients()
	return &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true}
}

func (s *sender) post(path string, body []byte, req, pass int) (int, []byte, error) {
	hr, err := http.NewRequest(http.MethodPost, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set("X-Bench-Req", strconv.Itoa(req))
	hr.Header.Set("X-Bench-Pass", strconv.Itoa(pass))
	resp, err := s.c.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	s.buf.Reset()
	if _, err := s.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, s.buf.Bytes(), nil
}

// exchange sends one planned request and judges the answer. It returns
// the outcome (without its timing fields) and the send and answer times.
func (s *sender) exchange(p *plan, r *request, id, pass int) (outcome, time.Time, time.Time) {
	t0 := time.Now()
	status, body, err := s.post(opPaths[r.Kind], r.body, id, pass)
	t1 := time.Now()
	o := outcome{Req: id, Kind: r.Kind}
	if err != nil {
		o.Err = err.Error()
		return o, t0, t1
	}
	var msg string
	if o.OK, o.False, msg = judge(p, r, status, body); o.OK {
		o.Chips = len(r.Chips)
	} else {
		o.Err = msg
	}
	return o, t0, t1
}

// judge checks one response against the fleet's ground truth.
func judge(p *plan, r *request, status int, body []byte) (ok, falseAccept bool, msg string) {
	c := &p.chips[r.Chips[0]]
	if status == http.StatusUnprocessableEntity && r.Kind == opChallenge && c.clone() {
		// A clone whose imprint fails physics is refused before the
		// challenge runs.
		return true, false, ""
	}
	if status != http.StatusOK {
		return false, false, fmt.Sprintf("%s: HTTP %d: %.200s", opNames[r.Kind], status, body)
	}
	switch r.Kind {
	case opVerify:
		var v struct {
			Verdict  string `json:"verdict"`
			Accepted bool   `json:"accepted"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return false, false, "verify: " + err.Error()
		}
		ok, fa := c.wantVerdict(v.Verdict, v.Accepted)
		return ok, fa, fmt.Sprintf("verify %s %s -> %s", c.Backend, c.Class, v.Verdict)
	case opBatch:
		var v struct {
			Results []struct {
				Verdict  string `json:"verdict"`
				Accepted bool   `json:"accepted"`
			} `json:"results"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return false, false, "batch: " + err.Error()
		}
		if len(v.Results) != len(r.Chips) {
			return false, false, fmt.Sprintf("batch: %d results for %d chips", len(v.Results), len(r.Chips))
		}
		ok, fa, msg := true, false, ""
		for i, res := range v.Results {
			c := &p.chips[r.Chips[i]]
			o, f := c.wantVerdict(res.Verdict, res.Accepted)
			if !o && msg == "" {
				msg = fmt.Sprintf("batch item %d: %s %s -> %s", i, c.Backend, c.Class, res.Verdict)
			}
			ok, fa = ok && o, fa || f
		}
		return ok, fa, msg
	case opEnroll:
		var v struct {
			Verdict  string `json:"verdict"`
			Accepted bool   `json:"accepted"`
			Conflict bool   `json:"conflict"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return false, false, "enroll: " + err.Error()
		}
		// Enroll candidates are genuine chips never enrolled before.
		return c.genuine() && v.Verdict == "GENUINE" && v.Accepted && !v.Conflict, !c.genuine() && v.Accepted,
			fmt.Sprintf("enroll %s %s -> %s", c.Backend, c.Class, v.Verdict)
	case opChallenge:
		var v struct {
			Verdict  string `json:"verdict"`
			Accepted bool   `json:"accepted"`
			Match    bool   `json:"match"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return false, false, "challenge: " + err.Error()
		}
		// Challenge targets are enrolled victims (must match) and their
		// clones (must be caught on the challenge axis).
		if c.genuine() {
			return v.Verdict == "GENUINE" && v.Match, false, fmt.Sprintf("challenge %s victim -> %s", c.Backend, v.Verdict)
		}
		return v.Verdict == "DUPLICATE-ID" && !v.Accepted, v.Accepted, fmt.Sprintf("challenge %s clone -> %s", c.Backend, v.Verdict)
	}
	return false, false, "unknown op"
}

// closedLoop runs clients() clients, each sending its next request as
// soon as the previous one is answered, through the plan's request list
// pass after pass until the window ends. Requests in flight at the end
// of the window complete and count.
func closedLoop(w *world, p *plan, window time.Duration) *phase {
	tp := newTransport()
	defer tp.CloseIdleConnections()
	n := clients()
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(window)
	per := make([][]outcome, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s := &sender{c: &http.Client{Transport: tp}, base: w.url}
			for time.Now().Before(deadline) {
				k := int(next.Add(1) - 1)
				pi := k % len(p.requests)
				o, t0, t1 := s.exchange(p, &p.requests[pi], k, k/len(p.requests))
				o.Plan, o.Latency = pi, t1.Sub(t0)
				o.At, o.Sent, o.Done = t0.Sub(start), t0.Sub(start), t1.Sub(start)
				per[c] = append(per[c], o)
			}
		}(c)
	}
	wg.Wait()
	ph := &phase{wall: time.Since(start), timed: p.timed, group: p.group}
	for c := range per {
		ph.outcomes = append(ph.outcomes, per[c]...)
	}
	ph.chipsPerS = sliceRate(ph.outcomes, window)
	return ph
}

// sliceRate credits each answered request's chips evenly over its
// [sent, done] interval, cuts the window into one-second slices and
// returns the median slice's rate. A median over slices shrugs off a
// burst of CPU steal that a whole-window mean would absorb, and
// spreading each request over its interval avoids counting whole
// batches into whichever slice they happen to finish in.
func sliceRate(outs []outcome, window time.Duration) float64 {
	n := int(window / time.Second)
	if n < 1 {
		n = 1
	}
	slice := window / time.Duration(n)
	work := make([]float64, n)
	for _, o := range outs {
		if o.Chips == 0 || o.Done <= o.Sent {
			continue
		}
		per := float64(o.Chips) / float64(o.Done-o.Sent)
		for i := range work {
			a, b := max(o.Sent, time.Duration(i)*slice), min(o.Done, time.Duration(i+1)*slice)
			if b > a {
				work[i] += per * float64(b-a)
			}
		}
	}
	for i := range work {
		work[i] /= slice.Seconds()
	}
	return quantile(work, 0.5)
}

// openLoop sends every planned request at its due time over at most
// clients() connections. A request due while every connection is busy
// waits for the next free one; its latency is timed from its due time,
// so a stall is charged to every request queued behind it.
func openLoop(w *world, p *plan) *phase {
	tp := newTransport()
	defer tp.CloseIdleConnections()
	n := clients()
	var next atomic.Int64
	start := time.Now()
	per := make([][]outcome, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s := &sender{c: &http.Client{Transport: tp}, base: w.url}
			for {
				k := int(next.Add(1) - 1)
				if k >= len(p.requests) {
					return
				}
				r := &p.requests[k]
				due := start.Add(r.Due)
				time.Sleep(time.Until(due))
				o, t0, t1 := s.exchange(p, r, k, 0)
				o.Plan, o.Latency, o.Late = k, t1.Sub(due), t0.Sub(due)
				o.At, o.Sent, o.Done = r.Due, t0.Sub(start), t1.Sub(start)
				per[c] = append(per[c], o)
			}
		}(c)
	}
	wg.Wait()
	ph := &phase{wall: time.Since(start), timed: p.timed, group: p.group}
	chips := 0
	var last time.Duration
	for c := range per {
		for _, o := range per[c] {
			chips += o.Chips
			if o.Done > last {
				last = o.Done
			}
		}
		ph.outcomes = append(ph.outcomes, per[c]...)
	}
	if last > 0 {
		ph.chipsPerS = float64(chips) / last.Seconds()
	}
	return ph
}

// warmUp brings a fresh world to the workload's starting state: victims
// enrolled (through the store, or through /v1/enroll for fleet-chip
// victims), the warm set scanned into the verdict cache, and one round
// trip per client connection.
func warmUp(w *world, p *plan) error {
	for _, v := range p.victims {
		if _, err := w.store.Enroll(v.enrollment()); err != nil {
			return fmt.Errorf("enrolling victim: %w", err)
		}
	}
	tp := newTransport()
	defer tp.CloseIdleConnections()
	n := clients()
	var jobs []request
	for _, ci := range p.victimChips {
		jobs = append(jobs, request{Kind: opEnroll, Chips: []int{ci}, body: p.chips[ci].Bytes})
	}
	// Victims first: a clone scanned before its victim is enrolled is
	// not a duplicate yet.
	if err := runJobs(w, p, tp, n, jobs); err != nil {
		return err
	}
	jobs = jobs[:0]
	for _, ci := range p.warm {
		jobs = append(jobs, request{Kind: opVerify, Chips: []int{ci}, body: p.chips[ci].Bytes})
	}
	for len(jobs) < n {
		jobs = append(jobs, request{}) // a /healthz round trip
	}
	return runJobs(w, p, tp, n, jobs)
}

func runJobs(w *world, p *plan, tp *http.Transport, n int, jobs []request) error {
	var next atomic.Int64
	errs := make([]error, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s := &sender{c: &http.Client{Transport: tp}, base: w.url}
			for {
				k := int(next.Add(1) - 1)
				if k >= len(jobs) || errs[c] != nil {
					return
				}
				r := &jobs[k]
				if r.Chips == nil {
					resp, err := s.c.Get(w.url + "/healthz")
					if err != nil {
						errs[c] = err
						return
					}
					resp.Body.Close()
					continue
				}
				if o, _, _ := s.exchange(p, r, -1, 0); !o.OK {
					errs[c] = fmt.Errorf("warm-up: %s", o.Err)
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
