package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"time"

	"github.com/flashmark/flashmark/internal/challenge"
	"github.com/flashmark/flashmark/internal/device"
	"github.com/flashmark/flashmark/internal/mcu"
	"github.com/flashmark/flashmark/internal/nand"
	"github.com/flashmark/flashmark/internal/reram"
	"github.com/flashmark/flashmark/internal/service"
)

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies returns every operation's latency in milliseconds.
func (ph *phase) latencies(kind int) []float64 {
	var out []float64
	for _, o := range ph.outcomes {
		if kind < 0 || o.Kind == kind {
			out = append(out, ms(o.Latency))
		}
	}
	return out
}

// timedOutcomes are the outcomes of the phase's timed op kind.
func (ph *phase) timedOutcomes() []outcome {
	var out []outcome
	for _, o := range ph.outcomes {
		if o.Kind == ph.timed {
			out = append(out, o)
		}
	}
	return out
}

// groupSize is how many consecutive timed requests (by due or send
// time) groupStat takes each statistic over: the plan's group, else
// enough for at most 20 groups of at least 20 requests.
func (ph *phase) groupSize() int {
	if ph.group > 0 {
		return ph.group
	}
	return max(20, len(ph.timedOutcomes())/20)
}

// groupStat applies stat to the latencies (ms) of each group of
// consecutive timed requests and returns the median group's value: a
// stretch of CPU contention that inflates a few groups moves it little,
// where it would shift a whole-run figure. A trailing partial group
// joins the one before it.
func (ph *phase) groupStat(stat func([]float64) float64) float64 {
	outs := ph.timedOutcomes()
	slices.SortFunc(outs, func(a, b outcome) int { return cmp.Compare(a.At, b.At) })
	g := ph.groupSize()
	var per []float64
	for start := 0; start < len(outs); start += g {
		end := start + g
		if len(outs)-end < g {
			end = len(outs)
		}
		var l []float64
		for _, o := range outs[start:end] {
			l = append(l, ms(o.Latency))
		}
		per = append(per, stat(l))
		if end == len(outs) {
			break
		}
	}
	return quantile(per, 0.5)
}

// counters is the sum of the service counters the benchmark reads from
// each server's /metrics registry.
type counters struct {
	hits, misses, rejected int64
}

func readCounters(servers []*service.Server) counters {
	var c counters
	for _, s := range servers {
		var buf bytes.Buffer
		if err := s.Registry().WriteJSON(&buf); err != nil {
			continue
		}
		var m map[string]json.RawMessage
		if json.Unmarshal(buf.Bytes(), &m) != nil {
			continue
		}
		get := func(name string) int64 {
			var v int64
			_ = json.Unmarshal(m[name], &v)
			return v
		}
		c.hits += get("fmverifyd_cache_hits_total")
		c.misses += get("fmverifyd_cache_misses_total")
		c.rejected += get("fmverifyd_rejected_total")
	}
	return c
}

func (c counters) minus(o counters) counters {
	return counters{c.hits - o.hits, c.misses - o.misses, c.rejected - o.rejected}
}

func (c counters) hitRatio() float64 {
	if c.hits+c.misses == 0 {
		return 0
	}
	return float64(c.hits) / float64(c.hits+c.misses)
}

// rssSampler samples the process's resident set from /proc/self/statm
// every 5 ms while the window runs and keeps each one-second slice's
// peak. peakMB reports the median slice peak: the serving footprint,
// steady against a single spike that a garbage collection happened to
// fall just after.
type rssSampler struct {
	stop chan struct{}
	done chan float64
}

func sampleRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan float64, 1)}
	page := float64(os.Getpagesize())
	go func() {
		start := time.Now()
		var peaks []float64
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			if data, err := os.ReadFile("/proc/self/statm"); err == nil {
				if f := bytes.Fields(data); len(f) > 1 {
					if pages, err := strconv.ParseFloat(string(f[1]), 64); err == nil {
						i := int(time.Since(start) / time.Second)
						for len(peaks) <= i {
							peaks = append(peaks, 0)
						}
						peaks[i] = max(peaks[i], pages*page/(1<<20))
					}
				}
			}
			select {
			case <-s.stop:
				s.done <- quantile(peaks, 0.5)
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// peakMB stops the sampler and returns the median slice peak in MiB.
func (s *rssSampler) peakMB() float64 {
	close(s.stop)
	return <-s.done
}

// oob is what the direct, out-of-band layer calls measured: the same
// chips the traced phase sent, loaded, verified and interrogated one at
// a time with the server idle.
type oob struct {
	load     map[string][]float64 // per backend, ms
	self     map[string][]float64 // VerifyContext minus its device ops, ms
	interrog []float64            // challenge.Interrogate, ms
}

// directCalls runs the out-of-band layer calls on up to a fixed number
// of the phase's chips per backend (NAND verifies take seconds).
func directCalls(w *world, p *plan, ph *phase, withChallenge bool) (*oob, error) {
	limit := map[string]int{bNOR: 48, bReRAM: 16, bNAND: 2}
	seen := map[int]bool{}
	var sample []int
	for _, o := range ph.outcomes {
		for _, ci := range p.requests[o.Plan].Chips {
			b := p.chips[ci].Backend
			if !seen[ci] && limit[b] > 0 {
				seen[ci] = true
				limit[b]--
				sample = append(sample, ci)
			}
		}
	}
	res := &oob{load: map[string][]float64{}, self: map[string][]float64{}}
	var ml mcu.Loader
	var rl reram.Loader
	var nl nand.Loader
	load := func(c *chip) (device.Device, time.Duration, error) {
		t0 := time.Now()
		var d device.Device
		var err error
		switch c.Backend {
		case bNOR:
			d, err = ml.Load(c.Bytes)
		case bReRAM:
			d, err = rl.Load(c.Bytes)
		default:
			d, err = nl.Load(c.Bytes)
		}
		return d, time.Since(t0), err
	}
	clock := newTracer()
	for _, ci := range sample {
		c := &p.chips[ci]
		dev, ld, err := load(c)
		if err != nil {
			return nil, err
		}
		res.load[c.Backend] = append(res.load[c.Backend], ms(ld))
		s := &session{Backend: c.Backend}
		td := newTimedDevice(dev, s, clock.now)
		t0 := time.Now()
		if _, err := w.cfg.Verifier.VerifyContext(context.Background(), td); err != nil {
			return nil, err
		}
		v := time.Since(t0)
		ex, _ := s.busy(roleExtract)
		sc, _ := s.busy(roleScreen)
		res.self[c.Backend] = append(res.self[c.Backend], ms(v-ex-sc))
		if withChallenge && (c.genuine() || c.clone()) {
			dev, _, err := load(c)
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			if _, err := challenge.Interrogate(dev, *w.cfg.Challenge); err != nil {
				return nil, err
			}
			res.interrog = append(res.interrog, ms(time.Since(t0)))
		}
	}
	return res, nil
}

// interval is a closed time range.
type interval struct{ a, b time.Duration }

// unionLen is the length of the union of ivs clipped to [lo, hi].
func unionLen(ivs []interval, lo, hi time.Duration) time.Duration {
	var clipped []interval
	for _, iv := range ivs {
		a, b := max(iv.a, lo), min(iv.b, hi)
		if b > a {
			clipped = append(clipped, interval{a, b})
		}
	}
	slices.SortFunc(clipped, func(x, y interval) int { return int(x.a - y.a) })
	var total time.Duration
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case iv.a <= cur.b:
			cur.b = max(cur.b, iv.b)
		default:
			total += cur.b - cur.a
			cur = iv
		}
	}
	if len(clipped) > 0 {
		total += cur.b - cur.a
	}
	return total
}

// layers computes every per-layer metric of a traced phase. Spans are
// attributed to the request span whose chips they touched and whose
// interval contains them.
func layers(w *world, p *plan, ph, untraced *phase, o *oob, delta counters, queued []float64, storeBefore, storeAfter statsView) map[string]float64 {
	tr := w.tr
	m := map[string]float64{}
	byReq := map[int]*outcome{}
	for i := range ph.outcomes {
		byReq[ph.outcomes[i].Req] = &ph.outcomes[i]
	}
	var reqs []span
	for _, r := range tr.requests {
		if _, ok := byReq[r.Req]; ok {
			reqs = append(reqs, r)
		}
	}
	bySeed := map[uint64][]int{}
	byKey := map[string][]int{}
	for i, r := range reqs {
		for _, ci := range p.requests[byReq[r.Req].Plan].Chips {
			c := &p.chips[ci]
			bySeed[c.Seed] = append(bySeed[c.Seed], i)
			byKey[c.key()] = append(byKey[c.key()], i)
		}
	}
	owner := func(cands []int, t time.Duration) int {
		for _, i := range cands {
			if reqs[i].Start <= t && t <= reqs[i].End {
				return i
			}
		}
		return -1
	}
	children := make([][]interval, len(reqs))
	sessionsOf := make([][]*session, len(reqs))
	index := map[int]int{}
	for i, r := range reqs {
		index[r.Req] = i
	}
	for _, r := range tr.reads {
		if i, ok := index[r.Req]; ok {
			children[i] = append(children[i], interval{r.Start, r.End})
		}
	}
	for _, s := range tr.sessions {
		i := owner(bySeed[s.Seed], s.Created)
		if i < 0 {
			continue
		}
		s.Parent = reqs[i].Req
		sessionsOf[i] = append(sessionsOf[i], s)
		for _, sp := range s.Spans {
			children[i] = append(children[i], interval{sp.Start, sp.End})
		}
	}
	storeMs := map[string][]float64{}
	for j := range tr.stores {
		st := &tr.stores[j]
		storeMs[st.Name] = append(storeMs[st.Name], ms(st.dur()))
		if i := owner(byKey[st.Key], st.Start); i >= 0 {
			st.Parent = reqs[i].Req
			children[i] = append(children[i], interval{st.Start, st.End})
		}
	}

	// Device layers, per backend: verify sessions (any watermark op)
	// and challenge probe sessions.
	type devAgg struct{ extract, screen, ops []float64 }
	dev := map[string]*devAgg{}
	for _, b := range backends {
		dev[b] = &devAgg{}
	}
	var probeMs, probeOps []float64
	for _, s := range tr.sessions {
		if s.Parent < 0 {
			continue // a set-up or unattributed device
		}
		ex, nex := s.busy(roleExtract)
		sc, nsc := s.busy(roleScreen)
		pr, npr := s.busy(roleProbe)
		if nex > 0 {
			a := dev[s.Backend]
			a.extract = append(a.extract, ms(ex))
			a.screen = append(a.screen, ms(sc))
			a.ops = append(a.ops, float64(nex+nsc))
		} else if npr > 0 {
			probeMs = append(probeMs, ms(pr))
			probeOps = append(probeOps, float64(npr))
		}
	}
	for _, b := range backends {
		a := dev[b]
		m[b+".extract_ms"] = mean(a.extract)
		m[b+".screen_ms"] = mean(a.screen)
		m[b+".ops_per_chip"] = mean(a.ops)
	}
	m["challenge.probe_ms"] = mean(probeMs)
	m["challenge.probe_ops"] = mean(probeOps)

	// Out-of-band rows. The residue row adds each verified chip's load
	// and decode cost as measured alone, unscaled: whatever contention in
	// the run adds to those steps lands in service.unexplained_ms.
	loadName := map[string]string{bNOR: "mcu.load_ms", bReRAM: "reram.load_ms", bNAND: "nand.load_ms"}
	oobCost := map[string]float64{}
	var selfAll []float64
	for _, b := range backends {
		m[loadName[b]] = mean(o.load[b])
		selfAll = append(selfAll, o.self[b]...)
		oobCost[b] = mean(o.load[b]) + mean(o.self[b])
	}
	m["counterfeit.self_ms"] = mean(selfAll)
	m["challenge.interrogate_ms"] = mean(o.interrog)

	// Service rows: request spans, their residue, and the residue row.
	var all, residue, layerSum, fan []float64
	perKind := make([][]float64, nOps)
	workers := float64(runtime.GOMAXPROCS(0))
	for i, r := range reqs {
		d := r.dur()
		u := unionLen(children[i], r.Start, r.End)
		all = append(all, ms(d))
		residue = append(residue, ms(d-u))
		kind := byReq[r.Req].Kind
		perKind[kind] = append(perKind[kind], ms(d))
		// Fan-out width: how many of this request's chips were in
		// device work at once, on average, measured from the device
		// sessions' envelopes. A batch loads and decodes its chips in
		// the same parallel workers, so their out-of-band cost is
		// divided by it.
		var env []interval
		var envSum time.Duration
		extra := 0.0
		for _, s := range sessionsOf[i] {
			if a, b, ok := s.envelope(); ok {
				env = append(env, interval{a, b})
				envSum += b - a
			}
			if _, n := s.busy(roleExtract); n > 0 {
				extra += oobCost[s.Backend]
			}
		}
		width := 1.0
		if el := unionLen(env, r.Start, r.End); el > 0 {
			width = float64(envSum) / float64(el)
		}
		layerSum = append(layerSum, ms(u)+extra/width)
		if kind == opBatch && d > 0 {
			fan = append(fan, float64(envSum)/(float64(d)*workers))
		}
	}
	m["service.request_ms"] = mean(all)
	for k := 0; k < nOps; k++ {
		m["service."+opNames[k]+"_ms"] = mean(perKind[k])
	}
	m["service.residue_ms"] = mean(residue)
	m["service.layer_sum_ms"] = mean(layerSum)
	m["service.unexplained_ms"] = mean(all) - mean(layerSum)
	m["service.cache_hit_ratio"] = delta.hitRatio()
	m["service.queued_mean"] = mean(queued)
	m["service.shed"] = float64(delta.rejected)
	m["parallel.fanout_util"] = mean(fan)

	m["registry.lookup_us"] = mean(storeMs["registry.lookup"]) * 1000
	m["registry.lookups"] = float64(storeAfter.lookups - storeBefore.lookups)
	m["cluster.lookup_us"] = mean(storeMs["cluster.lookup"]) * 1000
	m["cluster.lookup_batch_us"] = mean(storeMs["cluster.lookup_batch"]) * 1000
	m["cluster.enroll_ms"] = mean(storeMs["cluster.enroll"])
	if f := storeAfter.fsyncs - storeBefore.fsyncs; f > 0 {
		m["registry.appends_per_fsync"] = float64(storeAfter.appends-storeBefore.appends) / float64(f)
	} else {
		m["registry.appends_per_fsync"] = 0
	}
	m["cluster.failopens"] = float64(storeAfter.failopens)
	m["cluster.failovers"] = float64(storeAfter.failovers)

	var late []float64
	if p.openLoop {
		for _, o := range ph.outcomes {
			late = append(late, ms(o.Late))
		}
	}
	m["loadgen.late_ms_p99"] = quantile(late, 0.99)
	// Tracing overhead: the traced run's median latency (p50_ms's
	// estimator) over the untraced run's, same inputs, fresh worlds.
	if base := untraced.groupStat(median); base > 0 {
		m["trace.overhead_pct"] = 100 * (ph.groupStat(median)/base - 1)
	}
	return m
}

// statsView is the store counters the per-layer rows difference.
type statsView struct {
	lookups, appends, fsyncs int64
	failopens, failovers     int64
}

func (w *world) statsView() statsView {
	st := w.storeStats()
	v := statsView{lookups: st.Lookups, appends: st.WALAppends, fsyncs: st.WALFsyncs}
	if w.client != nil {
		v.failopens, v.failovers = w.client.FailOpens(), w.client.Failovers()
	}
	return v
}
