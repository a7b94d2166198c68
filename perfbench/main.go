// Command perfbench is the repository's benchmark: it fabricates a
// seeded chip fleet, starts the verification plane (fmverifyd's service
// over a durable registry or a replicated two-shard cluster) in this
// process on a loopback listener, drives one workload against it over
// HTTP, checks every verdict against the fleet's ground truth, and
// prints the metrics as one JSON line.
//
//	perfbench --workload batch-intake --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics, measured with no tracing.
// --trace 1 runs the workload untraced and then traced, and prints the
// per-layer rows from spans the benchmark records around each layer's
// public surface, plus the tracing overhead between the two runs.
//
// Workloads:
//
//	batch-intake  closed loop, 16-chip /v1/verify/batch of never-sent
//	              NOR and ReRAM chips, single-node durable registry
//	dock-stream   open-loop Poisson dock at a fixed rate: mostly cached
//	              /v1/verify re-scans, plus first sightings, enrolls,
//	              challenges and small batches, over a 2-shard cluster
//	nand-intake   closed loop, /v1/verify of never-seen NAND chips
//
// Build and run it with perfbench/run.sh from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// workload is one traffic mix: how to plan it and which plane serves it.
type workload struct {
	name string
	plan func(seed uint64, seconds int) *plan
	opts worldOpts
}

var workloads = []workload{
	{"batch-intake", func(s uint64, _ int) *plan { return batchIntakePlan(s) }, worldOpts{}},
	{"dock-stream", dockStreamPlan, worldOpts{cluster: true, challenge: true}},
	{"nand-intake", func(s uint64, _ int) *plan { return nandIntakePlan(s) }, worldOpts{}},
}

// setupReps is how many times a --trace 0 run builds its world from
// scratch; setup_s is the median.
const setupReps = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: batch-intake, dock-stream or nand-intake")
	seed := fs.Uint64("seed", 1, "workload seed: fleet, schedule and every draw derive from it")
	seconds := fs.Int("seconds", 20, "measured window in seconds")
	traced := fs.Int("trace", 0, "1 prints the per-layer rows from a traced run")
	work := fs.String("dir", ".bench_build/work", "scratch directory for registry files")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		return 2, fmt.Errorf("usage: perfbench --workload batch-intake|dock-stream|nand-intake --seed N --seconds N --trace 0|1")
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-%d", wl.name, os.Getpid()))
	defer os.RemoveAll(dir)
	b := &bench{wl: wl, seed: *seed, seconds: *seconds, dir: dir}
	var res *result
	var err error
	if *traced == 1 {
		res, err = b.traced()
	} else {
		res, err = b.untraced()
	}
	if err != nil {
		return 1, err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1, fmt.Errorf("run failed its correctness checks (see above)")
	}
	return 0, nil
}

type bench struct {
	wl      *workload
	seed    uint64
	seconds int
	dir     string
	digest  string
	rep     int
}

// setup fabricates the fleet, starts a fresh world and warms it up.
func (b *bench) setup(traced bool) (*world, *plan, time.Duration, error) {
	t0 := time.Now()
	p := b.wl.plan(b.seed, b.seconds)
	if err := p.fabricate(); err != nil {
		return nil, nil, 0, err
	}
	o := b.wl.opts
	o.traced = traced
	b.rep++
	w, err := startWorld(filepath.Join(b.dir, strconv.Itoa(b.rep)), o)
	if err != nil {
		return nil, nil, 0, err
	}
	if err := warmUp(w, p); err != nil {
		w.close()
		return nil, nil, 0, err
	}
	d := time.Since(t0)
	if w.tr != nil {
		w.tr.reset()
	}
	dg := p.digest()
	if b.digest != "" && dg != b.digest {
		w.close()
		return nil, nil, 0, fmt.Errorf("inputs differ between set-ups of one seed: %s vs %s", dg, b.digest)
	}
	if b.digest == "" {
		b.digest = dg
		fmt.Fprintf(os.Stderr, "perfbench: workload=%s seed=%d seconds=%d chips=%d requests=%d inputs=sha256:%s\n",
			b.wl.name, b.seed, b.seconds, len(p.chips), len(p.requests), dg)
	}
	return w, p, d, nil
}

// guards are the checks that keep a workload measuring what its name
// says, on top of the per-operation verdict checks.
func (b *bench) guards(w *world, p *plan, ph *phase) []string {
	var bad []string
	for _, o := range ph.outcomes {
		if o.False {
			bad = append(bad, "FALSE ACCEPT: "+o.Err)
		}
	}
	hr := ph.counters.hitRatio()
	if !p.openLoop && hr != 0 {
		bad = append(bad, fmt.Sprintf("cache hit ratio %.4f on a never-seen workload (want 0)", hr))
	}
	if p.openLoop {
		if want := p.plannedHitShare(); hr < want-0.005 {
			bad = append(bad, fmt.Sprintf("cache hit ratio %.4f below the planned re-scan share %.4f", hr, want))
		}
		for i, k := range w.shardKeys() {
			if k == 0 {
				bad = append(bad, fmt.Sprintf("shard %d holds no keys", i))
			}
		}
		if n := w.client.FailOpens(); n > 0 {
			bad = append(bad, fmt.Sprintf("cluster failed open %d times", n))
		}
	}
	return bad
}

// plannedHitShare is the share of verdict-cache lookups the dock-stream
// schedule plans as re-scans of warm chips.
func (p *plan) plannedHitShare() float64 {
	warm := map[int]bool{}
	for _, c := range p.warm {
		warm[c] = true
	}
	hits, all := 0, 0
	for _, r := range p.requests {
		for _, c := range r.Chips {
			all++
			if warm[c] {
				hits++
			}
		}
	}
	if all == 0 {
		return 0
	}
	return float64(hits) / float64(all)
}

func (b *bench) untraced() (*result, error) {
	var setups []float64
	var w *world
	var p *plan
	for i := 0; i < setupReps; i++ {
		if w != nil {
			w.close()
		}
		var d time.Duration
		var err error
		w, p, d, err = b.setup(false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer w.close()
	before := readCounters(w.allServers())
	ph, bad := b.measureCounted(w, p, before)
	res := &result{Metrics: map[string]metric{
		"chips_per_s": {ph.chipsPerS, "1/s"},
		"p50_ms":      {ph.groupStat(median), "ms"},
		"setup_s":     {quantile(setups, 0.5), "s"},
		"peak_rss_mb": {ph.peakRSS, "MB"},
	}}
	b.finish(res, bad, ph)
	summarize(ph, res.Metrics)
	return res, nil
}

// measureCounted measures and attaches the service counter deltas.
func (b *bench) measureCounted(w *world, p *plan, before counters) (*phase, []string) {
	// Hand set-up's garbage back first, so the peak is the serving
	// footprint rather than where a collection fell during set-up.
	runtime.GC()
	debug.FreeOSMemory()
	rss := sampleRSS()
	var ph *phase
	if p.openLoop {
		ph = openLoop(w, p)
	} else {
		ph = closedLoop(w, p, time.Duration(b.seconds)*time.Second)
	}
	ph.peakRSS = rss.peakMB()
	ph.counters = readCounters(w.allServers()).minus(before)
	return ph, b.guards(w, p, ph)
}

func (b *bench) finish(res *result, bad []string, phases ...*phase) {
	for _, ph := range phases {
		for _, o := range ph.outcomes {
			res.Attempted++
			if !o.OK {
				res.Failed++
				if res.Failed <= 5 {
					fmt.Fprintf(os.Stderr, "perfbench: failed %s #%d: %s\n", opNames[o.Kind], o.Req, o.Err)
				}
			}
		}
	}
	for _, s := range bad {
		fmt.Fprintln(os.Stderr, "perfbench: guard:", s)
	}
	res.Correct = res.Failed == 0 && len(bad) == 0 && res.Attempted > 0
}

func (b *bench) traced() (*result, error) {
	// The untraced baseline for the tracing overhead: the same inputs
	// on a fresh world.
	w, p, _, err := b.setup(false)
	if err != nil {
		return nil, err
	}
	base, bad0 := b.measureCounted(w, p, readCounters(w.allServers()))
	w.close()

	w, p, _, err = b.setup(true)
	if err != nil {
		return nil, err
	}
	defer w.close()
	before := readCounters(w.allServers())
	sBefore := w.statsView()
	stop := make(chan struct{})
	var queued []float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				var q int64
				for _, s := range w.allServers() {
					q += s.Stats().Queued
				}
				queued = append(queued, float64(q))
			}
		}
	}()
	ph, bad := b.measureCounted(w, p, before)
	close(stop)
	wg.Wait()
	sAfter := w.statsView()
	o, err := directCalls(w, p, ph, w.cfg.Challenge != nil)
	if err != nil {
		return nil, err
	}
	lm := layers(w, p, ph, base, o, ph.counters, queued, sBefore, sAfter)
	res := &result{Metrics: map[string]metric{}}
	for name, v := range lm {
		res.Metrics[name] = metric{v, layerUnit(name)}
	}
	b.finish(res, append(bad0, bad...), base, ph)
	if err := w.tr.dump(filepath.Join(filepath.Dir(filepath.Dir(b.dir)), "trace-"+b.wl.name+".json")); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	}
	summarize(ph, res.Metrics)
	return res, nil
}

func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"), strings.HasSuffix(name, "_ms_p99"):
		return "ms"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_util"), strings.HasSuffix(name, "_per_fsync"):
		return "ratio"
	}
	return "count"
}

// summarize prints the human-readable view on stderr: every metric with
// its unit, and per-operation latency percentiles with sample counts.
func summarize(ph *phase, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-28s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
	for k := 0; k < nOps; k++ {
		lat := ph.latencies(k)
		if len(lat) == 0 {
			continue
		}
		fmt.Fprintf(os.Stderr, "  %-10s n=%-6d p50=%.3fms p90=%.3fms p99=%.3fms max=%.3fms\n",
			opNames[k], len(lat), quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.99), slices.Max(lat))
	}
	fail := 0
	for _, o := range ph.outcomes {
		if !o.OK {
			fail++
		}
	}
	fmt.Fprintf(os.Stderr, "  p50_ms: %s latency, median over groups of %d consecutive %s requests, %d of them\n",
		opNames[ph.timed], ph.groupSize(), opNames[ph.timed], len(ph.timedOutcomes()))
	fmt.Fprintf(os.Stderr, "  error_rate %d/%d, wall %.2fs\n", fail, len(ph.outcomes), ph.wall.Seconds())
}
