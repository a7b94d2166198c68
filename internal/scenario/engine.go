package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/flashmark/flashmark/internal/challenge"
	"github.com/flashmark/flashmark/internal/counterfeit"
	"github.com/flashmark/flashmark/internal/device"
	"github.com/flashmark/flashmark/internal/floatgate"
	"github.com/flashmark/flashmark/internal/mcu"
	"github.com/flashmark/flashmark/internal/nand"
	"github.com/flashmark/flashmark/internal/registry"
	"github.com/flashmark/flashmark/internal/reram"
	"github.com/flashmark/flashmark/internal/rng"
	"github.com/flashmark/flashmark/internal/service"
	"github.com/flashmark/flashmark/internal/vclock"
	"github.com/flashmark/flashmark/internal/wmcode"
)

// RunOptions tunes one scenario execution.
type RunOptions struct {
	// WorkDir hosts registry state. Empty creates a private temp
	// directory that is removed when Run returns.
	WorkDir string
	// Logf receives one line per executed step (nil discards).
	Logf func(format string, args ...any)
}

// chipState is one chip living in the scenario world.
type chipState struct {
	name  string
	dev   device.Device
	class counterfeit.ChipClass
	die   uint64
	seed  uint64
	// bytes caches the serialized chip file; mutating verbs clear it.
	bytes []byte
}

// world is the running scenario: the virtual timeline, the chip bench,
// and the live in-process daemon.
type world struct {
	sc       *Scenario
	logf     func(string, ...any)
	timeline vclock.Clock
	epoch    time.Time
	factory  counterfeit.FactoryConfig
	chips    map[string]*chipState
	plane    provPlane
	srv      *service.Server
	ts       *httptest.Server
}

// scenarioEpoch anchors the virtual timeline to wall-time zero: every
// duration-since-epoch the daemon observes equals the vclock reading.
var scenarioEpoch = time.Unix(0, 0).UTC()

// Run executes one validated scenario and returns its transcript. Any
// failed step — a device error, an HTTP failure, or an unmet expect —
// aborts the run with an error naming the step.
func Run(sc *Scenario, opts RunOptions) (*Transcript, error) {
	workDir := opts.WorkDir
	if workDir == "" {
		dir, err := os.MkdirTemp("", "fmscenario-"+sc.Name+"-")
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		defer os.RemoveAll(dir)
		workDir = dir
	}
	w := &world{
		sc:    sc,
		logf:  opts.Logf,
		epoch: scenarioEpoch,
		chips: make(map[string]*chipState),
	}
	if w.logf == nil {
		w.logf = func(string, ...any) {}
	}
	if err := w.start(workDir); err != nil {
		return nil, err
	}
	defer w.stop()

	tr := &Transcript{
		Format:   TranscriptFormat,
		Scenario: sc.Name,
		Seed:     "0x" + strconv.FormatUint(sc.Seed, 16),
		Registry: string(sc.Registry),
		Backend:  sc.Config.Backend,
	}
	for i := range sc.Steps {
		st := &sc.Steps[i]
		// Land the virtual clock on exactly the step's instant; the
		// validator guarantees At never decreases, so the delta is
		// non-negative and Advance cannot panic.
		w.timeline.Advance(st.At - w.timeline.Now())
		w.logf("scenario %s: t=%v step %s (%s)", sc.Name, w.timeline.Now(), st.Name, st.Verb)
		result, err := w.execute(st)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: step %q at %v: %w", sc.Name, st.Name, st.At, err)
		}
		tr.Steps = append(tr.Steps, StepRecord{
			Step:   i,
			Name:   st.Name,
			At:     st.At.String(),
			Clock:  w.timeline.Now().String(),
			Verb:   string(st.Verb),
			Result: result,
		})
	}
	return tr, nil
}

// now is the daemon's wall clock: the virtual timeline mapped onto the
// epoch, so latency accounting and enrollment timestamps are pure
// functions of the scenario.
func (w *world) now() time.Time { return w.epoch.Add(w.timeline.Now()) }

// start assembles the factory, the provenance plane, and the in-process
// daemon.
func (w *world) start(workDir string) error {
	cfg := w.sc.Config
	var fab device.Fab
	switch cfg.Backend {
	case "nor":
		part, err := mcu.PartByName(cfg.Part)
		if err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
		fab = mcu.Fab(part)
	case "nand":
		fab = nand.Fab(nand.SmallNAND(), nand.SLCTiming(), floatgate.DefaultParams())
	case "reram":
		fab = reram.DefaultFab()
	default:
		return fmt.Errorf("scenario: unknown backend %q", cfg.Backend)
	}
	w.factory = counterfeit.FactoryConfig{
		Fab:          fab,
		Codec:        wmcode.Codec{Key: []byte(cfg.Key)},
		Manufacturer: cfg.Manufacturer,
		NPE:          cfg.NPE,
	}

	regOpts := registry.Options{NoSync: true, Now: w.now}
	switch w.sc.Registry {
	case RegistryDurable:
		p, err := openDurablePlane(filepath.Join(workDir, "registry"), regOpts)
		if err != nil {
			return err
		}
		w.plane = p
	case RegistryCluster:
		p, err := openClusterPlane(filepath.Join(workDir, "cluster"), w.sc.Shards, regOpts)
		if err != nil {
			return err
		}
		w.plane = p
	}

	svcCfg := service.Config{
		Verifier: counterfeit.Verifier{
			Codec:          wmcode.Codec{Key: []byte(cfg.Key)},
			Manufacturer:   cfg.Manufacturer,
			CheckRecycling: cfg.RecyclingScreen,
		},
		Workers: 1,
		Now:     w.now,
	}
	if f := cfg.Fault; f != nil {
		fc := device.FaultConfig{
			Seed:             f.Seed,
			EraseTimeoutProb: f.EraseTimeout,
			ReadBitFlipProb:  f.ReadBitFlip,
			ProgramErrorProb: f.ProgramError,
		}
		svcCfg.Decorate = func(d device.Device) device.Device {
			return device.InjectFaults(d, fc)
		}
	}
	if w.plane != nil {
		svcCfg.Provenance = w.plane.store()
	}
	if cfg.Challenge {
		// The nonce splits from the scenario seed so every scenario
		// probes its own cell population; a zero draw falls back to the
		// policy default nonce — still a pure function of the document.
		svcCfg.Challenge = &challenge.Policy{
			Nonce: rng.New(w.sc.Seed).Split(0x43525021).Uint64(),
		}
	}
	svcCfg.OmitDeviceFingerprint = !cfg.OracleFingerprint
	srv, err := service.New(svcCfg)
	if err != nil {
		w.stopPlane()
		return fmt.Errorf("scenario: %w", err)
	}
	w.srv = srv
	w.ts = httptest.NewServer(srv.Handler())
	return nil
}

func (w *world) stopPlane() {
	if w.plane != nil {
		if err := w.plane.close(); err != nil {
			w.logf("scenario %s: closing provenance plane: %v", w.sc.Name, err)
		}
		w.plane = nil
	}
}

func (w *world) stop() {
	if w.ts != nil {
		w.ts.Close()
		w.ts = nil
	}
	w.stopPlane()
}

// chipSeed derives a chip's device seed from the scenario seed and the
// chip's name, so every chip's physical identity is a pure function of
// the document no matter where in the step list it is fabricated.
func (w *world) chipSeed(name string, pinned *uint64) uint64 {
	if pinned != nil {
		return *pinned
	}
	h := fnv.New64a()
	io.WriteString(h, name)
	return rng.New(w.sc.Seed).Split2(0x5CE9A810, h.Sum64()).Uint64()
}

func (w *world) chip(name string) (*chipState, error) {
	c, ok := w.chips[name]
	if !ok {
		// The validator rejects references to unfabricated chips, so
		// this only fires for engine bugs — still an error, not a panic.
		return nil, fmt.Errorf("chip %q does not exist", name)
	}
	return c, nil
}

// chipBytes serializes the chip, caching until the next mutation.
func (c *chipState) chipBytes() ([]byte, error) {
	if c.bytes != nil {
		return c.bytes, nil
	}
	var buf bytes.Buffer
	if err := c.dev.Save(&buf); err != nil {
		return nil, fmt.Errorf("serializing chip %q: %w", c.name, err)
	}
	c.bytes = buf.Bytes()
	return c.bytes, nil
}

// chipDigest is the SHA-256 of the chip's serialized state — the same
// digest the daemon reports, recorded after every mutating verb.
func (c *chipState) chipDigest() (string, error) {
	b, err := c.chipBytes()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// execute runs one step and returns its canonical result record.
func (w *world) execute(st *Step) (json.RawMessage, error) {
	switch st.Verb {
	case VerbFabricate:
		return w.execFabricate(st.Fabricate)
	case VerbImprint:
		return w.execImprint(st.Imprint)
	case VerbAge:
		return w.execAge(st.Age)
	case VerbStress:
		return w.execStress(st.Stress)
	case VerbClone:
		return w.execClone(st.Clone)
	case VerbEnroll:
		return w.execEnroll(st.Enroll)
	case VerbVerify:
		return w.execVerify(st.Verify)
	case VerbChallenge:
		return w.execChallenge(st.Challenge)
	case VerbRestartRegistry:
		return w.execRestart()
	case VerbExpect:
		return w.execExpect(st.Expect)
	}
	return nil, fmt.Errorf("unknown verb %q", st.Verb)
}

func (w *world) execFabricate(f *FabricateStep) (json.RawMessage, error) {
	class, err := classByName(f.Class)
	if err != nil {
		return nil, err
	}
	seed := w.chipSeed(f.Chip, f.Seed)
	dev, err := counterfeit.Fabricate(class, w.factory, seed, f.Die)
	if err != nil {
		return nil, fmt.Errorf("fabricating %q: %w", f.Chip, err)
	}
	c := &chipState{name: f.Chip, dev: dev, class: class, die: f.Die, seed: seed}
	w.chips[f.Chip] = c
	digest, err := c.chipDigest()
	if err != nil {
		return nil, err
	}
	die := f.Die
	return marshalResult(chipResult{
		Chip:   f.Chip,
		Class:  class.String(),
		Part:   dev.PartName(),
		Die:    &die,
		Seed:   "0x" + strconv.FormatUint(seed, 16),
		SHA256: digest,
	})
}

func (w *world) execImprint(im *ImprintStep) (json.RawMessage, error) {
	c, err := w.chip(im.Chip)
	if err != nil {
		return nil, err
	}
	status := wmcode.StatusAccept
	if im.Status == "reject" {
		status = wmcode.StatusReject
	}
	if err := w.factory.Imprint(c.dev, im.Die, status); err != nil {
		return nil, fmt.Errorf("imprinting %q: %w", im.Chip, err)
	}
	c.die = im.Die
	c.bytes = nil
	digest, err := c.chipDigest()
	if err != nil {
		return nil, err
	}
	die := im.Die
	return marshalResult(chipResult{Chip: im.Chip, Die: &die, Status: im.Status, SHA256: digest})
}

func (w *world) execAge(a *AgeStep) (json.RawMessage, error) {
	c, err := w.chip(a.Chip)
	if err != nil {
		return nil, err
	}
	if err := device.Age(c.dev, a.Years); err != nil {
		return nil, fmt.Errorf("aging %q: %w", a.Chip, err)
	}
	c.bytes = nil
	digest, err := c.chipDigest()
	if err != nil {
		return nil, err
	}
	return marshalResult(chipResult{Chip: a.Chip, Years: a.Years, SHA256: digest})
}

func (w *world) execStress(s *StressStep) (json.RawMessage, error) {
	c, err := w.chip(s.Chip)
	if err != nil {
		return nil, err
	}
	factory := w.factory
	factory.FieldWearCycles = s.Cycles
	factory.FieldWearSegments = s.Segments
	// The wear pattern splits from the chip's own seed the same way the
	// recycled factory class does, so stressed-then-wiped chips and
	// ClassRecycled chips wear identically.
	if err := factory.ApplyFieldUse(c.dev, c.seed^0xFEED); err != nil {
		return nil, fmt.Errorf("stressing %q: %w", s.Chip, err)
	}
	c.bytes = nil
	digest, err := c.chipDigest()
	if err != nil {
		return nil, err
	}
	return marshalResult(chipResult{Chip: s.Chip, Cycles: s.Cycles, SHA256: digest})
}

func (w *world) execClone(cl *CloneStep) (json.RawMessage, error) {
	victim, err := w.chip(cl.Of)
	if err != nil {
		return nil, err
	}
	seed := w.chipSeed(cl.Chip, cl.Seed)
	dev, err := w.factory.Fab(seed)
	if err != nil {
		return nil, fmt.Errorf("fabricating clone %q: %w", cl.Chip, err)
	}
	if err := counterfeit.ReplayImprintAttack(dev, w.factory, victim.die); err != nil {
		return nil, fmt.Errorf("replay-imprinting %q: %w", cl.Chip, err)
	}
	c := &chipState{
		name:  cl.Chip,
		dev:   dev,
		class: counterfeit.ClassReplayImprint,
		die:   victim.die,
		seed:  seed,
	}
	w.chips[cl.Chip] = c
	digest, err := c.chipDigest()
	if err != nil {
		return nil, err
	}
	die := victim.die
	return marshalResult(chipResult{
		Chip:   cl.Chip,
		Class:  counterfeit.ClassReplayImprint.String(),
		Of:     cl.Of,
		Die:    &die,
		Seed:   "0x" + strconv.FormatUint(seed, 16),
		SHA256: digest,
	})
}

// roundTrip POSTs the chip file to a daemon endpoint, decodes the 200
// answer into rep, runs the verb's expectation check on it, and records
// the answer verbatim.
func (w *world) roundTrip(verb Verb, chip, path string, rep any, check func() error) (json.RawMessage, error) {
	c, err := w.chip(chip)
	if err != nil {
		return nil, err
	}
	body, err := c.chipBytes()
	if err != nil {
		return nil, err
	}
	resp, err := w.ts.Client().Post(w.ts.URL+path, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("POST %s: %w", path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("POST %s: reading response: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %q: HTTP %d: %s", verb, chip, resp.StatusCode, strings.TrimSpace(string(out)))
	}
	if err := json.Unmarshal(out, rep); err != nil {
		return nil, fmt.Errorf("%s %q: decoding report: %w", verb, chip, err)
	}
	if err := check(); err != nil {
		return nil, fmt.Errorf("%s %q: %w", verb, chip, err)
	}
	raw, err := compactJSON(out)
	if err != nil {
		return nil, err
	}
	return marshalResult(httpResult{Chip: chip, Status: resp.StatusCode, Report: raw})
}

func (w *world) execVerify(v *VerifyStep) (json.RawMessage, error) {
	var rep service.ChipReport
	return w.roundTrip(VerbVerify, v.Chip, "/v1/verify", &rep, func() error {
		x := v.Expect
		switch {
		case x == nil:
		case x.Verdict != "" && rep.Verdict != x.Verdict:
			return fmt.Errorf("verdict %s, want %s", rep.Verdict, x.Verdict)
		case x.Accepted != nil && rep.Accepted != *x.Accepted:
			return fmt.Errorf("accepted=%v, want %v", rep.Accepted, *x.Accepted)
		case x.Escalated != nil && (rep.Provenance != "") != *x.Escalated:
			return fmt.Errorf("escalated=%v (provenance %q), want %v", rep.Provenance != "", rep.Provenance, *x.Escalated)
		case x.Fault != nil && (rep.Fault != "") != *x.Fault:
			return fmt.Errorf("fault=%v (%q), want %v", rep.Fault != "", rep.Fault, *x.Fault)
		}
		return nil
	})
}

func (w *world) execEnroll(e *EnrollStep) (json.RawMessage, error) {
	var rep service.EnrollReport
	return w.roundTrip(VerbEnroll, e.Chip, "/v1/enroll", &rep, func() error {
		x := e.Expect
		switch {
		case x == nil:
		case x.Verdict != "" && rep.Verdict != x.Verdict:
			return fmt.Errorf("verdict %s, want %s", rep.Verdict, x.Verdict)
		case x.Duplicate != nil && rep.Duplicate != *x.Duplicate:
			return fmt.Errorf("duplicate=%v, want %v", rep.Duplicate, *x.Duplicate)
		case x.Conflict != nil && rep.Conflict != *x.Conflict:
			return fmt.Errorf("conflict=%v, want %v", rep.Conflict, *x.Conflict)
		case x.Count != nil && rep.Count != *x.Count:
			return fmt.Errorf("count=%d, want %d", rep.Count, *x.Count)
		}
		return nil
	})
}

func (w *world) execChallenge(ch *ChallengeStep) (json.RawMessage, error) {
	var rep service.ChallengeReport
	return w.roundTrip(VerbChallenge, ch.Chip, "/v1/challenge", &rep, func() error {
		x := ch.Expect
		switch {
		case x == nil:
		case x.Verdict != "" && rep.Verdict != x.Verdict:
			return fmt.Errorf("verdict %s, want %s", rep.Verdict, x.Verdict)
		case x.Enrolled != nil && rep.Enrolled != *x.Enrolled:
			return fmt.Errorf("enrolled=%v, want %v", rep.Enrolled, *x.Enrolled)
		case x.Match != nil && rep.Match != *x.Match:
			return fmt.Errorf("match=%v, want %v", rep.Match, *x.Match)
		}
		return nil
	})
}

func (w *world) execRestart() (json.RawMessage, error) {
	if w.plane == nil {
		return nil, fmt.Errorf("restart-registry without a registry")
	}
	if err := w.plane.restart(); err != nil {
		return nil, err
	}
	st := w.plane.store().Stats()
	return marshalResult(expectResult{Registry: &registrySnap{
		Keys:        st.Keys,
		Enrollments: st.Enrollments,
		Conflicts:   st.Conflicts,
	}})
}

func (w *world) execExpect(e *ExpectStep) (json.RawMessage, error) {
	res := expectResult{}
	if len(e.Metrics) > 0 {
		actual, err := w.scrapeMetrics()
		if err != nil {
			return nil, err
		}
		res.Metrics = make(map[string]int64, len(e.Metrics))
		for name, want := range e.Metrics {
			got, ok := actual[name]
			if !ok {
				return nil, fmt.Errorf("expect: /metrics has no series %q", name)
			}
			if got != want {
				return nil, fmt.Errorf("expect: metric %s = %d, want %d", name, got, want)
			}
			res.Metrics[name] = got
		}
	}
	if x := e.Registry; x != nil {
		st := w.plane.store().Stats()
		check := func(what string, got int64, want *int64) error {
			if want != nil && got != *want {
				return fmt.Errorf("expect: registry %s = %d, want %d", what, got, *want)
			}
			return nil
		}
		if err := check("keys", st.Keys, x.Keys); err != nil {
			return nil, err
		}
		if err := check("conflicts", st.Conflicts, x.Conflicts); err != nil {
			return nil, err
		}
		if err := check("enrollments", st.Enrollments, x.Enrollments); err != nil {
			return nil, err
		}
		res.Registry = &registrySnap{
			Keys:        st.Keys,
			Enrollments: st.Enrollments,
			Conflicts:   st.Conflicts,
		}
	}
	return marshalResult(res)
}

// scrapeMetrics fetches and parses the daemon's Prometheus exposition
// into integer-valued series (counters and gauges; histogram series
// parse too, keyed by their full line prefix).
func (w *world) scrapeMetrics() (map[string]int64, error) {
	resp, err := w.ts.Client().Get(w.ts.URL + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	out := make(map[string]int64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		idx := strings.LastIndexByte(line, ' ')
		if idx <= 0 {
			continue
		}
		name, val := line[:idx], line[idx+1:]
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			continue // float series (histogram sums) are not assertable
		}
		out[name] = n
	}
	return out, nil
}

// classByName resolves a counterfeit.ChipClass from its canonical
// string form.
func classByName(name string) (counterfeit.ChipClass, error) {
	classes := []counterfeit.ChipClass{
		counterfeit.ClassGenuineAccept, counterfeit.ClassGenuineReject,
		counterfeit.ClassRecycled, counterfeit.ClassMetadataForgery,
		counterfeit.ClassDigitalClone, counterfeit.ClassTopUpTamper,
		counterfeit.ClassUnmarked, counterfeit.ClassReplayImprint,
	}
	for _, c := range classes {
		if c.String() == name {
			return c, nil
		}
	}
	valid := make([]string, len(classes))
	for i, c := range classes {
		valid[i] = c.String()
	}
	return 0, fmt.Errorf("unknown chip class %q (have %s)", name, strings.Join(valid, ", "))
}
