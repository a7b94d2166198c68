package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"slices"
	"time"

	"github.com/flashmark/flashmark/internal/counterfeit"
	"github.com/flashmark/flashmark/internal/device"
	"github.com/flashmark/flashmark/internal/floatgate"
	"github.com/flashmark/flashmark/internal/mcu"
	"github.com/flashmark/flashmark/internal/nand"
	"github.com/flashmark/flashmark/internal/parallel"
	"github.com/flashmark/flashmark/internal/registry"
	"github.com/flashmark/flashmark/internal/reram"
	"github.com/flashmark/flashmark/internal/rng"
	"github.com/flashmark/flashmark/internal/wmcode"
)

// The daemon under test and the fleet share one watermark key and the
// factory's default manufacturer.
const (
	watermarkKey = "perfbench-key"
	manufacturer = "TC"
	norPart      = "FM-SIM16"
)

// Backends, named as the per-layer rows name them.
const (
	bNOR   = "nor"
	bReRAM = "reram"
	bNAND  = "nand"
)

var backends = []string{bNOR, bReRAM, bNAND}

func fabFor(b string) (device.Fab, error) {
	switch b {
	case bNOR:
		part, err := mcu.PartByName(norPart)
		if err != nil {
			return nil, err
		}
		return mcu.Fab(part), nil
	case bReRAM:
		return reram.DefaultFab(), nil
	case bNAND:
		return nand.Fab(nand.SmallNAND(), nand.SLCTiming(), floatgate.DefaultParams()), nil
	}
	return nil, fmt.Errorf("unknown backend %q", b)
}

func partNameOf(b string) string {
	switch b {
	case bReRAM:
		return reram.PartName
	case bNAND:
		return nand.AdapterName
	}
	return norPart
}

func backendOf(part string) string {
	switch part {
	case reram.PartName:
		return bReRAM
	case nand.AdapterName:
		return bNAND
	}
	return bNOR
}

// chip is one fleet member: its ground truth and the bytes a client
// uploads.
type chip struct {
	Backend string
	Class   counterfeit.ChipClass
	Seed    uint64
	DieID   uint64
	Bytes   []byte
}

func (c *chip) key() string {
	return identity(registry.Key{Manufacturer: manufacturer, DieID: c.DieID})
}

// genuine and clone are the classes with a signed identity; every other
// class is a counterfeit the verifier must refuse.
func (c *chip) genuine() bool { return c.Class == counterfeit.ClassGenuineAccept }
func (c *chip) clone() bool   { return c.Class == counterfeit.ClassReplayImprint }

// wantVerdict judges one /v1/verify answer against the ground truth:
// genuine -> GENUINE, and a refusal for a clone or any counterfeit. A
// clone of an enrolled victim is refused as DUPLICATE-ID unless its
// imperfect replay imprint already fails physics (TAMPERED), which is
// refusal too. falseAccept marks a clone or counterfeit accepted.
func (c *chip) wantVerdict(verdict string, accepted bool) (ok, falseAccept bool) {
	if c.genuine() {
		return verdict == "GENUINE" && accepted, false
	}
	return !accepted && verdict != "ERROR" && verdict != "INCONCLUSIVE", accepted
}

// counterfeitClasses are the non-clone attacker models.
var counterfeitClasses = []counterfeit.ChipClass{
	counterfeit.ClassRecycled,
	counterfeit.ClassMetadataForgery,
	counterfeit.ClassUnmarked,
	counterfeit.ClassDigitalClone,
}

// victim is an identity enrolled during set-up whose die id the clones
// in the fleet replay.
type victim struct {
	Backend string
	Seed    uint64
	DieID   uint64
}

func (v victim) enrollment() registry.Enrollment {
	return registry.Enrollment{
		Key:         registry.Key{Manufacturer: manufacturer, DieID: v.DieID},
		Fingerprint: registry.DeviceFingerprint(partNameOf(v.Backend), v.Seed),
		Source:      "perfbench-setup",
	}
}

// Op kinds, one per endpoint.
const (
	opVerify = iota
	opBatch
	opEnroll
	opChallenge
	nOps
)

var opNames = [nOps]string{"verify", "batch", "enroll", "challenge"}
var opPaths = [nOps]string{"/v1/verify", "/v1/verify/batch", "/v1/enroll", "/v1/challenge"}

// request is one planned operation over fleet chips (indices into
// plan.chips). body is filled when the fleet is fabricated.
type request struct {
	Kind  int
	Chips []int
	Due   time.Duration // open loop only
	body  []byte
}

// plan is a workload's complete input: chip specs, set-up victims, the
// set-up warm-up scans and the measured request list. It is a pure
// function of the workload, the seed and the run length.
type plan struct {
	chips   []chip
	victims []victim
	// victimChips are fleet chips enrolled through /v1/enroll during
	// set-up (dock-stream); victims are enrolled straight into the store.
	victimChips []int
	warm        []int
	requests    []request
	openLoop    bool
	// timed is the op kind p50_ms is taken over: the workload's verdict
	// request (verify, or batch on batch-intake).
	timed int
	// group is how many consecutive timed requests one latency
	// percentile is taken over (0: see phase.groupSize); dock-stream
	// uses half a block's verifies.
	group int
}

// fabricate manufactures every chip of the plan and encodes the request
// bodies. Chip i's bytes depend only on its spec, so the fan-out is safe.
func (p *plan) fabricate() error {
	factories := map[string]counterfeit.FactoryConfig{}
	for _, b := range backends {
		fab, err := fabFor(b)
		if err != nil {
			return err
		}
		factories[b] = counterfeit.FactoryConfig{Fab: fab, Codec: wmcode.Codec{Key: []byte(watermarkKey)}, Manufacturer: manufacturer}
	}
	// Die-sort read-back: a genuine die whose fresh watermark does not
	// extract cleanly (about 1 in 150 NOR dice) is binned by the
	// manufacturer and the next die of its own seed stream is used.
	sortCheck := counterfeit.Verifier{Codec: wmcode.Codec{Key: []byte(watermarkKey)}, Manufacturer: manufacturer}
	out, err := parallel.Map(parallel.Pool{Workers: runtime.GOMAXPROCS(0)}, len(p.chips), func(i int) ([]byte, error) {
		c := &p.chips[i]
		redraw := rng.New(c.Seed)
		var dev device.Device
		for attempt := 0; ; attempt++ {
			d, err := counterfeit.Fabricate(c.Class, factories[c.Backend], c.Seed, c.DieID)
			if err != nil {
				return nil, fmt.Errorf("fabricating chip %d (%s %s): %w", i, c.Backend, c.Class, err)
			}
			if !c.genuine() {
				dev = d
				break
			}
			res, err := sortCheck.Verify(d)
			if err != nil {
				return nil, err
			}
			if res.Verdict == counterfeit.VerdictGenuine {
				// Re-fabricate: the read-back wore the watermark segment.
				if dev, err = counterfeit.Fabricate(c.Class, factories[c.Backend], c.Seed, c.DieID); err != nil {
					return nil, err
				}
				break
			}
			if attempt == 8 {
				return nil, fmt.Errorf("chip %d: no %s die of its seed stream passes die-sort", i, c.Backend)
			}
			c.Seed = redraw.Uint64()
		}
		var buf bytes.Buffer
		if err := dev.Save(&buf); err != nil {
			return nil, fmt.Errorf("serializing chip %d: %w", i, err)
		}
		// Trimmed, so a chip inside a batch body is byte-identical to the
		// same chip posted alone and both hit one verdict-cache entry.
		return bytes.TrimSpace(buf.Bytes()), nil
	})
	if err != nil {
		return err
	}
	for i := range p.chips {
		p.chips[i].Bytes = out[i]
	}
	for i := range p.requests {
		r := &p.requests[i]
		if r.Kind != opBatch {
			r.body = p.chips[r.Chips[0]].Bytes
			continue
		}
		// Spliced by hand: json.Marshal would re-encode every chip file.
		body := []byte(`{"chips":[`)
		for j, ci := range r.Chips {
			if j > 0 {
				body = append(body, ',')
			}
			body = append(body, p.chips[ci].Bytes...)
		}
		r.body = append(body, "]}"...)
	}
	return nil
}

// digest is a SHA-256 over the fleet bytes and the request schedule:
// two runs with equal digests sent the same inputs.
func (p *plan) digest() string {
	h := sha256.New()
	h.Write([]byte("perfbench-inputs/v1\x00"))
	var b [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, c := range p.chips {
		h.Write([]byte(c.Backend))
		u(uint64(c.Class))
		u(c.DieID)
		u(uint64(len(c.Bytes)))
		h.Write(c.Bytes)
	}
	for _, v := range p.victims {
		h.Write([]byte(v.Backend))
		u(v.Seed)
		u(v.DieID)
	}
	for _, i := range p.victimChips {
		u(uint64(i))
	}
	for _, i := range p.warm {
		u(uint64(i))
	}
	for _, r := range p.requests {
		u(uint64(r.Kind))
		u(uint64(r.Due))
		u(uint64(len(r.Chips)))
		for _, c := range r.Chips {
			u(uint64(c))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Die-id ranges keep victims, list chips and counterfeits apart.
const (
	victimBase = 0x20_0000
	chipBase   = 0x30_0000
)

// builder assigns chip seeds and die ids from the workload seed.
type builder struct {
	p     *plan
	seeds *rng.Stream
	draw  *rng.Stream
}

func newBuilder(seed uint64) *builder {
	m := rng.New(seed)
	return &builder{p: &plan{}, seeds: m.Split(0x5EED), draw: m.Split(0xD4A7)}
}

func (b *builder) addChip(backend string, class counterfeit.ChipClass, die uint64) int {
	i := len(b.p.chips)
	if die == 0 {
		die = chipBase + uint64(i)
	}
	b.p.chips = append(b.p.chips, chip{Backend: backend, Class: class, Seed: b.seeds.Uint64(), DieID: die})
	return i
}

func (b *builder) addVictim(backend string) victim {
	v := victim{Backend: backend, Seed: b.seeds.Uint64(), DieID: victimBase + uint64(len(b.p.victims))}
	b.p.victims = append(b.p.victims, v)
	return v
}

// victimOf picks an enrolled victim of the given backend for a clone.
func (b *builder) victimOf(backend string) victim {
	var of []victim
	for _, v := range b.p.victims {
		if v.Backend == backend {
			of = append(of, v)
		}
	}
	return of[b.draw.Intn(len(of))]
}

// shuffled returns a seeded permutation of xs.
func shuffled[T any](r *rng.Stream, xs []T) []T {
	out := make([]T, len(xs))
	for i, j := range r.Perm(len(xs)) {
		out[i] = xs[j]
	}
	return out
}

func repeat[T any](x T, n int) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = x
	}
	return out
}

// batchIntakePlan: 16 batches of 16 never-sent chips. Every batch holds
// the same chips by backend and class, so every batch costs about the
// same; the seed draws order, victims and physical identities. Classes
// follow the fleet of scripts/loadgen_slo.sh (24 genuine : 8 clones : 8
// counterfeits, 3:1:1, here 10:3:3), backends 3 NOR : 1 ReRAM — NOR: 8
// genuine, 2 replay clones of set-up victims, one recycled, one
// metadata forgery; ReRAM: 2 genuine, 1 clone, 1 digital clone.
func batchIntakePlan(seed uint64) *plan {
	b := newBuilder(seed)
	for i := 0; i < 16; i++ {
		bk := bNOR
		if i%4 == 3 {
			bk = bReRAM
		}
		b.addVictim(bk)
	}
	b.p.timed = opBatch
	type slot struct {
		backend string
		class   counterfeit.ChipClass
	}
	var slots []slot
	add := func(bk string, cl counterfeit.ChipClass, n int) {
		for i := 0; i < n; i++ {
			slots = append(slots, slot{bk, cl})
		}
	}
	add(bNOR, counterfeit.ClassGenuineAccept, 8)
	add(bNOR, counterfeit.ClassReplayImprint, 2)
	add(bNOR, counterfeit.ClassRecycled, 1)
	add(bNOR, counterfeit.ClassMetadataForgery, 1)
	add(bReRAM, counterfeit.ClassGenuineAccept, 2)
	add(bReRAM, counterfeit.ClassReplayImprint, 1)
	add(bReRAM, counterfeit.ClassDigitalClone, 1)
	for n := 0; n < 16; n++ {
		req := request{Kind: opBatch}
		for _, s := range shuffled(b.draw, slots) {
			var die uint64
			if s.class == counterfeit.ClassReplayImprint {
				die = b.victimOf(s.backend).DieID
			}
			req.Chips = append(req.Chips, b.addChip(s.backend, s.class, die))
		}
		b.p.requests = append(b.p.requests, req)
	}
	return b.p
}

// nandIntakePlan: 8 never-seen NAND chips in two blocks of four: two
// genuine and one clone in seeded order, all three running the full
// extraction and recycling screen, then one metadata forgery, refused
// after extraction. No recycled parts: their 7 MB NAND files would make
// the peak RSS depend on where a garbage collection falls.
func nandIntakePlan(seed uint64) *plan {
	b := newBuilder(seed)
	b.p.timed = opVerify
	for i := 0; i < 4; i++ {
		b.addVictim(bNAND)
	}
	block := []counterfeit.ChipClass{
		counterfeit.ClassGenuineAccept, counterfeit.ClassGenuineAccept, counterfeit.ClassReplayImprint,
	}
	for n := 0; n < 2; n++ {
		for _, cl := range append(shuffled(b.draw, block), counterfeit.ClassMetadataForgery) {
			var die uint64
			if cl == counterfeit.ClassReplayImprint {
				die = b.victimOf(bNAND).DieID
			}
			b.p.requests = append(b.p.requests, request{Kind: opVerify, Chips: []int{b.addChip(bNAND, cl, die)}})
		}
	}
	return b.p
}

// The dock's traffic is the committed SLO scenario of
// scripts/loadgen_slo.sh: fmloadgen at 120 req/s with a verify : batch :
// enroll mix of 8:1:1, batch sizes 1+⌊Exp·3⌋ capped at 16, and a fleet
// of 24 genuine : 8 clones : 8 counterfeits. Three shares that scenario
// does not fix are assumptions, each chosen to exercise one path while
// keeping the two connections about 40% busy, so the median verify is a
// cache hit that did not queue behind a write even when the host runs
// slow: one challenge per five enrolls (the challenge plane), a
// sixteenth of the verifies are first sightings (the miss path; the
// loadgen's 40-chip fleet makes them rarer still), and backends are
// 3 NOR : 1 ReRAM, batch-intake's share.
const dockRate = 120.0

// dockBlock is the exact mix of every dockBlockLen consecutive arrivals:
// 320 verifies (dockFresh of them first sightings), 40 batches, 40
// enrolls and 8 challenges. Kinds are shuffled within a block, so the
// mix of any stretch of the run is fixed while the order is seeded.
var dockBlock = map[int]int{opVerify: 320, opBatch: 40, opEnroll: 40, opChallenge: 8}

const (
	dockBlockLen = 408
	dockFresh    = 20 // first sightings per block, out of its verifies
)

// dockStreamPlan: a Poisson dock at a fixed rate. Victims are fleet
// chips enrolled through /v1/enroll during set-up (so their challenge
// fingerprints are on file); the warm set is scanned during set-up so
// re-scans hit the verdict cache, and enroll candidates are parts the
// dock already scanned. Every backend share is exact: 3 NOR to 1 ReRAM
// among victims, clones, counterfeits, enroll candidates, first
// sightings and challenge targets. Re-scans, first sightings and
// challenge targets are genuine : clone : counterfeit 3:1:1 like the
// loadgen fleet (challenges go to victims and clones only, 3:1).
func dockStreamPlan(seed uint64, seconds int) *plan {
	b := newBuilder(seed)
	b.p.openLoop = true
	b.p.timed = opVerify
	b.p.group = dockBlock[opVerify] / 2
	blocks := max(1, int(dockRate*float64(seconds)/dockBlockLen+0.5))
	n := dockBlockLen * blocks

	bk := func(i int) string {
		if i%4 == 3 {
			return bReRAM
		}
		return bNOR
	}
	var victims, clones, fakes, candidates []int
	for i := 0; i < 24; i++ {
		victims = append(victims, b.addChip(bk(i), counterfeit.ClassGenuineAccept, victimBase+uint64(i)))
	}
	b.p.victimChips = victims
	victimDie := func(backend string) uint64 {
		for {
			v := b.p.chips[victims[b.draw.Intn(len(victims))]]
			if v.Backend == backend {
				return v.DieID
			}
		}
	}
	for i := 0; i < 8; i++ {
		clones = append(clones, b.addChip(bk(i), counterfeit.ClassReplayImprint, victimDie(bk(i))))
		fakes = append(fakes, b.addChip(bk(i), counterfeitClasses[i%len(counterfeitClasses)], 0))
	}
	for i := 0; i < blocks*dockBlock[opEnroll]; i++ {
		candidates = append(candidates, b.addChip(bk(i), counterfeit.ClassGenuineAccept, 0))
	}
	b.p.warm = append(append(append(append([]int{}, victims...), clones...), fakes...), candidates...)
	genuine := append(append([]int{}, victims...), candidates...)
	// rescan picks a warm chip, genuine : clone : counterfeit 3:1:1.
	rescan := func() int {
		from := genuine
		switch b.draw.Intn(5) {
		case 3:
			from = clones
		case 4:
			from = fakes
		}
		return from[b.draw.Intn(len(from))]
	}

	// Arrival times: a Poisson process conditioned on n arrivals in the
	// window is n sorted uniform times.
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(b.draw.Float64() * float64(seconds) * float64(time.Second))
	}
	slices.Sort(dues)

	// One block's first sightings (no recycled parts: their 1.7 MB files
	// would dominate set-up) and challenge targets (3 victims : 1 clone).
	type spec struct {
		backend string
		class   counterfeit.ChipClass
	}
	var freshSpecs []spec
	for i := 0; i < dockFresh; i++ {
		cl := counterfeit.ClassGenuineAccept
		switch i % 5 {
		case 3:
			cl = counterfeit.ClassReplayImprint
		case 4:
			cl = counterfeitClasses[1+(i/5)%3]
		}
		freshSpecs = append(freshSpecs, spec{bk(i / 5), cl})
	}
	pick := func(from []int, backend string) int {
		for {
			if c := from[b.draw.Intn(len(from))]; b.p.chips[c].Backend == backend {
				return c
			}
		}
	}
	var block []int
	for k := 0; k < nOps; k++ {
		block = append(block, repeat(k, dockBlock[k])...)
	}
	nextEnroll := 0
	for blk := 0; blk < blocks; blk++ {
		fresh := shuffled(b.draw, freshSpecs)
		isFresh := shuffled(b.draw, append(repeat(true, dockFresh), repeat(false, dockBlock[opVerify]-dockFresh)...))
		nv, nc := 0, 0
		for _, k := range shuffled(b.draw, block) {
			r := request{Kind: k, Due: dues[len(b.p.requests)]}
			switch k {
			case opVerify:
				if isFresh[nv] {
					f := fresh[0]
					fresh = fresh[1:]
					var die uint64
					if f.class == counterfeit.ClassReplayImprint {
						die = victimDie(f.backend)
					}
					r.Chips = []int{b.addChip(f.backend, f.class, die)}
				} else {
					r.Chips = []int{rescan()}
				}
				nv++
			case opEnroll:
				r.Chips = []int{candidates[nextEnroll]}
				nextEnroll++
			case opChallenge:
				from := victims
				if nc%4 == 2 {
					from = clones
				}
				r.Chips = []int{pick(from, bk(nc))}
				nc++
			case opBatch:
				// fmloadgen's batch sizes, warm chips, never two claiming
				// one die id: a batch holding a victim and its clone taints
				// both by design.
				size := min(16, 1+int(b.draw.Exp()*3))
				seen := map[uint64]bool{}
				for len(r.Chips) < size {
					c := rescan()
					if die := b.p.chips[c].DieID; !seen[die] {
						seen[die] = true
						r.Chips = append(r.Chips, c)
					}
				}
			}
			b.p.requests = append(b.p.requests, r)
		}
	}
	return b.p
}
