// Package challenge derives per-chip challenge-response fingerprints
// from programming-disturb statistics, in the spirit of the intrinsic
// NAND PUF (arXiv 2111.05459) and SIGNED (arXiv 2010.05209): the
// response is a function of *which cells switch fast* under a
// partially-completed erase, an analog identity the die carries in its
// process variation and that no digital copy reproduces.
//
// The interrogation is substrate-neutral — it uses only the
// device.Device surface, so one flow serves NOR, NAND and ReRAM
// chips. A challenge nonce selects the probed cell population (the
// pattern programmed into the probe segment); the probe pulse is
// *self-calibrated* against the die's own switching distribution by
// binary search, so the response bits split near 50/50 and carry
// maximal per-cell entropy regardless of the substrate's absolute
// timing scale.
//
// Determinism contract: for a fixed chip state (serialized chip
// bytes) and a fixed Policy, Interrogate is a pure function — the
// verification service loads a fresh device from the posted bytes per
// request, so enrollment-time and screening-time fingerprints of the
// same physical chip match exactly, while a different die (same
// digital content, different process variation) diverges in the
// response bits with overwhelming probability.
package challenge

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/bits"
	"time"

	"github.com/flashmark/flashmark/internal/device"
	"github.com/flashmark/flashmark/internal/registry"
	"github.com/flashmark/flashmark/internal/rng"
)

// Policy fixes the interrogation parameters. The zero value selects
// the defaults; the nonce should be deployment-chosen (it defines the
// challenge, and with it the probed cell population).
type Policy struct {
	// Nonce selects the challenge: the probe pattern is derived from it
	// alone, so any party holding the nonce can reproduce the
	// interrogation. Zero selects DefaultNonce.
	Nonce uint64
	// Reads is the odd majority-read count for the response probe
	// (zero selects 5).
	Reads int
}

// DefaultNonce is the nonce used when the policy leaves it zero.
const DefaultNonce = 0x464C4153_484D4B43 // "FLASHMKC"

func (p Policy) withDefaults() Policy {
	if p.Nonce == 0 {
		p.Nonce = DefaultNonce
	}
	if p.Reads == 0 {
		p.Reads = 5
	}
	return p
}

// Validate reports whether the policy is usable.
func (p Policy) Validate() error {
	p = p.withDefaults()
	if p.Reads%2 == 0 || p.Reads < 0 {
		return fmt.Errorf("challenge: majority reads must be odd and positive, got %d", p.Reads)
	}
	return nil
}

// Response is one interrogation outcome.
type Response struct {
	// Nonce echoes the challenge.
	Nonce uint64
	// Segment is the probe segment index (the last segment of the
	// array, clear of the watermark segment and factory data segments).
	Segment int
	// PulseUs is the self-calibrated probe pulse in microseconds.
	PulseUs float64
	// Ones / Bits count the response-vector population: of Bits probed
	// cells, Ones switched within the calibrated pulse.
	Ones int
	Bits int
	// Fingerprint is the SHA-256 digest of the full response vector,
	// ready for registry enrollment as a second physical-identity axis.
	Fingerprint registry.Fingerprint
}

// fingerprintDomain separates challenge digests from every other
// fingerprint domain in the registry.
const fingerprintDomain = "flashmark-challenge/v1"

// calibrationSteps is the binary-search depth for the probe pulse.
const calibrationSteps = 12

// Interrogate runs the challenge-response flow on a chip: program a
// nonce-derived pattern into the probe segment, self-calibrate a
// partial-erase pulse to the die's median switching time over the
// probed cells, then read the response vector under majority voting.
// The probe segment's digital content is destroyed (like watermark
// extraction, the flow is erase-based); conditioning wear of the ~15
// probe cycles is negligible against the imprint scale.
func Interrogate(dev device.Device, pol Policy) (Response, error) {
	pol = pol.withDefaults()
	if err := pol.Validate(); err != nil {
		return Response{}, err
	}
	geom := dev.Geometry()
	seg := geom.TotalSegments() - 1
	addr, err := geom.AddrOfSegment(seg)
	if err != nil {
		return Response{}, err
	}
	words := geom.WordsPerSegment()
	mask := uint64(1)<<uint(geom.WordBits()) - 1

	// The challenge pattern depends on the nonce alone (never on the
	// chip), so the same nonce probes the same cell population on every
	// chip of the geometry. Zero bits are the probed population: those
	// cells are driven programmed and race the probe pulse.
	pattern := make([]uint64, words)
	r := rng.New(pol.Nonce).Split(0x50554646) // "PUFF"
	probed := 0
	for i := range pattern {
		pattern[i] = r.Uint64() & mask
		probed += geom.WordBits() - bits.OnesCount64(pattern[i])
	}
	if probed == 0 {
		return Response{}, fmt.Errorf("challenge: nonce %#x probes no cells", pol.Nonce)
	}

	if err := dev.Unlock(); err != nil {
		return Response{}, err
	}
	defer dev.Lock()

	// Upper search bound: the adaptive erase measures how long the
	// slowest probed cell takes to switch, so the calibrated pulse is
	// certain to lie inside [0, hi].
	if err := dev.EraseSegment(addr); err != nil {
		return Response{}, err
	}
	if err := dev.ProgramBlock(addr, pattern); err != nil {
		return Response{}, err
	}
	hiPulse, err := dev.EraseSegmentAdaptive(addr)
	if err != nil {
		return Response{}, err
	}

	// Binary-search the pulse that switches about half the probed
	// cells: the median of the die's switching distribution, where the
	// response bits carry maximal entropy. Each trial rewrites the
	// pattern (the aborted erase leaves the segment dirty), aborts the
	// erase at the trial pulse, and takes a single read.
	probe := func(pulse time.Duration) (int, error) {
		if err := dev.EraseSegment(addr); err != nil {
			return 0, err
		}
		if err := dev.ProgramBlock(addr, pattern); err != nil {
			return 0, err
		}
		if err := dev.PartialEraseSegment(addr, pulse); err != nil {
			return 0, err
		}
		got, err := dev.ReadSegment(addr)
		if err != nil {
			return 0, err
		}
		ones := 0
		for i, v := range got {
			// Count probed cells (pattern 0) that read erased (1).
			ones += bits.OnesCount64(v &^ pattern[i] & mask)
		}
		return ones, nil
	}
	lo, hi := time.Duration(0), hiPulse
	for step := 0; step < calibrationSteps; step++ {
		mid := lo + (hi-lo)/2
		ones, err := probe(mid)
		if err != nil {
			return Response{}, err
		}
		if ones*2 < probed {
			lo = mid
		} else {
			hi = mid
		}
	}
	pulse := lo + (hi-lo)/2

	// The response probe: rewrite, abort at the calibrated pulse, and
	// majority-vote the reads so near-threshold cells answer stably.
	if err := dev.EraseSegment(addr); err != nil {
		return Response{}, err
	}
	if err := dev.ProgramBlock(addr, pattern); err != nil {
		return Response{}, err
	}
	if err := dev.PartialEraseSegment(addr, pulse); err != nil {
		return Response{}, err
	}
	votes := make([]int, words*geom.WordBits())
	for read := 0; read < pol.Reads; read++ {
		got, err := dev.ReadSegment(addr)
		if err != nil {
			return Response{}, err
		}
		for w, v := range got {
			for v != 0 {
				bit := bits.TrailingZeros64(v)
				votes[w*geom.WordBits()+bit]++
				v &= v - 1
			}
		}
	}
	dev.ChargeHostTransfer(pol.Reads * geom.SegmentBytes)

	// The response vector: one bit per probed cell, 1 if the cell
	// switched within the calibrated pulse (majority of reads saw it
	// erased). Digest domain, nonce, geometry-stable location, the
	// quantized pulse, and the vector itself.
	h := sha256.New()
	h.Write([]byte(fingerprintDomain))
	var scratch [8]byte
	writeU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:], v)
		h.Write(scratch[:])
	}
	writeU64(pol.Nonce)
	writeU64(uint64(seg))
	writeU64(uint64(pulse / time.Nanosecond))
	ones := 0
	for w := 0; w < words; w++ {
		var v uint64
		for bit := 0; bit < geom.WordBits(); bit++ {
			if pattern[w]&(1<<uint(bit)) != 0 {
				continue // not probed
			}
			if votes[w*geom.WordBits()+bit]*2 > pol.Reads {
				v |= 1 << uint(bit)
				ones++
			}
		}
		writeU64(v)
	}
	var fp registry.Fingerprint
	h.Sum(fp[:0])

	return Response{
		Nonce:       pol.Nonce,
		Segment:     seg,
		PulseUs:     float64(pulse) / float64(time.Microsecond),
		Ones:        ones,
		Bits:        probed,
		Fingerprint: fp,
	}, nil
}
