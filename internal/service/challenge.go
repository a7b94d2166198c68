package service

// The challenge-response plane: the second, independent physical-identity
// axis. Physics verification reads the watermark the factory imprinted;
// the challenge interrogation (internal/challenge) measures which cells
// of a probe segment switch fast under a self-calibrated partial erase —
// process variation no imprint procedure transfers. With Config.Challenge
// set:
//
//   - POST /v1/enroll additionally interrogates the chip and records the
//     response fingerprint in the registry, keyed beside the identity.
//   - POST /v1/challenge screens a chip (it must verify GENUINE),
//     re-interrogates it, and compares against the enrolled response
//     fingerprint: a mismatch escalates to DUPLICATE-ID even when the
//     physics verdict and the fleet registry both cleared the chip.
//
// The response fingerprints live in the same registry as the physical
// identities, under a reserved key prefix, so they replicate and shard
// through the cluster plane unchanged and the single-node and sharded
// answers stay byte-identical.

import (
	"context"
	"encoding/json"
	"net/http"
	"time"

	"github.com/flashmark/flashmark/internal/challenge"
	"github.com/flashmark/flashmark/internal/counterfeit"
	"github.com/flashmark/flashmark/internal/device"
	"github.com/flashmark/flashmark/internal/registry"
)

// ChallengeReport is the response body of POST /v1/challenge.
type ChallengeReport struct {
	SHA256       string `json:"sha256"`
	Manufacturer string `json:"manufacturer"`
	DieID        uint64 `json:"dieId"`
	// Nonce/Segment/PulseUs/Ones/Bits echo the interrogation (see
	// challenge.Response).
	Nonce   uint64  `json:"nonce"`
	Segment int     `json:"segment"`
	PulseUs float64 `json:"pulseUs"`
	Ones    int     `json:"ones"`
	Bits    int     `json:"bits"`
	// Fingerprint is this chip's response fingerprint.
	Fingerprint string `json:"fingerprint"`
	// Enrolled reports whether the registry held a response fingerprint
	// for this identity; Match whether this chip reproduced it.
	Enrolled bool `json:"enrolled"`
	Match    bool `json:"match"`
	// Verdict is GENUINE when the challenge matched (or no enrollment
	// exists to compare against), DUPLICATE-ID on a mismatch.
	Verdict  string `json:"verdict"`
	Accepted bool   `json:"accepted"`
	// Provenance explains an escalation.
	Provenance   string `json:"provenance,omitempty"`
	DeviceTimeUs int64  `json:"deviceTimeUs"`
}

// challengeKeyPrefix reserves a registry namespace for challenge
// fingerprints. The NUL bytes cannot appear in a decoded watermark
// manufacturer (payload strings are printable), so derived keys never
// collide with physical-identity keys.
const challengeKeyPrefix = "\x00crp\x00"

// challengeKey derives the registry key a chip identity's challenge
// fingerprint is stored under. It rides the same Store interface —
// WAL, replication, and shard routing apply unchanged.
func challengeKey(k registry.Key) registry.Key {
	return registry.Key{Manufacturer: challengeKeyPrefix + k.Manufacturer, DieID: k.DieID}
}

// Escalation reasons for the challenge axis. Shared constants keep the
// single-node and cluster response bodies byte-identical.
const (
	challengeMismatchReason = "chip answered the challenge with a different response fingerprint than enrolled for this die id"
	challengeConflictReason = "challenge fingerprint for this die id is conflicted in the fleet registry"
)

// interrogateRaw loads a fresh device from the posted chip bytes and
// runs the configured challenge interrogation on it. The device is
// rebuilt per call (interrogation destroys the probe segment's content,
// and recycled loader storage must not outlive the call).
func (s *Server) interrogateRaw(raw []byte) (challenge.Response, int64, error) {
	var (
		resp  challenge.Response
		devUs int64
	)
	err := s.withChip(raw, func(dev device.Device) error {
		var err error
		resp, err = challenge.Interrogate(dev, *s.cfg.Challenge)
		if err != nil {
			return &httpError{http.StatusUnprocessableEntity, "challenge interrogation failed: " + err.Error()}
		}
		devUs = dev.Clock().Now().Microseconds()
		return nil
	})
	if err != nil {
		return challenge.Response{}, 0, err
	}
	return resp, devUs, nil
}

// enrollChallenge records a chip's challenge-response fingerprint
// beside its enrolled identity. Returns the interrogation and whether
// the registry now holds conflicting response fingerprints for the id
// (a different physical chip enrolled the same identity earlier).
func (s *Server) enrollChallenge(k registry.Key, source string, raw []byte) (challenge.Response, registry.EnrollResult, error) {
	resp, _, err := s.interrogateRaw(raw)
	if err != nil {
		return challenge.Response{}, registry.EnrollResult{}, err
	}
	res, err := s.cfg.Provenance.Enroll(registry.Enrollment{
		Key:         challengeKey(k),
		Fingerprint: resp.Fingerprint,
		Source:      source,
		UnixMicro:   s.cfg.Now().UnixMicro(),
	})
	if err != nil {
		return challenge.Response{}, registry.EnrollResult{},
			&httpError{http.StatusInternalServerError, "challenge enrollment failed: " + err.Error()}
	}
	return resp, res, nil
}

// serveChallenge answers POST /v1/challenge: screen the chip (only a
// physics-GENUINE chip is worth challenging), interrogate it, and judge
// the response against the enrolled fingerprint.
func (s *Server) serveChallenge(ctx context.Context, req *request) ([]byte, error) {
	rep, k, _, err := s.screenIdentity(ctx, req.raw, "challenged")
	if err != nil {
		return nil, err
	}
	resp, devUs, err := s.interrogateRaw(req.raw)
	if err != nil {
		return nil, err
	}
	s.met.challenges.Inc()
	out := ChallengeReport{
		SHA256:       rep.SHA256,
		Manufacturer: k.Manufacturer,
		DieID:        k.DieID,
		Nonce:        resp.Nonce,
		Segment:      resp.Segment,
		PulseUs:      resp.PulseUs,
		Ones:         resp.Ones,
		Bits:         resp.Bits,
		Fingerprint:  resp.Fingerprint.String(),
		Verdict:      counterfeit.VerdictGenuine.String(),
		Accepted:     true,
		DeviceTimeUs: devUs,
	}
	lr, found := s.cfg.Provenance.Lookup(challengeKey(k))
	switch {
	case !found || lr.Fingerprint.IsZero() && !lr.Conflict:
		s.met.challengeUnenrolled.Inc()
	case lr.Conflict:
		out.Enrolled = true
		s.met.challengeMismatches.Inc()
		s.met.escalations.Inc()
		out.Verdict = counterfeit.VerdictDuplicateID.String()
		out.Accepted = false
		out.Provenance = challengeConflictReason
	case lr.Fingerprint == resp.Fingerprint:
		out.Enrolled = true
		out.Match = true
		s.met.challengeMatches.Inc()
	default:
		out.Enrolled = true
		s.met.challengeMismatches.Inc()
		s.met.escalations.Inc()
		out.Verdict = counterfeit.VerdictDuplicateID.String()
		out.Accepted = false
		out.Provenance = challengeMismatchReason
	}
	if out.Accepted {
		s.countChip(counterfeit.VerdictGenuine)
	} else {
		s.countChip(counterfeit.VerdictDuplicateID)
	}
	body, err := json.Marshal(out)
	if err != nil {
		return nil, &httpError{http.StatusInternalServerError, "encoding report: " + err.Error()}
	}
	s.logf("challenge %s/%d (%s) -> %s (enrolled=%v match=%v) in %v",
		k.Manufacturer, k.DieID, rep.SHA256[:12], out.Verdict, out.Enrolled, out.Match,
		s.since(req.start).Round(time.Millisecond))
	return body, nil
}
