package service

// Provenance: the service-side face of the fleet-scale registry. With
// Config.Provenance set, fmverifyd keeps a durable ledger of which
// physical chip (fingerprint) owns each signed die identity, across
// batches and process restarts:
//
//   - POST /v1/enroll screens a chip and, if it verifies GENUINE,
//     records (manufacturer, die id) -> fingerprint in the registry.
//   - /v1/verify and /v1/verify/batch escalate a physics-GENUINE chip
//     to DUPLICATE-ID when its die id is on file under a different
//     physical fingerprint (or the id is already conflicted) — the
//     replay-imprint clone caught even when clone and victim never
//     meet in one batch.
//   - /v1/verify/batch additionally cross-checks the batch against
//     itself with the same dedup kernel, scoped to the request.
//
// Escalation happens outside the verdict cache: cached entries hold the
// physics verdict (a pure function of the chip bytes), and the registry
// overlay is applied per request, serially in input order, so responses
// stay deterministic for a given registry state.

import (
	"context"
	"encoding/json"
	"net/http"
	"time"

	"github.com/flashmark/flashmark/internal/counterfeit"
	"github.com/flashmark/flashmark/internal/metrics"
	"github.com/flashmark/flashmark/internal/registry"
)

// EnrollReport is the response body of POST /v1/enroll.
type EnrollReport struct {
	SHA256       string `json:"sha256"`
	Manufacturer string `json:"manufacturer"`
	DieID        uint64 `json:"dieId"`
	Fingerprint  string `json:"fingerprint"`
	// Verdict is the screening verdict: GENUINE for a clean enrollment,
	// DUPLICATE-ID when the identity is now claimed by more than one
	// physical chip.
	Verdict  string `json:"verdict"`
	Accepted bool   `json:"accepted"`
	// Count is how many enrollments of this identity exist, this one
	// included; Duplicate is Count > 1 (same physical chip re-enrolled
	// is a duplicate but not a conflict).
	Count     int  `json:"count"`
	Duplicate bool `json:"duplicate"`
	Conflict  bool `json:"conflict"`
	// ChallengeFingerprint is the chip's challenge-response fingerprint,
	// recorded beside the identity when the server runs a challenge
	// plane. ChallengeConflict reports that the registry now holds a
	// different response fingerprint for this die id — a second physical
	// chip claiming it, caught on the challenge axis at enrollment.
	ChallengeFingerprint string `json:"challengeFingerprint,omitempty"`
	ChallengeConflict    bool   `json:"challengeConflict,omitempty"`
}

// registerRegistryGauges exposes the provenance store's counters on
// /metrics; called once at New when a store is configured.
func registerRegistryGauges(reg *metrics.Registry, store registry.Store) {
	reg.GaugeFunc("fmregistry_keys", "distinct die identities on file",
		func() int64 { return store.Stats().Keys })
	reg.GaugeFunc("fmregistry_enrollments", "enrollments applied, duplicates included",
		func() int64 { return store.Stats().Enrollments })
	reg.GaugeFunc("fmregistry_conflicts", "die identities claimed by multiple physical fingerprints",
		func() int64 { return store.Stats().Conflicts })
	reg.GaugeFunc("fmregistry_lookups", "registry lookups served",
		func() int64 { return store.Stats().Lookups })
	reg.GaugeFunc("fmregistry_wal_appends_total", "records appended to the registry WAL",
		func() int64 { return store.Stats().WALAppends })
	reg.GaugeFunc("fmregistry_wal_fsyncs_total", "fsyncs of the registry WAL (group commit batches these)",
		func() int64 { return store.Stats().WALFsyncs })
	reg.GaugeFunc("fmregistry_compactions_total", "registry snapshot compactions completed",
		func() int64 { return store.Stats().Compactions })
	reg.GaugeFunc("fmregistry_wal_segments", "WAL generation files on disk (growth with flat compactions means compaction is failing)",
		func() int64 { return store.Stats().WALSegments })
	reg.GaugeFunc("fmregistry_last_compaction_gen", "generation of the newest on-disk snapshot (0 = never compacted)",
		func() int64 { return int64(store.Stats().LastCompaction) })
	reg.GaugeFunc("fmregistry_recovery_us", "microseconds the last Open spent rebuilding registry state",
		func() int64 { return store.Stats().Recovery.Microseconds() })
}

// BatchLookuper is the bulk read-side a distributed provenance backend
// offers: resolve many keys with one round trip per shard instead of a
// round trip per key. found[i] reports whether keys[i] is on file.
// Implementations fail open (not-found) for unreachable shards, like
// Store.Lookup. The batch verify path type-asserts for it; single-node
// backends don't need it.
type BatchLookuper interface {
	LookupBatch(keys []registry.Key) (results []registry.LookupResult, found []bool)
}

// chipIdentity extracts the registry key and physical fingerprint from a
// screened report. Only a physics-accepted chip with a decoded payload
// has an identity worth checking: every other verdict is already refused.
func chipIdentity(rep *ChipReport) (registry.Key, registry.Fingerprint, bool) {
	if rep.Payload == nil || !rep.Accepted {
		return registry.Key{}, registry.Fingerprint{}, false
	}
	k := registry.Key{Manufacturer: rep.Payload.Manufacturer, DieID: rep.Payload.DieID}
	return k, registry.DeviceFingerprint(rep.Part, rep.Seed), true
}

// fleetReason consults the fleet registry for a verdict escalation:
// non-empty when the chip's die id is on file conflicted, or under a
// different physical fingerprint. The chip that enrolled the id checks
// back clean (same fingerprint), so re-verifying enrolled stock is safe.
func (s *Server) fleetReason(k registry.Key, fp registry.Fingerprint) string {
	lr, ok := s.cfg.Provenance.Lookup(k)
	return fleetReasonFrom(lr, ok, fp)
}

// fleetReasonFrom is fleetReason's pure half: the escalation decision
// for one already-fetched registry view. The batch path runs it over
// prefetched per-shard bulk lookups; the strings are shared with the
// single-lookup path, which is what keeps cluster-path batch responses
// byte-identical to single-node ones.
func fleetReasonFrom(lr registry.LookupResult, ok bool, fp registry.Fingerprint) string {
	if !ok {
		return ""
	}
	if lr.Conflict {
		return "die id enrolled by multiple physical fingerprints in the fleet registry"
	}
	if !lr.Fingerprint.IsZero() && lr.Fingerprint != fp {
		return "die id already enrolled under a different physical fingerprint"
	}
	return ""
}

// escalate rewrites a physics report as DUPLICATE-ID with the given
// provenance note, returning the new body and verdict. rep is mutated
// in place; callers pass a request-local copy (cache hits hand out
// value copies, so the cached physics report is never touched).
func (s *Server) escalate(rep *ChipReport, reason string) ([]byte, counterfeit.Verdict, error) {
	rep.Verdict = counterfeit.VerdictDuplicateID.String()
	rep.Accepted = false
	rep.Provenance = reason
	body, err := encodeChipReport(rep)
	if err != nil {
		return nil, 0, &httpError{http.StatusInternalServerError, "encoding report: " + err.Error()}
	}
	s.met.escalations.Inc()
	return body, counterfeit.VerdictDuplicateID, nil
}

// applyProvenance overlays the fleet registry on one screened chip:
// the identity of a physics-GENUINE report is checked against the store
// and the report escalated to DUPLICATE-ID on a mismatch. rep is the
// decoded form of body (threaded from screening or the verdict cache,
// so no re-unmarshal happens here). No-op without a configured store.
func (s *Server) applyProvenance(body []byte, rep *ChipReport, verdict counterfeit.Verdict) ([]byte, counterfeit.Verdict, error) {
	if s.cfg.Provenance == nil || verdict != counterfeit.VerdictGenuine {
		return body, verdict, nil
	}
	k, fp, ok := chipIdentity(rep)
	if !ok {
		return body, verdict, nil
	}
	if reason := s.fleetReason(k, fp); reason != "" {
		return s.escalate(rep, reason)
	}
	return body, verdict, nil
}

// batchProvenance overlays the registry on a whole batch, serially and
// in input order so the response bytes are deterministic regardless of
// how the physics fan-out was scheduled. Two passes: every accepted
// identity is first enrolled into a request-scoped Memory (the same
// dedup kernel as the fleet store), then every item whose identity is
// tainted — against the fleet or within the batch — is escalated in
// place. The second pass makes the taint retroactive: the batch's first
// holder of a duplicated id is flagged too. Identical chip bytes
// repeated in one batch carry the same fingerprint and do not escalate,
// so client retries stay safe.
func (s *Server) batchProvenance(outcomes []chipOutcome) error {
	if s.cfg.Provenance == nil {
		return nil
	}
	type item struct {
		i      int // the outcome's index
		key    registry.Key
		fp     registry.Fingerprint
		reason string
	}
	var items []item
	batch := registry.NewMemory(0)
	for i := range outcomes {
		o := &outcomes[i]
		if o.failed || o.verdict != counterfeit.VerdictGenuine {
			continue
		}
		if k, fp, ok := chipIdentity(&o.rep); ok {
			items = append(items, item{i: i, key: k, fp: fp})
			batch.Enroll(registry.Enrollment{Key: k, Fingerprint: fp, Source: "batch"})
		}
	}
	// Fleet lookups: one bulk fan-out across the registry shards when
	// the backend supports it, else one lookup per identity. Either way
	// the escalation decision (fleetReasonFrom) and hence the response
	// bytes are identical — the registry is not mutated by this pass,
	// so fetch order cannot change any answer.
	if bl, ok := s.cfg.Provenance.(BatchLookuper); ok && len(items) > 0 {
		keys := make([]registry.Key, len(items))
		for j := range items {
			keys[j] = items[j].key
		}
		results, found := bl.LookupBatch(keys)
		for j := range items {
			items[j].reason = fleetReasonFrom(results[j], found[j], items[j].fp)
		}
	} else {
		for j := range items {
			items[j].reason = s.fleetReason(items[j].key, items[j].fp)
		}
	}
	for _, it := range items {
		if it.reason == "" {
			if lr, ok := batch.Lookup(it.key); ok && lr.Conflict {
				it.reason = "die id appears on multiple physical chips in this batch"
			}
		}
		if it.reason == "" {
			continue
		}
		o := &outcomes[it.i]
		body, verdict, err := s.escalate(&o.rep, it.reason)
		if err != nil {
			return err
		}
		o.body, o.verdict = body, verdict
	}
	return nil
}

// serveEnroll answers POST /v1/enroll: screen the chip, and if it
// verifies GENUINE, record its identity in the fleet registry. The
// response reports what the registry knew: a conflict means this
// physical chip is the second claimant of the die id.
func (s *Server) serveEnroll(ctx context.Context, req *request) ([]byte, error) {
	rep, k, fp, err := s.screenIdentity(ctx, req.raw, "enrolled")
	if err != nil {
		return nil, err
	}
	source := req.r.URL.Query().Get("source")
	if source == "" {
		source = "fmverifyd"
	}
	// In the honest-hardware regime the registry holds no simulator
	// identity: zero fingerprints never conflict, so only the challenge
	// axis can tell two claimants of one die id apart.
	if s.cfg.OmitDeviceFingerprint {
		fp = registry.Fingerprint{}
	}
	res, err := s.cfg.Provenance.Enroll(registry.Enrollment{
		Key:         k,
		Fingerprint: fp,
		Source:      source,
		UnixMicro:   s.cfg.Now().UnixMicro(),
	})
	if err != nil {
		return nil, &httpError{http.StatusInternalServerError, "enrollment failed: " + err.Error()}
	}
	s.met.enrolls.Inc()
	if res.Duplicate {
		s.met.enrollDuplicates.Inc()
	}
	if res.Conflict {
		s.met.enrollConflicts.Inc()
	}
	out := EnrollReport{
		SHA256:       rep.SHA256,
		Manufacturer: k.Manufacturer,
		DieID:        k.DieID,
		Fingerprint:  fp.String(),
		Verdict:      counterfeit.VerdictGenuine.String(),
		Accepted:     true,
		Count:        res.Count,
		Duplicate:    res.Duplicate,
		Conflict:     res.Conflict,
	}
	if s.cfg.Challenge != nil {
		resp, chRes, err := s.enrollChallenge(k, source, req.raw)
		if err != nil {
			return nil, err
		}
		out.ChallengeFingerprint = resp.Fingerprint.String()
		out.ChallengeConflict = chRes.Conflict
		if chRes.Conflict {
			s.met.enrollConflicts.Inc()
			res.Conflict = true
		}
	}
	if res.Conflict {
		out.Verdict = counterfeit.VerdictDuplicateID.String()
		out.Accepted = false
	}
	s.countChip(verdictFromEnroll(res))
	body, err := json.Marshal(out)
	if err != nil {
		return nil, &httpError{http.StatusInternalServerError, "encoding report: " + err.Error()}
	}
	s.logf("enroll %s/%d (%s) -> count=%d conflict=%v in %v",
		k.Manufacturer, k.DieID, rep.SHA256[:12], res.Count, res.Conflict,
		s.since(req.start).Round(time.Millisecond))
	return body, nil
}

// screenIdentity screens a chip for enrollment or a challenge and
// returns its report with the identity it claims. Only a chip that
// verifies GENUINE has an identity worth acting on: any other verdict
// is counted and refused with 422, the message naming the refused
// action.
func (s *Server) screenIdentity(ctx context.Context, raw []byte, action string) (rep ChipReport, k registry.Key, fp registry.Fingerprint, err error) {
	var verdict counterfeit.Verdict
	if _, rep, verdict, _, err = s.screenCached(ctx, chipKey(raw), raw); err != nil {
		return rep, k, fp, err
	}
	k, fp, ok := chipIdentity(&rep)
	if !ok {
		s.countChip(verdict)
		err = &httpError{http.StatusUnprocessableEntity,
			"only chips that verify GENUINE can be " + action + "; this chip screened " + rep.Verdict}
	}
	return rep, k, fp, err
}

// verdictFromEnroll maps an enrollment outcome onto the verdict
// counters: a conflicted enrollment is a caught DUPLICATE-ID.
func verdictFromEnroll(res registry.EnrollResult) counterfeit.Verdict {
	if res.Conflict {
		return counterfeit.VerdictDuplicateID
	}
	return counterfeit.VerdictGenuine
}
