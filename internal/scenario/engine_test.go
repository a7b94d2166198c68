package scenario

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// steppingDoc uses deliberately awkward offsets — sub-second gaps, a
// zero-duration hold (two steps at the same instant), and a long jump —
// to pin the exact-instant contract: the virtual clock lands on
// precisely each step's at: offset, never a tick early or late.
const steppingDoc = `name: stepping
seed: 0xC10C
steps:
  - at: 0s
    name: fab
    fabricate: {chip: c, class: genuine-accept, die: 0x77}
  - at: 1ns
    name: first-tick
    verify: {chip: c, expect: {verdict: GENUINE}}
  - at: 1ns
    name: same-instant
    expect:
      metrics:
        fmverifyd_chips_total: 1
  - at: 1h30m7s
    name: odd-offset
    verify: {chip: c, expect: {verdict: GENUINE}}
  - at: 876000h
    name: horizon-edge
    verify: {chip: c, expect: {verdict: GENUINE}}
`

// TestSteppingClockExactInstants runs the awkward-offset scenario and
// checks every step executed at exactly its declared virtual instant.
func TestSteppingClockExactInstants(t *testing.T) {
	sc, err := Parse([]byte(steppingDoc))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Run(sc, RunOptions{WorkDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	wantAt := []time.Duration{0, time.Nanosecond, time.Nanosecond, time.Hour + 30*time.Minute + 7*time.Second, 876000 * time.Hour}
	if len(tr.Steps) != len(wantAt) {
		t.Fatalf("got %d steps, want %d", len(tr.Steps), len(wantAt))
	}
	for i, st := range tr.Steps {
		if st.At != wantAt[i].String() {
			t.Errorf("step %d: recorded at %s, want %s", i, st.At, wantAt[i])
		}
		if st.Clock != st.At {
			t.Errorf("step %d (%s): clock %s != at %s — the engine missed the instant", i, st.Name, st.Clock, st.At)
		}
	}
}

// TestVirtualNowReachesDaemon checks the daemon's wall clock is the
// scenario timeline: a report produced at virtual t=1h carries a
// deterministic device timestamp, and two full runs agree on every
// byte even though real wall time moved between them.
func TestVirtualNowReachesDaemon(t *testing.T) {
	sc, err := Parse([]byte(steppingDoc))
	if err != nil {
		t.Fatal(err)
	}
	run := func() []byte {
		tr, err := Run(sc, RunOptions{WorkDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		enc, err := tr.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	a := run()
	b := run()
	if !bytes.Equal(a, b) {
		t.Fatal("two runs of the same scenario produced different transcripts")
	}
}

// allVerbsDoc exercises every verb in one durable-registry timeline:
// the blank chip gets a die-sort imprint and later burns its wear
// budget (RECYCLED), the victim ages a year and survives, and its
// replay-imprint clone is escalated across a registry restart.
const allVerbsDoc = `name: all-verbs
seed: 0xA11
registry: durable
steps:
  - at: 0s
    name: fab-victim
    fabricate: {chip: victim, class: genuine-accept, die: 0xA001}
  - at: 0s
    name: fab-blank
    fabricate: {chip: blank, class: unmarked}
  - at: 1h
    name: diesort-blank
    imprint: {chip: blank, die: 0xA002, status: accept}
  - at: 2h
    name: enroll-victim
    enroll:
      chip: victim
      expect: {verdict: GENUINE, duplicate: false, conflict: false, count: 1}
  - at: 3h
    name: verify-imprinted
    verify: {chip: blank, expect: {verdict: GENUINE, accepted: true}}
  - at: 8760h
    name: shelf-year
    age: {chip: victim, years: 1}
  - at: 8761h
    name: verify-aged
    verify: {chip: victim, expect: {verdict: GENUINE, escalated: false}}
  - at: 8762h
    name: registry-bounce
    restart-registry: {}
  - at: 8763h
    name: clone-victim
    clone: {chip: impostor, of: victim}
  - at: 8764h
    name: verify-impostor
    verify:
      chip: impostor
      expect: {verdict: DUPLICATE-ID, accepted: false, escalated: true}
  - at: 8765h
    name: first-life
    stress: {chip: blank, cycles: 10000, segments: 3}
  - at: 8766h
    name: verify-worn
    verify: {chip: blank, expect: {verdict: RECYCLED, accepted: false}}
  - at: 8767h
    name: audit
    expect:
      registry: {keys: 1, enrollments: 1, conflicts: 0}
      metrics:
        fmverifyd_provenance_escalations_total: 1
        fmverifyd_errors_total: 0
`

// TestRunAllVerbsDurable replays the kitchen-sink timeline and checks
// the transcript covers every verb with its expectations met.
func TestRunAllVerbsDurable(t *testing.T) {
	sc, err := Parse([]byte(allVerbsDoc))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Run(sc, RunOptions{WorkDir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, st := range tr.Steps {
		seen[st.Verb] = true
	}
	for _, verb := range []string{"fabricate", "imprint", "age", "stress", "clone", "enroll", "verify", "restart-registry", "expect"} {
		if !seen[verb] {
			t.Errorf("transcript missing verb %q", verb)
		}
	}
}

// TestRunClusterPlane runs a two-shard cluster scenario: enrollments
// spread across shards, aggregated stats see both, and a clone is
// still escalated through the sharded lookup path.
func TestRunClusterPlane(t *testing.T) {
	doc := `name: cluster
seed: 0xC1
registry: cluster
shards: 2
steps:
  - at: 0s
    name: fab-a
    fabricate: {chip: a, class: genuine-accept, die: 0xCA}
  - at: 0s
    name: fab-b
    fabricate: {chip: b, class: genuine-accept, die: 0xCB}
  - at: 1h
    name: enroll-a
    enroll: {chip: a, expect: {count: 1}}
  - at: 1h
    name: enroll-b
    enroll: {chip: b, expect: {count: 1}}
  - at: 2h
    name: clone-a
    clone: {chip: fake, of: a}
  - at: 3h
    name: verify-fake
    verify: {chip: fake, expect: {verdict: DUPLICATE-ID, escalated: true}}
  - at: 4h
    name: audit
    expect:
      registry: {keys: 2, enrollments: 2, conflicts: 0}
`
	sc, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(sc, RunOptions{WorkDir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
}

// TestRunStepFailureNamesStep checks an unmet expectation aborts with
// the step name and offset in the error.
func TestRunStepFailureNamesStep(t *testing.T) {
	doc := `name: failing
seed: 1
steps:
  - at: 0s
    name: fab
    fabricate: {chip: c, class: unmarked}
  - at: 2h
    name: doomed
    verify: {chip: c, expect: {verdict: GENUINE}}
`
	sc, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(sc, RunOptions{WorkDir: t.TempDir()})
	if err == nil {
		t.Fatal("unmet expectation did not fail the run")
	}
	for _, want := range []string{"doomed", "2h", "NO-WATERMARK", "GENUINE"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

// TestRunExpectationFailures drives each expect-carrying verb into a
// deliberate mismatch and checks the run aborts with the offending
// step named — the engine's whole value is that a wrong timeline dies
// loudly, not quietly.
func TestRunExpectationFailures(t *testing.T) {
	durable := func(body string) string {
		return "name: x\nregistry: durable\nsteps:\n  - at: 0s\n    name: fab\n    fabricate: {chip: c, class: genuine-accept, die: 0xE1}\n" + body
	}
	cases := map[string]struct{ doc, want string }{
		"enroll count": {
			durable("  - at: 1h\n    name: bad-count\n    enroll: {chip: c, expect: {count: 7}}\n"),
			"bad-count",
		},
		"enroll conflict": {
			durable("  - at: 1h\n    name: bad-conflict\n    enroll: {chip: c, expect: {conflict: true}}\n"),
			"bad-conflict",
		},
		"verify escalated": {
			durable("  - at: 1h\n    name: bad-escalation\n    verify: {chip: c, expect: {verdict: GENUINE, escalated: true}}\n"),
			"bad-escalation",
		},
		"verify fault": {
			durable("  - at: 1h\n    name: bad-fault\n    verify: {chip: c, expect: {fault: true}}\n"),
			"bad-fault",
		},
		"metrics value": {
			durable("  - at: 1h\n    name: bad-metric\n    expect:\n      metrics:\n        fmverifyd_chips_total: 99\n"),
			"bad-metric",
		},
		"unknown metric": {
			durable("  - at: 1h\n    name: ghost-metric\n    expect:\n      metrics:\n        fmverifyd_nonexistent_total: 1\n"),
			"ghost-metric",
		},
		"registry keys": {
			durable("  - at: 1h\n    name: bad-keys\n    expect:\n      registry: {keys: 42}\n"),
			"bad-keys",
		},
		"verify accepted": {
			durable("  - at: 1h\n    name: bad-accepted\n    verify: {chip: c, expect: {accepted: false}}\n"),
			"bad-accepted",
		},
		"enroll verdict": {
			durable("  - at: 1h\n    name: bad-enroll-verdict\n    enroll: {chip: c, expect: {verdict: DUPLICATE-ID}}\n"),
			"bad-enroll-verdict",
		},
		"enroll duplicate": {
			durable("  - at: 1h\n    name: bad-duplicate\n    enroll: {chip: c, expect: {duplicate: true}}\n"),
			"bad-duplicate",
		},
		"registry conflicts": {
			durable("  - at: 1h\n    name: bad-conflicts\n    expect:\n      registry: {conflicts: 5}\n"),
			"bad-conflicts",
		},
		"registry enrollments": {
			durable("  - at: 1h\n    name: bad-enrollments\n    expect:\n      registry: {enrollments: 9}\n"),
			"bad-enrollments",
		},
	}
	for label, tc := range cases {
		t.Run(label, func(t *testing.T) {
			sc, err := Parse([]byte(tc.doc))
			if err != nil {
				t.Fatal(err)
			}
			_, err = Run(sc, RunOptions{WorkDir: t.TempDir()})
			if err == nil {
				t.Fatal("mismatched expectation did not fail the run")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name step %q", err, tc.want)
			}
		})
	}
}

// TestRunFaultInjection runs a faulty-hardware scenario in-package: a
// certain erase timeout must surface as INCONCLUSIVE with the fault
// recorded, never as a crash or a silent accept.
func TestRunFaultInjection(t *testing.T) {
	doc := `name: faulty
seed: 0xFA
config:
  fault: {erase-timeout: 1.0}
steps:
  - at: 0s
    name: fab
    fabricate: {chip: c, class: genuine-accept, die: 0xF1}
  - at: 1h
    name: check
    verify: {chip: c, expect: {verdict: INCONCLUSIVE, accepted: false, fault: true}}
  - at: 2h
    name: counters
    expect:
      metrics:
        fmverifyd_device_faults_total: 1
`
	sc, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(sc, RunOptions{WorkDir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
}

// TestTranscriptCanonicalJSON checks Encode emits sorted-key metric
// maps and a trailing newline — the byte-diffable canonical form.
func TestTranscriptCanonicalJSON(t *testing.T) {
	tr := &Transcript{
		Format:   TranscriptFormat,
		Scenario: "x",
		Steps: []StepRecord{{
			Name:   "m",
			Verb:   "expect",
			Result: mustMarshal(t, expectResult{Metrics: map[string]int64{"zzz": 1, "aaa": 2}}),
		}},
	}
	enc, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if enc[len(enc)-1] != '\n' {
		t.Error("transcript does not end with a newline")
	}
	if bytes.Index(enc, []byte("aaa")) > bytes.Index(enc, []byte("zzz")) {
		t.Error("metric keys are not sorted in the encoded transcript")
	}
	var back Transcript
	if err := json.Unmarshal(enc, &back); err != nil {
		t.Fatalf("transcript does not round-trip: %v", err)
	}
}

func mustMarshal(t *testing.T, v any) json.RawMessage {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunChallengePlane runs the challenge-response axis end to end on
// the ReRAM backend: with the oracle fingerprint withheld, a replayed
// clone passes physics verification and only the challenge verb
// separates it from the enrolled original. Also exercises challenging
// a chip that was never enrolled.
func TestRunChallengePlane(t *testing.T) {
	doc := `name: challenge
seed: 0xC4A1
registry: durable
config:
  backend: reram
  challenge: true
  oracle-fingerprint: false
steps:
  - at: 0s
    name: fab-orig
    fabricate: {chip: orig, class: genuine-accept, die: 0xD1}
  - at: 0s
    name: fab-stray
    fabricate: {chip: stray, class: genuine-accept, die: 0xD2}
  - at: 1h
    name: challenge-unenrolled
    challenge: {chip: stray, expect: {verdict: GENUINE, enrolled: false}}
  - at: 2h
    name: enroll-orig
    enroll: {chip: orig, expect: {count: 1, conflict: false}}
  - at: 3h
    name: clone-orig
    clone: {chip: fake, of: orig}
  - at: 4h
    name: verify-fake-physics-pass
    verify: {chip: fake, expect: {verdict: GENUINE, accepted: true, escalated: false}}
  - at: 4h
    name: challenge-fake
    challenge: {chip: fake, expect: {verdict: DUPLICATE-ID, enrolled: true, match: false}}
  - at: 5h
    name: challenge-orig
    challenge: {chip: orig, expect: {verdict: GENUINE, enrolled: true, match: true}}
  - at: 6h
    name: audit
    expect:
      metrics:
        fmverifyd_challenge_total: 3
        fmverifyd_challenge_matches_total: 1
        fmverifyd_challenge_mismatches_total: 1
        fmverifyd_challenge_unenrolled_total: 1
`
	sc, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Run(sc, RunOptions{WorkDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, st := range tr.Steps {
		if st.Verb == "challenge" {
			seen++
		}
	}
	if seen != 3 {
		t.Fatalf("transcript has %d challenge steps, want 3", seen)
	}
}

// TestRunChallengeExpectMismatch drives the challenge verb into each
// assertion failure: wrong verdict, wrong enrollment state, wrong
// match bit.
func TestRunChallengeExpectMismatch(t *testing.T) {
	base := `name: x
registry: durable
config:
  challenge: true
steps:
  - at: 0s
    name: fab
    fabricate: {chip: c, class: genuine-accept, die: 0xE7}
  - at: 1h
    name: enroll
    enroll: {chip: c}
  - at: 2h
    name: doomed
    challenge: {chip: c, expect: {%s}}
`
	cases := map[string]struct{ expect, want string }{
		"verdict":  {"verdict: TAMPERED", "verdict"},
		"enrolled": {"enrolled: false", "enrolled"},
		"match":    {"match: false", "match"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			sc, err := Parse([]byte(strings.Replace(base, "%s", tc.expect, 1)))
			if err != nil {
				t.Fatal(err)
			}
			_, err = Run(sc, RunOptions{WorkDir: t.TempDir()})
			if err == nil || !strings.Contains(err.Error(), "doomed") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want step doomed failing on %s", err, tc.want)
			}
		})
	}
}
