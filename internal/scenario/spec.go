package scenario

import (
	"errors"
	"fmt"
	"reflect"
	"regexp"
	"sort"
	"time"
)

// Spec-level limits. MaxSteps bounds hostile inputs (the fuzz target);
// MaxAt keeps every `at:` offset far from the time.Duration overflow
// horizon (~292 years) so timeline arithmetic can never wrap.
const (
	// MaxSteps caps the step count of one scenario.
	MaxSteps = 512
	// MaxChips caps distinct chips one scenario may define.
	MaxChips = 64
	// MaxAt is the latest step offset a scenario may use: 100 years.
	MaxAt = 100 * 365 * 24 * time.Hour
)

// RegistryMode selects the provenance plane a scenario runs against.
type RegistryMode string

// Registry modes.
const (
	// RegistryNone runs fmverifyd without a fleet registry: /v1/enroll
	// and DUPLICATE-ID escalation are unavailable.
	RegistryNone RegistryMode = "none"
	// RegistryDurable runs a single-node crash-safe registry.Durable in
	// the scenario work directory; restart-registry closes and reopens
	// it mid-scenario.
	RegistryDurable RegistryMode = "durable"
	// RegistryCluster runs a sharded in-process fmregistryd plane
	// (solo-primary nodes) behind cluster.Client, the -cluster path.
	RegistryCluster RegistryMode = "cluster"
)

// Verb names one scenario step kind.
type Verb string

// Step verbs.
const (
	VerbFabricate       Verb = "fabricate"
	VerbImprint         Verb = "imprint"
	VerbAge             Verb = "age"
	VerbStress          Verb = "stress"
	VerbClone           Verb = "clone"
	VerbEnroll          Verb = "enroll"
	VerbVerify          Verb = "verify"
	VerbChallenge       Verb = "challenge"
	VerbRestartRegistry Verb = "restart-registry"
	VerbExpect          Verb = "expect"
)

// Scenario is one parsed, validated scenario document. The yaml tags
// on it and on every type it reaches are the DSL's schema (decode.go).
type Scenario struct {
	// Name identifies the scenario; transcripts and golden files carry it.
	Name string `yaml:"name,required"`
	// Seed is the scenario master seed: every derived chip seed and
	// fault stream splits from it, so a scenario is a pure function of
	// its document.
	Seed uint64 `yaml:"seed"`
	// Registry selects the provenance plane (default none).
	Registry RegistryMode `yaml:"registry"`
	// Shards is the cluster shard count (cluster mode only; default 2).
	Shards int `yaml:"shards"`
	// Config tunes the world the steps run in.
	Config WorldConfig `yaml:"config"`
	// Steps execute in order; At offsets are non-decreasing.
	Steps []Step `yaml:"steps,required"`
}

// defaults fills everything a document may leave out.
func (sc *Scenario) defaults() {
	sc.Registry = RegistryNone
	sc.Shards = 2
	sc.Config = WorldConfig{
		Backend:           "nor",
		Part:              "FM-SIM16",
		Key:               "scenario-key",
		Manufacturer:      "TC",
		RecyclingScreen:   true,
		OracleFingerprint: true,
	}
}

// WorldConfig shapes the fabrication factory and the in-process
// verification daemon.
type WorldConfig struct {
	// Backend selects the substrate: "nor" (default), "nand" or "reram".
	Backend string `yaml:"backend"`
	// Part is the catalog NOR part (default FM-SIM16; NOR backend only).
	Part string `yaml:"part"`
	// Key is the watermark HMAC key (default "scenario-key").
	Key string `yaml:"key"`
	// Manufacturer is the imprinted manufacturer string (default "TC").
	Manufacturer string `yaml:"manufacturer"`
	// NPE is the imprint stress count (0 selects the factory default).
	NPE int `yaml:"npe"`
	// RecyclingScreen enables the data-segment wear screen (default true).
	RecyclingScreen bool `yaml:"recycling-screen"`
	// Challenge enables the daemon's challenge-response plane (the
	// /v1/challenge endpoint and enroll-time response fingerprinting).
	// Requires a registry. The challenge nonce derives from the scenario
	// seed, so interrogations are pure functions of the document.
	Challenge bool `yaml:"challenge"`
	// OracleFingerprint controls whether enrollment records the
	// simulator's oracle device fingerprint (default true). Setting it
	// false models the honest-hardware regime where no such oracle
	// exists — then only the challenge axis separates a replay clone
	// from its victim.
	OracleFingerprint bool `yaml:"oracle-fingerprint"`
	// Fault, when set, wraps every device the daemon loads in a seeded
	// fault injector — the misbehaving-silicon lane.
	Fault *FaultSpec `yaml:"fault"`
}

// FaultSpec is the scenario-level device fault injection policy,
// mirroring device.FaultConfig.
type FaultSpec struct {
	Seed         uint64  `yaml:"seed"`
	EraseTimeout float64 `yaml:"erase-timeout"`
	ReadBitFlip  float64 `yaml:"read-bit-flip"`
	ProgramError float64 `yaml:"program-error"`
}

// Step is one timed action.
type Step struct {
	// At is the step's offset on the scenario timeline. The engine
	// advances the virtual clock to exactly this instant before
	// executing the step.
	At time.Duration `yaml:"at,required"`
	// Name uniquely identifies the step within the scenario.
	Name string `yaml:"name,required"`
	// Verb says which of the payload fields below is set. No key sets
	// it: check derives it from the payloads.
	Verb Verb

	Fabricate       *FabricateStep `yaml:"fabricate"`
	Imprint         *ImprintStep   `yaml:"imprint"`
	Age             *AgeStep       `yaml:"age"`
	Stress          *StressStep    `yaml:"stress"`
	Clone           *CloneStep     `yaml:"clone"`
	Enroll          *EnrollStep    `yaml:"enroll"`
	Verify          *VerifyStep    `yaml:"verify"`
	Challenge       *ChallengeStep `yaml:"challenge"`
	RestartRegistry *RestartStep   `yaml:"restart-registry"`
	Expect          *ExpectStep    `yaml:"expect"`
}

// check holds a step to exactly one verb payload and sets Verb to it.
func (st *Step) check() error {
	payloads := []struct {
		verb Verb
		set  bool
	}{
		{VerbFabricate, st.Fabricate != nil},
		{VerbImprint, st.Imprint != nil},
		{VerbAge, st.Age != nil},
		{VerbStress, st.Stress != nil},
		{VerbClone, st.Clone != nil},
		{VerbEnroll, st.Enroll != nil},
		{VerbVerify, st.Verify != nil},
		{VerbChallenge, st.Challenge != nil},
		{VerbRestartRegistry, st.RestartRegistry != nil},
		{VerbExpect, st.Expect != nil},
	}
	n := 0
	for _, p := range payloads {
		if p.set {
			n++
			st.Verb = p.verb
		}
	}
	if n != 1 {
		return fmt.Errorf("step %q must carry exactly one verb, has %d", st.Name, n)
	}
	return nil
}

// FabricateStep manufactures a chip of a ground-truth class.
type FabricateStep struct {
	// Chip names the new chip.
	Chip string `yaml:"chip,required"`
	// Class is the counterfeit.ChipClass name (genuine-accept, recycled,
	// replay-imprint, ...).
	Class string `yaml:"class,required"`
	// Die is the die id carried by genuine watermarks.
	Die uint64 `yaml:"die"`
	// Seed, when non-nil, pins the device seed; otherwise it derives
	// from the scenario seed and the chip name.
	Seed *uint64 `yaml:"seed"`
}

// ImprintStep runs the manufacturer die-sort imprint on an existing chip.
type ImprintStep struct {
	Chip string `yaml:"chip,required"`
	Die  uint64 `yaml:"die"`
	// Status is "accept" (default) or "reject".
	Status string `yaml:"status"`
}

func (im *ImprintStep) defaults() { im.Status = "accept" }

// AgeStep advances a chip's unpowered storage age (retention drift).
type AgeStep struct {
	Chip string `yaml:"chip,required"`
	// Years is the chip's new total storage age (monotone).
	Years float64 `yaml:"years,required"`
}

// StressStep applies first-life field wear to a chip's data segments.
type StressStep struct {
	Chip string `yaml:"chip,required"`
	// Cycles is the P/E count per worn segment (0 selects the factory
	// default).
	Cycles int `yaml:"cycles"`
	// Segments is how many data segments wear out (0 selects the
	// factory default).
	Segments int `yaml:"segments"`
}

// CloneStep fabricates a replay-imprint clone of an existing chip: a
// fresh die carrying a bit-exact copy of the victim's watermark.
type CloneStep struct {
	// Chip names the new clone.
	Chip string `yaml:"chip,required"`
	// Of names the victim whose die id the clone carries.
	Of string `yaml:"of,required"`
	// Seed optionally pins the clone's device seed.
	Seed *uint64 `yaml:"seed"`
}

// EnrollStep POSTs the chip to /v1/enroll on the live daemon.
type EnrollStep struct {
	Chip   string        `yaml:"chip,required"`
	Expect *EnrollExpect `yaml:"expect"`
}

// EnrollExpect asserts on the enroll report.
type EnrollExpect struct {
	Verdict   string `yaml:"verdict"`
	Duplicate *bool  `yaml:"duplicate"`
	Conflict  *bool  `yaml:"conflict"`
	Count     *int   `yaml:"count"`
}

// VerifyStep POSTs the chip to /v1/verify on the live daemon.
type VerifyStep struct {
	Chip   string        `yaml:"chip,required"`
	Expect *VerifyExpect `yaml:"expect"`
}

// VerifyExpect asserts on the verify report.
type VerifyExpect struct {
	// Verdict is the expected verdict string ("GENUINE", "DUPLICATE-ID", ...).
	Verdict string `yaml:"verdict"`
	// Accepted asserts the accept/refuse decision.
	Accepted *bool `yaml:"accepted"`
	// Escalated asserts whether the fleet registry escalated the
	// physics verdict (the report carries a provenance reason).
	Escalated *bool `yaml:"escalated"`
	// Fault asserts whether the report carries a device fault.
	Fault *bool `yaml:"fault"`
}

// ChallengeStep POSTs the chip to /v1/challenge on the live daemon.
type ChallengeStep struct {
	Chip   string           `yaml:"chip,required"`
	Expect *ChallengeExpect `yaml:"expect"`
}

// ChallengeExpect asserts on the challenge report.
type ChallengeExpect struct {
	// Verdict is the expected verdict string ("GENUINE", "DUPLICATE-ID").
	Verdict string `yaml:"verdict"`
	// Enrolled asserts whether a response fingerprint was on record.
	Enrolled *bool `yaml:"enrolled"`
	// Match asserts whether the chip reproduced the enrolled response.
	Match *bool `yaml:"match"`
}

// RestartStep closes the durable registry and reopens it from disk —
// the registry-restart window, without SIGSTOP theatrics.
type RestartStep struct{}

// ExpectStep asserts on daemon /metrics counters and registry stats.
type ExpectStep struct {
	// Metrics maps /metrics series names to required exact values.
	Metrics map[string]int64 `yaml:"metrics"`
	// Registry asserts on the provenance store's Stats.
	Registry *RegistryExpect `yaml:"registry"`
}

// check rejects an expect step that asserts nothing.
func (e *ExpectStep) check() error {
	if e.Metrics == nil && e.Registry == nil {
		return errors.New("expect step asserts nothing")
	}
	return nil
}

// RegistryExpect asserts on registry.Stats fields.
type RegistryExpect struct {
	Keys        *int64 `yaml:"keys"`
	Conflicts   *int64 `yaml:"conflicts"`
	Enrollments *int64 `yaml:"enrollments"`
}

var nameRe = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9._-]*$`)

// Parse decodes and validates one scenario document.
func Parse(data []byte) (*Scenario, error) {
	root, err := parseYAML(data)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	var sc *Scenario
	if err := decode(root, "", reflect.ValueOf(&sc).Elem()); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := sc.validate(); err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	return sc, nil
}

// validate enforces the structural rules the engine relies on:
// identifier discipline, forward-only time, chip dataflow, and mode
// compatibility — everything checkable without running the world.
func (sc *Scenario) validate() error {
	if !nameRe.MatchString(sc.Name) {
		return fmt.Errorf("invalid scenario name %q", sc.Name)
	}
	switch sc.Registry {
	case RegistryNone, RegistryDurable, RegistryCluster:
	default:
		return fmt.Errorf("unknown registry mode %q (have none, durable, cluster)", sc.Registry)
	}
	if sc.Shards < 1 || sc.Shards > 8 {
		return fmt.Errorf("shards must be in [1,8], got %d", sc.Shards)
	}
	switch sc.Config.Backend {
	case "nor", "nand", "reram":
	default:
		return fmt.Errorf("unknown backend %q (have nor, nand, reram)", sc.Config.Backend)
	}
	if sc.Config.Challenge && sc.Registry == RegistryNone {
		return fmt.Errorf("config.challenge requires a registry (set registry: durable or cluster)")
	}
	if sc.Config.NPE < 0 {
		return fmt.Errorf("npe must be non-negative")
	}
	if f := sc.Config.Fault; f != nil {
		for _, p := range []struct {
			name string
			v    float64
		}{{"erase-timeout", f.EraseTimeout}, {"read-bit-flip", f.ReadBitFlip}, {"program-error", f.ProgramError}} {
			if p.v < 0 || p.v > 1 {
				return fmt.Errorf("fault.%s probability %v outside [0,1]", p.name, p.v)
			}
		}
	}
	if len(sc.Steps) == 0 {
		return fmt.Errorf("scenario has no steps")
	}
	if !sort.SliceIsSorted(sc.Steps, func(i, j int) bool { return sc.Steps[i].At < sc.Steps[j].At }) {
		return fmt.Errorf("step at: offsets must be non-decreasing (virtual time is forward-only)")
	}
	names := make(map[string]bool, len(sc.Steps))
	chips := make(map[string]bool)
	for i := range sc.Steps {
		st := &sc.Steps[i]
		if !nameRe.MatchString(st.Name) {
			return fmt.Errorf("step %d: invalid name %q", i, st.Name)
		}
		if names[st.Name] {
			return fmt.Errorf("duplicate step name %q", st.Name)
		}
		names[st.Name] = true
		if st.At < 0 {
			return fmt.Errorf("step %q: negative at: offset %v", st.Name, st.At)
		}
		if st.At > MaxAt {
			return fmt.Errorf("step %q: at: offset %v exceeds the %v horizon", st.Name, st.At, MaxAt)
		}
		if err := sc.validateStep(st, chips); err != nil {
			return fmt.Errorf("step %q: %w", st.Name, err)
		}
	}
	return nil
}

func (sc *Scenario) validateStep(st *Step, chips map[string]bool) error {
	defined := func(chip string) error {
		if !nameRe.MatchString(chip) {
			return fmt.Errorf("invalid chip name %q", chip)
		}
		if !chips[chip] {
			return fmt.Errorf("chip %q not fabricated yet", chip)
		}
		return nil
	}
	fresh := func(chip string) error {
		if !nameRe.MatchString(chip) {
			return fmt.Errorf("invalid chip name %q", chip)
		}
		if chips[chip] {
			return fmt.Errorf("chip %q already exists", chip)
		}
		if len(chips) >= MaxChips {
			return fmt.Errorf("scenario defines more than %d chips", MaxChips)
		}
		chips[chip] = true
		return nil
	}
	needRegistry := func(what string) error {
		if sc.Registry == RegistryNone {
			return fmt.Errorf("%s requires a registry (set registry: durable or cluster)", what)
		}
		return nil
	}
	switch st.Verb {
	case VerbFabricate:
		if _, err := classByName(st.Fabricate.Class); err != nil {
			return err
		}
		return fresh(st.Fabricate.Chip)
	case VerbImprint:
		if st.Imprint.Status != "accept" && st.Imprint.Status != "reject" {
			return fmt.Errorf("imprint status %q (want accept or reject)", st.Imprint.Status)
		}
		return defined(st.Imprint.Chip)
	case VerbAge:
		if st.Age.Years <= 0 {
			return fmt.Errorf("age years must be positive, got %v", st.Age.Years)
		}
		return defined(st.Age.Chip)
	case VerbStress:
		if st.Stress.Cycles < 0 || st.Stress.Segments < 0 {
			return fmt.Errorf("stress cycles/segments must be non-negative")
		}
		return defined(st.Stress.Chip)
	case VerbClone:
		if err := defined(st.Clone.Of); err != nil {
			return err
		}
		return fresh(st.Clone.Chip)
	case VerbEnroll:
		if err := needRegistry("enroll"); err != nil {
			return err
		}
		return defined(st.Enroll.Chip)
	case VerbVerify:
		return defined(st.Verify.Chip)
	case VerbChallenge:
		if !sc.Config.Challenge {
			return fmt.Errorf("challenge requires config.challenge: true")
		}
		return defined(st.Challenge.Chip)
	case VerbRestartRegistry:
		if sc.Registry != RegistryDurable {
			return fmt.Errorf("restart-registry requires registry: durable")
		}
		return nil
	case VerbExpect:
		if st.Expect.Registry != nil {
			return needRegistry("expect.registry")
		}
		return nil
	}
	return fmt.Errorf("unknown verb %q", st.Verb)
}
