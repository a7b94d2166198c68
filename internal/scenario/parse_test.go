package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

const tinyValid = `# a comment
name: tiny
seed: 0xABC
registry: durable
config:
  part: FM-SIM16
  recycling-screen: false
steps:
  - at: 0s
    name: fab
    fabricate: {chip: c1, class: genuine-accept, die: 0x42}
  - at: 1h30m
    name: check
    verify:
      chip: c1
      expect: {verdict: GENUINE, accepted: true}
`

func TestParseValid(t *testing.T) {
	sc, err := Parse([]byte(tinyValid))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "tiny" || sc.Seed != 0xABC || sc.Registry != RegistryDurable {
		t.Errorf("header decoded wrong: %+v", sc)
	}
	if sc.Config.RecyclingScreen {
		t.Error("recycling-screen: false not applied")
	}
	if len(sc.Steps) != 2 {
		t.Fatalf("got %d steps", len(sc.Steps))
	}
	if sc.Steps[0].Verb != VerbFabricate || sc.Steps[0].Fabricate.Die != 0x42 {
		t.Errorf("step 0 decoded wrong: %+v", sc.Steps[0])
	}
	if sc.Steps[1].At != 90*time.Minute {
		t.Errorf("at: 1h30m decoded as %v", sc.Steps[1].At)
	}
	x := sc.Steps[1].Verify.Expect
	if x == nil || x.Verdict != "GENUINE" || x.Accepted == nil || !*x.Accepted {
		t.Errorf("verify expect decoded wrong: %+v", x)
	}
}

func TestParseDefaults(t *testing.T) {
	sc, err := Parse([]byte("name: d\nsteps:\n  - at: 0s\n    name: a\n    fabricate: {chip: c, class: unmarked}\n"))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Registry != RegistryNone || sc.Shards != 2 {
		t.Errorf("registry defaults wrong: %s/%d", sc.Registry, sc.Shards)
	}
	cfg := sc.Config
	if cfg.Backend != "nor" || cfg.Part != "FM-SIM16" || cfg.Key != "scenario-key" ||
		cfg.Manufacturer != "TC" || !cfg.RecyclingScreen {
		t.Errorf("config defaults wrong: %+v", cfg)
	}
	if cfg.Challenge || !cfg.OracleFingerprint {
		t.Errorf("challenge defaults wrong: %+v", cfg)
	}
}

func TestParseRejections(t *testing.T) {
	cases := map[string]struct {
		doc     string
		wantErr string
	}{
		"empty":                            {"", "empty"},
		"no name":                          {"steps: []\n", "name"},
		"no steps":                         {"name: x\n", "steps"},
		"empty steps":                      {"name: x\nsteps: []\n", "no steps"},
		"unknown key":                      {"name: x\nbogus: 1\nsteps: []\n", "bogus"},
		"bad registry":                     {"name: x\nregistry: etcd\nsteps:\n  - at: 0s\n    name: a\n    fabricate: {chip: c, class: unmarked}\n", "registry"},
		"bad backend":                      {"name: x\nconfig: {backend: dram}\nsteps:\n  - at: 0s\n    name: a\n    fabricate: {chip: c, class: unmarked}\n", "backend"},
		"bad class":                        {"name: x\nsteps:\n  - at: 0s\n    name: a\n    fabricate: {chip: c, class: shiny}\n", "class"},
		"out of order":                     {"name: x\nsteps:\n  - at: 1h\n    name: a\n    fabricate: {chip: c, class: unmarked}\n  - at: 1s\n    name: b\n    verify: {chip: c}\n", "non-decreasing"},
		"negative at":                      {"name: x\nsteps:\n  - at: -5s\n    name: a\n    fabricate: {chip: c, class: unmarked}\n", "negative at:"},
		"beyond horizon":                   {"name: x\nsteps:\n  - at: 900000h\n    name: a\n    fabricate: {chip: c, class: unmarked}\n", "horizon"},
		"dup step name":                    {"name: x\nsteps:\n  - at: 0s\n    name: a\n    fabricate: {chip: c, class: unmarked}\n  - at: 0s\n    name: a\n    verify: {chip: c}\n", "duplicate"},
		"no verb":                          {"name: x\nsteps:\n  - at: 0s\n    name: a\n", "exactly one verb"},
		"two verbs":                        {"name: x\nsteps:\n  - at: 0s\n    name: a\n    fabricate: {chip: c, class: unmarked}\n    verify: {chip: c}\n", "exactly one verb"},
		"unknown verb":                     {"name: x\nsteps:\n  - at: 0s\n    name: a\n    teleport: {chip: c}\n", "teleport"},
		"verify before fab":                {"name: x\nsteps:\n  - at: 0s\n    name: a\n    verify: {chip: ghost}\n", "not fabricated"},
		"clone unknown victim":             {"name: x\nsteps:\n  - at: 0s\n    name: a\n    clone: {chip: c, of: ghost}\n", "not fabricated"},
		"refabricate":                      {"name: x\nsteps:\n  - at: 0s\n    name: a\n    fabricate: {chip: c, class: unmarked}\n  - at: 0s\n    name: b\n    fabricate: {chip: c, class: unmarked}\n", "already exists"},
		"enroll without registry":          {"name: x\nsteps:\n  - at: 0s\n    name: a\n    fabricate: {chip: c, class: genuine-accept}\n  - at: 0s\n    name: b\n    enroll: {chip: c}\n", "requires a registry"},
		"restart without durable":          {"name: x\nsteps:\n  - at: 0s\n    name: a\n    restart-registry: {}\n", "durable"},
		"challenge plane without registry": {"name: x\nconfig: {challenge: true}\nsteps:\n  - at: 0s\n    name: a\n    fabricate: {chip: c, class: unmarked}\n", "requires a registry"},
		"challenge verb without plane":     {"name: x\nregistry: durable\nsteps:\n  - at: 0s\n    name: a\n    fabricate: {chip: c, class: genuine-accept}\n  - at: 0s\n    name: b\n    challenge: {chip: c}\n", "config.challenge"},
		"bad imprint status":               {"name: x\nsteps:\n  - at: 0s\n    name: a\n    fabricate: {chip: c, class: unmarked}\n  - at: 0s\n    name: b\n    imprint: {chip: c, status: maybe}\n", "accept or reject"},
		"empty expect":                     {"name: x\nsteps:\n  - at: 0s\n    name: a\n    expect: {}\n", "asserts nothing"},
		"fault prob":                       {"name: x\nconfig: {fault: {erase-timeout: 1.5}}\nsteps:\n  - at: 0s\n    name: a\n    fabricate: {chip: c, class: unmarked}\n", "[0,1]"},
		"tab indent":                       {"name: x\nsteps:\n\t- at: 0s\n", "tab"},
		"anchor":                           {"name: &x y\nsteps: []\n", "anchor"},
		"multi-doc":                        {"---\nname: x\n---\n", "document"},
		"dup yaml key":                     {"name: x\nname: y\nsteps: []\n", "duplicate mapping key"},
	}
	for label, tc := range cases {
		t.Run(label, func(t *testing.T) {
			_, err := Parse([]byte(tc.doc))
			if err == nil {
				t.Fatalf("accepted %q", tc.doc)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("rejected for the wrong reason: %v (want substring %q)", err, tc.wantErr)
			}
		})
	}
}

// TestParseTypeErrors sweeps wrongly-typed values through every part
// of the schema. Each document is well-formed except for its one
// defect, and the reason substring pins that the defect, not some
// other fault, rejected it.
func TestParseTypeErrors(t *testing.T) {
	fab := "  - at: 0s\n    name: f\n    fabricate: {chip: c, class: unmarked}\n"
	// doc wraps top-level keys around a one-step fabricate timeline.
	doc := func(header string) string { return header + "steps:\n" + fab }
	// then appends step b, whose body follows the fabrication of chip c.
	then := func(header, body string) string { return doc(header) + "  - at: 0s\n    name: b\n" + body }
	cases := map[string]struct{ doc, want string }{
		"name not scalar":     {doc("name: [a]\n"), "name must be a scalar"},
		"seed not number":     {doc("name: x\nseed: pretty\n"), `seed: bad integer "pretty"`},
		"seed not scalar":     {doc("name: x\nseed: [1]\n"), "seed must be a scalar"},
		"shards not number":   {doc("name: x\nregistry: cluster\nshards: many\n"), `shards: bad integer "many"`},
		"steps not sequence":  {"name: x\nsteps: {a: 1}\n", "steps must be a sequence"},
		"step not mapping":    {doc("name: x\n") + "  - [5]\n", "step must be a mapping"},
		"config not mapping":  {doc("name: x\nconfig: 5\n"), "config must be a mapping"},
		"config key typed":    {doc("name: x\nconfig: {key: [1]}\n"), "key must be a scalar"},
		"config npe bad":      {doc("name: x\nconfig: {npe: soft}\n"), `npe: bad integer "soft"`},
		"recycling not bool":  {doc("name: x\nconfig: {recycling-screen: sure}\n"), `recycling-screen: bad bool "sure"`},
		"fault not mapping":   {doc("name: x\nconfig: {fault: 7}\n"), "fault must be a mapping"},
		"fault prob string":   {doc("name: x\nconfig: {fault: {erase-timeout: likely}}\n"), `fault.erase-timeout: bad number "likely"`},
		"fault prob NaN":      {doc("name: x\nconfig: {fault: {erase-timeout: NaN}}\n"), `fault.erase-timeout: bad number "NaN"`},
		"at not duration":     {"name: x\nsteps:\n  - at: noon\n    name: a\n    fabricate: {chip: c, class: unmarked}\n", `invalid duration "noon"`},
		"at not scalar":       {"name: x\nsteps:\n  - at: [0s]\n    name: a\n    fabricate: {chip: c, class: unmarked}\n", "at must be a scalar"},
		"fab die bad hex":     {then("name: x\n", "    fabricate: {chip: d, class: unmarked, die: 0xZZ}\n"), `fabricate.die: bad integer "0xZZ"`},
		"fab seed bad":        {then("name: x\n", "    fabricate: {chip: d, class: unmarked, seed: lucky}\n"), `fabricate.seed: bad integer "lucky"`},
		"fab not mapping":     {then("name: x\n", "    fabricate: 5\n"), "fabricate must be a mapping"},
		"fab unknown key":     {then("name: x\n", "    fabricate: {chip: d, class: unmarked, color: red}\n"), `unknown fabricate key "color"`},
		"imprint die typed":   {then("name: x\n", "    imprint: {chip: c, die: [1]}\n"), "imprint.die must be a scalar"},
		"age years string":    {then("name: x\n", "    age: {chip: c, years: old}\n"), `age.years: bad number "old"`},
		"age years negative":  {then("name: x\n", "    age: {chip: c, years: -1}\n"), "age years must be positive"},
		"age years NaN":       {then("name: x\n", "    age: {chip: c, years: NaN}\n"), `age.years: bad number "NaN"`},
		"age years infinite":  {then("name: x\n", "    age: {chip: c, years: +Inf}\n"), `age.years: bad number "+Inf"`},
		"stress cycles typed": {then("name: x\n", "    stress: {chip: c, cycles: many}\n"), `stress.cycles: bad integer "many"`},
		"stress negative":     {then("name: x\n", "    stress: {chip: c, cycles: -4}\n"), "must be non-negative"},
		"clone seed typed":    {then("name: x\n", "    clone: {chip: d, of: c, seed: [1]}\n"), "clone.seed must be a scalar"},
		"clone self":          {then("name: x\n", "    clone: {chip: c, of: c}\n"), `chip "c" already exists`},
		"verify accepted":     {then("name: x\n", "    verify: {chip: c, expect: {accepted: maybe}}\n"), `verify.expect.accepted: bad bool "maybe"`},
		"verify expect typed": {then("name: x\n", "    verify: {chip: c, expect: 5}\n"), "verify.expect must be a mapping"},
		"enroll count typed":  {then("name: x\nregistry: durable\n", "    enroll: {chip: c, expect: {count: few}}\n"), `enroll.expect.count: bad integer "few"`},
		"enroll dup typed":    {then("name: x\nregistry: durable\n", "    enroll: {chip: c, expect: {duplicate: 3}}\n"), `enroll.expect.duplicate: bad bool "3"`},
		"metrics not mapping": {then("name: x\n", "    expect:\n      metrics: [a]\n"), "expect.metrics must be a mapping"},
		"metric value typed":  {then("name: x\n", "    expect:\n      metrics:\n        m: lots\n"), `expect.metrics.m: bad integer "lots"`},
		"registry keys typed": {then("name: x\nregistry: durable\n", "    expect:\n      registry: {keys: some}\n"), `expect.registry.keys: bad integer "some"`},
		"registry not map":    {then("name: x\nregistry: durable\n", "    expect:\n      registry: 9\n"), "expect.registry must be a mapping"},
	}
	for label, tc := range cases {
		t.Run(label, func(t *testing.T) {
			_, err := Parse([]byte(tc.doc))
			if err == nil {
				t.Fatalf("accepted %q", tc.doc)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("rejected for the wrong reason: %v (want substring %q)", err, tc.want)
			}
		})
	}
}

func TestParseFlowAndQuoting(t *testing.T) {
	doc := "name: q\nsteps:\n" +
		"  - {at: 0s, name: a, fabricate: {chip: c, class: unmarked, seed: 0xDEAD}}\n" +
		"  - at: 1s\n    name: \"b.with-punct_ok\"\n    verify: {chip: c, expect: {verdict: \"NO-WATERMARK\"}}\n"
	sc, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Steps[0].Fabricate.Seed == nil || *sc.Steps[0].Fabricate.Seed != 0xDEAD {
		t.Errorf("pinned seed decoded wrong: %+v", sc.Steps[0].Fabricate)
	}
	if sc.Steps[1].Name != "b.with-punct_ok" {
		t.Errorf("quoted name decoded as %q", sc.Steps[1].Name)
	}
	if sc.Steps[1].Verify.Expect.Verdict != "NO-WATERMARK" {
		t.Errorf("quoted verdict decoded as %q", sc.Steps[1].Verify.Expect.Verdict)
	}
}

func TestParseChipCap(t *testing.T) {
	var b strings.Builder
	b.WriteString("name: many\nsteps:\n")
	for i := 0; i <= MaxChips; i++ {
		b.WriteString("  - at: 0s\n    name: s")
		b.WriteByte(byte('a' + i%26))
		b.WriteByte(byte('a' + (i/26)%26))
		b.WriteString("\n    fabricate: {chip: c")
		b.WriteByte(byte('a' + i%26))
		b.WriteByte(byte('a' + (i/26)%26))
		b.WriteString(", class: unmarked}\n")
	}
	if _, err := Parse([]byte(b.String())); err == nil {
		t.Fatalf("accepted %d chips (cap %d)", MaxChips+1, MaxChips)
	}
}

// everyKeyDoc sets every key of every verb, of config and of fault to a
// value other than its default, in block and flow forms. It is also the
// committed FuzzScenarioParse seed every-key, so the fuzzer starts
// inside all ten verbs.
const everyKeyDoc = `name: every-key
seed: 0x5EED
registry: durable
shards: 3
config:
  backend: reram
  part: MSP430F5529
  key: every-key-hmac
  manufacturer: XY
  npe: 7
  recycling-screen: false
  challenge: true
  oracle-fingerprint: false
  fault: {seed: 0xF417, erase-timeout: 0.25, read-bit-flip: 0.125, program-error: 0.5}
steps:
  - at: 0s
    name: fab
    fabricate: {chip: victim, class: genuine-reject, die: 0xD1E, seed: 0xC41}
  - at: 1m
    name: diesort
    imprint: {chip: victim, die: 0xD1F, status: reject}
  - at: 1h
    name: shelf
    age: {chip: victim, years: 2.5}
  - at: 2h
    name: wear
    stress: {chip: victim, cycles: 5000, segments: 4}
  - at: 3h
    name: copy
    clone: {chip: fake, of: victim, seed: 0xC42}
  - at: 4h
    name: enroll
    enroll:
      chip: victim
      expect: {verdict: GENUINE, duplicate: true, conflict: true, count: 2}
  - at: 5h
    name: inspect
    verify:
      chip: fake
      expect: {verdict: DUPLICATE-ID, accepted: false, escalated: true, fault: true}
  - at: 6h
    name: probe
    challenge:
      chip: fake
      expect: {verdict: DUPLICATE-ID, enrolled: true, match: false}
  - at: 7h
    name: bounce
    restart-registry: {}
  - at: 8h
    name: audit
    expect:
      metrics:
        fmverifyd_chips_total: 1
        fmverifyd_errors_total: 0
      registry: {keys: 1, conflicts: 2, enrollments: 3}
`

func ptr[T any](v T) *T { return &v }

// TestParseEveryKey is the decoder's equivalence contract: every key
// the schema has, decoded into the value it names.
func TestParseEveryKey(t *testing.T) {
	sc, err := Parse([]byte(everyKeyDoc))
	if err != nil {
		t.Fatal(err)
	}
	want := &Scenario{
		Name:     "every-key",
		Seed:     0x5EED,
		Registry: RegistryDurable,
		Shards:   3,
		Config: WorldConfig{
			Backend:           "reram",
			Part:              "MSP430F5529",
			Key:               "every-key-hmac",
			Manufacturer:      "XY",
			NPE:               7,
			RecyclingScreen:   false,
			Challenge:         true,
			OracleFingerprint: false,
			Fault:             &FaultSpec{Seed: 0xF417, EraseTimeout: 0.25, ReadBitFlip: 0.125, ProgramError: 0.5},
		},
		Steps: []Step{
			{At: 0, Name: "fab", Verb: VerbFabricate,
				Fabricate: &FabricateStep{Chip: "victim", Class: "genuine-reject", Die: 0xD1E, Seed: ptr[uint64](0xC41)}},
			{At: time.Minute, Name: "diesort", Verb: VerbImprint,
				Imprint: &ImprintStep{Chip: "victim", Die: 0xD1F, Status: "reject"}},
			{At: time.Hour, Name: "shelf", Verb: VerbAge,
				Age: &AgeStep{Chip: "victim", Years: 2.5}},
			{At: 2 * time.Hour, Name: "wear", Verb: VerbStress,
				Stress: &StressStep{Chip: "victim", Cycles: 5000, Segments: 4}},
			{At: 3 * time.Hour, Name: "copy", Verb: VerbClone,
				Clone: &CloneStep{Chip: "fake", Of: "victim", Seed: ptr[uint64](0xC42)}},
			{At: 4 * time.Hour, Name: "enroll", Verb: VerbEnroll,
				Enroll: &EnrollStep{Chip: "victim", Expect: &EnrollExpect{
					Verdict: "GENUINE", Duplicate: ptr(true), Conflict: ptr(true), Count: ptr(2)}}},
			{At: 5 * time.Hour, Name: "inspect", Verb: VerbVerify,
				Verify: &VerifyStep{Chip: "fake", Expect: &VerifyExpect{
					Verdict: "DUPLICATE-ID", Accepted: ptr(false), Escalated: ptr(true), Fault: ptr(true)}}},
			{At: 6 * time.Hour, Name: "probe", Verb: VerbChallenge,
				Challenge: &ChallengeStep{Chip: "fake", Expect: &ChallengeExpect{
					Verdict: "DUPLICATE-ID", Enrolled: ptr(true), Match: ptr(false)}}},
			{At: 7 * time.Hour, Name: "bounce", Verb: VerbRestartRegistry,
				RestartRegistry: &RestartStep{}},
			{At: 8 * time.Hour, Name: "audit", Verb: VerbExpect,
				Expect: &ExpectStep{
					Metrics:  map[string]int64{"fmverifyd_chips_total": 1, "fmverifyd_errors_total": 0},
					Registry: &RegistryExpect{Keys: ptr[int64](1), Conflicts: ptr[int64](2), Enrollments: ptr[int64](3)}}},
		},
	}
	if !reflect.DeepEqual(sc, want) {
		got, _ := json.MarshalIndent(sc, "", "  ")
		exp, _ := json.MarshalIndent(want, "", "  ")
		t.Fatalf("every-key document decoded as\n%s\nwant\n%s", got, exp)
	}

	seed, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzScenarioParse", "every-key"))
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := strings.CutPrefix(string(seed), "go test fuzz v1\n[]byte(")
	lit, ok2 := strings.CutSuffix(lit, ")\n")
	doc, err := strconv.Unquote(lit)
	if !ok || !ok2 || err != nil || doc != everyKeyDoc {
		t.Fatal("fuzz seed every-key is not everyKeyDoc")
	}
}
