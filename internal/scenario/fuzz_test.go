package scenario

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// FuzzScenarioParse throws arbitrary bytes at the scenario parser. The
// contract under fuzzing: Parse never panics, never accepts a scenario
// that violates the validated invariants, and rejects hostile shapes
// (oversized documents, deep nesting, step floods) with an error. The
// committed seeds in testdata/fuzz/FuzzScenarioParse pin the known
// hostile shapes (non-finite-age among them: NaN passes every range
// check), and every-key starts the fuzzer inside every verb, config and
// fault; go's fuzzer mutates from there.
func FuzzScenarioParse(f *testing.F) {
	f.Add([]byte("name: ok\nsteps:\n  - at: 0s\n    name: a\n    fabricate: {chip: c, class: unmarked}\n"))
	f.Add([]byte("name: out-of-order\nsteps:\n  - at: 2h\n    name: a\n    fabricate: {chip: c, class: unmarked}\n  - at: 1h\n    name: b\n    verify: {chip: c}\n"))
	f.Add([]byte("name: negative\nsteps:\n  - at: -1s\n    name: a\n    fabricate: {chip: c, class: unmarked}\n"))
	f.Add([]byte("name: unknown-verb\nsteps:\n  - at: 0s\n    name: a\n    teleport: {chip: c}\n"))
	f.Add([]byte("name: two-verbs\nsteps:\n  - at: 0s\n    name: a\n    fabricate: {chip: c, class: unmarked}\n    verify: {chip: c}\n"))
	f.Add([]byte("name: dup\nsteps:\n  - at: 0s\n    name: a\n    fabricate: {chip: c, class: unmarked}\n  - at: 0s\n    name: a\n    verify: {chip: c}\n"))
	f.Add([]byte("name: \"quoted \\\" name\"\nsteps: []\n"))
	f.Add([]byte("a: &anchor b\n"))
	f.Add([]byte("---\nname: multi\n---\n"))
	f.Add([]byte("name: x\nsteps:\n\t- at: 0s\n"))
	f.Add([]byte(strings.Repeat("k:\n  ", 40) + "v: 1\n"))
	f.Add([]byte("name: flow\nsteps:\n  - {at: 0s, name: a, fabricate: {chip: c, class: unmarked, die: 0xFFFFFFFFFFFFFFFF}}\n"))
	f.Add([]byte("name: horizon\nsteps:\n  - at: 876001h\n    name: a\n    fabricate: {chip: c, class: unmarked}\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Parse(data)
		if err != nil {
			return
		}
		// Accepted scenarios must satisfy every invariant the engine
		// relies on without re-checking.
		if sc.Name == "" {
			t.Fatal("accepted scenario with empty name")
		}
		if len(sc.Steps) == 0 || len(sc.Steps) > MaxSteps {
			t.Fatalf("accepted scenario with %d steps", len(sc.Steps))
		}
		if !allFinite(reflect.ValueOf(sc).Elem()) {
			t.Fatal("accepted a non-finite number")
		}
		var prev time.Duration
		for i := range sc.Steps {
			st := &sc.Steps[i]
			if st.At < prev {
				t.Fatalf("accepted out-of-order at: %v after %v", st.At, prev)
			}
			prev = st.At
			if st.At < 0 || st.At > MaxAt {
				t.Fatalf("accepted at: %v outside [0, %v]", st.At, MaxAt)
			}
			if st.Verb == "" {
				t.Fatalf("accepted step %q with no verb", st.Name)
			}
			// Exactly the payload field its Verb names is set; the
			// pointer fields of Step are the payloads, tagged by verb.
			v := reflect.ValueOf(st).Elem()
			set := 0
			for j := 0; j < v.NumField(); j++ {
				field := v.Type().Field(j)
				if field.Type.Kind() != reflect.Pointer || v.Field(j).IsNil() {
					continue
				}
				set++
				if key, _, _ := strings.Cut(field.Tag.Get("yaml"), ","); key != string(st.Verb) {
					t.Fatalf("step %q (verb %s) sets payload %s", st.Name, st.Verb, key)
				}
			}
			if set != 1 {
				t.Fatalf("step %q (verb %s) sets %d payloads", st.Name, st.Verb, set)
			}
		}
	})
}

// allFinite reports whether every float64 reachable from v is finite.
func allFinite(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Float64:
		return !math.IsNaN(v.Float()) && !math.IsInf(v.Float(), 0)
	case reflect.Pointer:
		return v.IsNil() || allFinite(v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !allFinite(v.Field(i)) {
				return false
			}
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			if !allFinite(v.Index(i)) {
				return false
			}
		}
	}
	return true
}

// TestParseRejectsStepFlood synthesizes a document over the step cap —
// too big to sit in the seed corpus, cheap to build here.
func TestParseRejectsStepFlood(t *testing.T) {
	var b strings.Builder
	b.WriteString("name: flood\nsteps:\n")
	for i := 0; i <= MaxSteps; i++ {
		// Same instant, distinct names: only the cap can reject this.
		b.WriteString("  - at: 0s\n")
		b.WriteString("    name: s")
		for _, c := range []byte{byte('a' + i%26), byte('a' + (i/26)%26), byte('a' + (i/676)%26)} {
			b.WriteByte(c)
		}
		b.WriteString("\n    expect:\n      metrics:\n        x: 0\n")
	}
	if _, err := Parse([]byte(b.String())); err == nil {
		t.Fatalf("accepted %d steps (cap %d)", MaxSteps+1, MaxSteps)
	} else if !strings.Contains(err.Error(), "cap") {
		t.Fatalf("flood rejected for the wrong reason: %v", err)
	}
}

// TestParseRejectsOversizedDocument checks the byte cap fires before any
// structural work.
func TestParseRejectsOversizedDocument(t *testing.T) {
	big := []byte("name: big\n" + strings.Repeat("# padding\n", MaxScenarioBytes/10))
	if _, err := Parse(big); err == nil {
		t.Fatal("accepted oversized document")
	}
}

// TestParseAllocationBounded puts a ceiling on parser allocations for a
// dense document: hostile inputs must not be able to amplify a small
// byte count into unbounded work.
func TestParseAllocationBounded(t *testing.T) {
	var b strings.Builder
	b.WriteString("name: dense\nsteps:\n")
	for i := 0; i < 200; i++ {
		b.WriteString("  - at: 0s\n    name: s")
		b.WriteByte(byte('a' + i%26))
		b.WriteByte(byte('a' + (i/26)%26))
		b.WriteString("\n    expect:\n      metrics:\n        a: 1\n        b: 2\n")
	}
	data := []byte(b.String())
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Parse(data); err != nil {
			t.Fatal(err)
		}
	})
	// ~200 steps with nested maps: generous ceiling, but a quadratic
	// blowup or per-byte allocation bug would sail far past it.
	if allocs > 25_000 {
		t.Fatalf("Parse allocated %.0f objects for a %d-byte document", allocs, len(data))
	}
}
