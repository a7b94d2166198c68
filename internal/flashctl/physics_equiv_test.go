package flashctl_test

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/flashmark/flashmark/internal/counterfeit"
	"github.com/flashmark/flashmark/internal/experiment"
	"github.com/flashmark/flashmark/internal/flashctl"
	"github.com/flashmark/flashmark/internal/mcu"
	"github.com/flashmark/flashmark/internal/wmcode"
)

// Whole-stack oracles for the batched physics: every NOR controller that
// the experiment registry and the counterfeit pipeline build runs once on
// the per-cell reference path and once on the fast path, and the two
// runs must agree byte for byte. The NAND half lives in
// internal/nand/physics_equiv_test.go.

// renderRegistry renders every registered experiment artifact, with
// NOR controllers on the reference path when ref is set.
func renderRegistry(t *testing.T, ref bool) string {
	t.Helper()
	defer flashctl.SetReferencePhysics(ref)()
	var b strings.Builder
	for _, id := range experiment.IDs() {
		a, err := experiment.Run(id, experiment.Config{Fast: true})
		if err != nil {
			t.Fatalf("reference=%v %s: %v", ref, id, err)
		}
		if err := a.WriteText(&b); err != nil {
			t.Fatalf("reference=%v %s render: %v", ref, id, err)
		}
	}
	return b.String()
}

// TestRegistryIdenticalOnReferencePhysics is the golden-equivalence
// guarantee of the NOR fast path: every experiment in the registry —
// imprints, extractions, characterization sweeps, the NOR chips of the
// NAND study, the counterfeit population of the supply-chain experiment
// — renders byte-identical artifacts on either path.
func TestRegistryIdenticalOnReferencePhysics(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the full registry twice")
	}
	if raceEnabled {
		t.Skip("renders the full registry twice, too slow under the race detector")
	}
	want := renderRegistry(t, true)
	got := renderRegistry(t, false)
	if got == want {
		return
	}
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := range wl {
		if i >= len(gl) || wl[i] != gl[i] {
			t.Fatalf("fast path drifted from reference at line %d:\nreference: %q\nfast:      %q", i+1, wl[i], gl[i])
		}
	}
	t.Fatalf("fast path output differs in length: %d vs %d bytes", len(got), len(want))
}

// TestPopulationIdenticalOnReferencePhysics pins the whole counterfeit
// pipeline — fabrication (imprint, field wear, tampering), verification
// (extraction, decode, wear screen) and the batch audit — to identical
// outcomes on both paths: same confusion matrix, same per-chip verdicts
// and reports, chip for chip.
func TestPopulationIdenticalOnReferencePhysics(t *testing.T) {
	if testing.Short() {
		t.Skip("fabricates the population twice")
	}
	spec := counterfeit.PopulationSpec{
		counterfeit.ClassGenuineAccept:   2,
		counterfeit.ClassGenuineReject:   1,
		counterfeit.ClassRecycled:        2,
		counterfeit.ClassMetadataForgery: 1,
		counterfeit.ClassDigitalClone:    1,
		counterfeit.ClassTopUpTamper:     1,
		counterfeit.ClassUnmarked:        1,
		counterfeit.ClassReplayImprint:   1,
	}
	key := []byte("trusted-chipmaker-key")
	run := func(ref bool) (*counterfeit.ConfusionMatrix, []counterfeit.Outcome) {
		t.Helper()
		defer flashctl.SetReferencePhysics(ref)()
		cfg := counterfeit.FactoryConfig{
			Fab:          mcu.Fab(mcu.PartSmallSim()),
			Codec:        wmcode.Codec{Key: key},
			Manufacturer: "TC",
			NPE:          80_000,
			Replicas:     7,
		}
		v := &counterfeit.Verifier{
			Codec:        wmcode.Codec{Key: key},
			Manufacturer: "TC",
			TPEW:         25 * time.Microsecond,
			Replicas:     7,
			Reads:        3,
			Audit:        counterfeit.NewAuditor(),
		}
		matrix, outcomes, err := counterfeit.RunPopulation(spec, cfg, v, 0xB10C)
		if err != nil {
			t.Fatalf("reference=%v: %v", ref, err)
		}
		return matrix, outcomes
	}
	refMatrix, refOutcomes := run(true)
	fastMatrix, fastOutcomes := run(false)
	if !reflect.DeepEqual(refMatrix, fastMatrix) {
		t.Errorf("confusion matrices diverged:\nreference:\n%s\nfast:\n%s", refMatrix, fastMatrix)
	}
	if len(refOutcomes) != len(fastOutcomes) {
		t.Fatalf("outcome counts diverged: %d vs %d", len(refOutcomes), len(fastOutcomes))
	}
	for i := range refOutcomes {
		if !reflect.DeepEqual(refOutcomes[i], fastOutcomes[i]) {
			t.Errorf("chip %d diverged:\nreference: %+v\nfast:      %+v", i, refOutcomes[i], fastOutcomes[i])
		}
	}
}
