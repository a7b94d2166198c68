package nand_test

import (
	"strings"
	"testing"

	"github.com/flashmark/flashmark/internal/experiment"
	"github.com/flashmark/flashmark/internal/nand"
)

// renderNANDStudy renders the NAND study's artifact, with NAND devices
// on the per-cell reference loops when ref is set.
func renderNANDStudy(t *testing.T, ref bool) string {
	t.Helper()
	defer nand.SetReferencePhysics(ref)()
	a, err := experiment.Run("nand", experiment.Config{Fast: true})
	if err != nil {
		t.Fatalf("reference=%v: %v", ref, err)
	}
	var b strings.Builder
	if err := a.WriteText(&b); err != nil {
		t.Fatalf("reference=%v render: %v", ref, err)
	}
	return b.String()
}

// TestNANDStudyIdenticalOnReferencePhysics is the whole-stack oracle of
// the NAND fast path, the NAND half of the NOR registry render in
// internal/flashctl/physics_equiv_test.go: the NAND study's imprints and
// extraction sweeps render byte-identical artifacts whether its NAND
// devices run the batched physics or the per-cell reference loops.
func TestNANDStudyIdenticalOnReferencePhysics(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the NAND study twice")
	}
	want := renderNANDStudy(t, true)
	got := renderNANDStudy(t, false)
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
