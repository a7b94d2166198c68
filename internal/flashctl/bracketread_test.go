package flashctl

import (
	"testing"
	"time"
)

// TestBracketDecidesNoisyReads runs one verification extraction — erase,
// program zeros, a 25 µs partial erase, three reads of every word, word
// by word — over a 40K-cycle imprinted segment on twin controllers, and
// counts the Gamma quantiles the segment's deferral engine evaluated. A
// deferred cell whose margin bracket lies inside the ±6σ band takes its
// noise draw and is decided from the bracket's bounds; only a draw the
// bounds cannot decide materializes the cell. Materializing every such
// read instead reads the same bits (the equivalence oracles cannot tell
// the two apart) but evaluates 1,692 quantiles here and leaves 2,405
// cells deferred; deciding from the bracket evaluates 157 and leaves
// 3,941.
func TestBracketDecidesNoisyReads(t *testing.T) {
	fast, ref := twinControllers(t, 0xE5E2)
	geom := fast.Array().Geometry()
	const seg = 0
	addr := seg * geom.SegmentBytes
	words := geom.WordsPerSegment()
	// The upper-case text core.ReferenceWatermark imprints: about half
	// the bits are zeros.
	const text = "TRUSTED CHIPMAKER DIE-SORT ACCEPT GRADE A "
	wm := make([]uint64, words)
	for i := range wm {
		wm[i] = uint64(text[(2*i)%len(text)])<<8 | uint64(text[(2*i+1)%len(text)])
	}
	for _, c := range []*Controller{fast, ref} {
		if err := c.StressSegmentWords(addr, wm, 40_000, true); err != nil {
			t.Fatal(err)
		}
		if err := c.EraseSegment(addr); err != nil {
			t.Fatal(err)
		}
		if err := c.ProgramBlock(addr, make([]uint64, words)); err != nil {
			t.Fatal(err)
		}
		if err := c.PartialEraseSegment(addr, 25*time.Microsecond); err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < words; w++ {
		a := addr + w*geom.WordBytes
		for r := 0; r < 3; r++ {
			v1, err1 := fast.ReadWord(a)
			v2, err2 := ref.ReadWord(a)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if v1 != v2 {
				t.Fatalf("word %d read %d: fast=%#x ref=%#x", w, r, v1, v2)
			}
		}
	}

	e := &fast.phys[seg].def
	evaluated := e.Stats().Quantiles
	t.Logf("%d quantiles evaluated, %d of %d cells still deferred", evaluated, e.Live(), geom.CellsPerSegment())
	if evaluated >= 400 {
		t.Errorf("%d quantiles evaluated: noisy reads materialized instead of deciding from the bracket", evaluated)
	}
	compareArrays(t, fast, ref, "after the extraction")
}
