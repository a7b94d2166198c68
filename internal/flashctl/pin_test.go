package flashctl

import (
	"testing"
	"time"

	"github.com/flashmark/flashmark/internal/floatgate"
)

// TestFreshSegmentPinsMargins drives one extraction round on a fresh
// segment — erase, program zeros, a 25 µs partial erase, three reads of
// every word — on twin controllers, and counts the Gamma quantiles the
// segment's deferral engine evaluated: grid points at the partial erase,
// and then at most one per deferred cell, since a group records each
// quantile it evaluates. Before margins were pinned, every cell joined the
// group and such a round evaluated ~2,200 quantiles; now the float32
// store cannot see a barely worn cell's quantile term, so the partial
// erase stores nearly every margin outright. The reads must still match
// the reference path word for word.
func TestFreshSegmentPinsMargins(t *testing.T) {
	fast, ref := twinControllers(t, 0xF4E5)
	geom := fast.Array().Geometry()
	const seg = 3
	addr := seg * geom.SegmentBytes
	zeros := make([]uint64, geom.WordsPerSegment())
	for _, c := range []*Controller{fast, ref} {
		if err := c.EraseSegment(addr); err != nil {
			t.Fatal(err)
		}
		if err := c.ProgramBlock(addr, zeros); err != nil {
			t.Fatal(err)
		}
		if err := c.PartialEraseSegment(addr, 25*time.Microsecond); err != nil {
			t.Fatal(err)
		}
	}
	grid := fast.phys[seg].def.Stats().Quantiles // no read has run yet
	for r := 0; r < 3; r++ {
		for w := 0; w < geom.WordsPerSegment(); w++ {
			a := addr + w*geom.WordBytes
			v1, err1 := fast.ReadWord(a)
			v2, err2 := ref.ReadWord(a)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if v1 != v2 {
				t.Fatalf("read %d word %d: fast=%#x ref=%#x", r, w, v1, v2)
			}
		}
	}

	st := fast.phys[seg].def.Stats()
	t.Logf("%d of %d cells deferred, %d grid quantiles, %d quantiles in all", st.Deferred, geom.CellsPerSegment(), grid, st.Quantiles)
	if st.Deferred > 16 {
		t.Errorf("%d cells deferred: the partial erase pinned too few margins", st.Deferred)
	}
	if grid > floatgate.PinGridPoints {
		t.Errorf("%d grid quantiles for %d grid points", grid, floatgate.PinGridPoints)
	}
	if st.Quantiles > grid+st.Deferred {
		t.Errorf("%d quantiles for %d grid points and %d deferred cells", st.Quantiles, grid, st.Deferred)
	}
	compareArrays(t, fast, ref, "after the round")
}
