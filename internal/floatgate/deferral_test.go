package floatgate

import (
	"math"
	"testing"

	"github.com/flashmark/flashmark/internal/nor"
)

// TestArithmeticNaNIsNoTag: a NaN that arithmetic or math.NaN yields,
// stored the way nor.ClampMargin stores a margin, never reads as a
// deferral tag, so a margin computed from finite state cannot pose as
// one. Every tag the engine writes reads as one and names its group,
// whatever read decision it caches.
func TestArithmeticNaNIsNoTag(t *testing.T) {
	zero, inf := 0.0, math.Inf(1)
	for _, v := range []float64{math.NaN(), -math.NaN(), inf - inf, zero / zero, inf * zero, math.Sqrt(-1)} {
		if m := nor.ClampMargin(v); isTag(m) {
			t.Errorf("NaN %#x stores as %#x, a tag", math.Float64bits(v), math.Float32bits(m))
		}
	}
	for _, g := range []int{0, 1, 4095, maxGroups - 1} {
		for _, dec := range []uint32{0, decZero, decOne} {
			m := math.Float32frombits(math.Float32bits(tagOf(g)) | dec)
			b := math.Float32bits(m)
			if !isTag(m) || int(b&groupMask)-1 != g || b&decMask != dec {
				t.Errorf("group %d decision %#x: tag %#x reads back wrong", g, dec, b)
			}
		}
	}
}
