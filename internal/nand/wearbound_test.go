package nand

import (
	"bytes"
	"context"
	"testing"
	"time"

	"github.com/flashmark/flashmark/internal/counterfeit"
	"github.com/flashmark/flashmark/internal/floatgate"
	"github.com/flashmark/flashmark/internal/wmcode"
)

// TestDistinctWearChipFileVerifiesFast verifies a crafted chip file:
// a genuine SmallNAND die whose every cell of a block carries a
// distinct wear value, (c mod 32,768)·1e-3 cycles added to cell c.
// Any client can post such a file. A deferral engine that grouped
// every distinct wear value would scan its groups once per cell,
// quadratic in the block size (about 7 s per verify); past its group
// bound it stores such cells with the reference arithmetic instead.
// The verify must finish in under a second and still accept the die.
func TestDistinctWearChipFileVerifiesFast(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector slows the physics past the wall-time bound")
	}
	codec := wmcode.Codec{Key: []byte("k")}
	factory := counterfeit.FactoryConfig{
		Fab:          Fab(SmallNAND(), SLCTiming(), floatgate.DefaultParams()),
		Codec:        codec,
		Manufacturer: "TC",
	}
	dev, err := counterfeit.Fabricate(counterfeit.ClassGenuineAccept, factory, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := dev.(*Adapter)
	perBlock := a.d.geom.CellsPerBlock()
	for c := 0; c < a.d.geom.Blocks*perBlock; c++ {
		a.d.cells.AddWear(c, float64(c%perBlock)*1e-3)
	}
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var l Loader
	crafted, err := l.Load(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	v := counterfeit.Verifier{Codec: codec, CheckRecycling: true}
	start := time.Now()
	res, err := v.VerifyContext(context.Background(), crafted)
	took := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	st := DeferStats(crafted)
	t.Logf("verdict %v in %v: %d cells deferred, %d quantiles evaluated", res.Verdict, took, st.Deferred, st.Quantiles)
	if res.Verdict != counterfeit.VerdictGenuine {
		t.Errorf("verdict %v, want %v", res.Verdict, counterfeit.VerdictGenuine)
	}
	if took > time.Second {
		t.Errorf("the verify took %v, over a second: the wear-group lookup is unbounded", took)
	}
}
