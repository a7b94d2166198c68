package nand_test

import (
	"bytes"
	"context"
	"testing"

	"github.com/flashmark/flashmark/internal/counterfeit"
	"github.com/flashmark/flashmark/internal/floatgate"
	"github.com/flashmark/flashmark/internal/nand"
	"github.com/flashmark/flashmark/internal/wmcode"
)

// TestBracketDecidesNoisyReadsNAND verifies genuine SmallNAND dice with
// the recycling screen on, each loaded from its chip file as the
// service loads it, and counts the work of the blocks' deferral
// engines. A partial erase defers every programmed cell's Gamma
// quantile that its quantile grid does not pin, and reads decide the
// deferred cells from margin brackets. Evaluating those quantiles
// eagerly instead reads the same bits, so no equivalence oracle can
// tell, but it evaluates about 32,900 quantiles per verify; the engine
// evaluates about 450. A partial erase that bypassed the engine would
// defer nothing, which the deferral count catches.
//
// The engine derives each deferred cell's base about once per verify:
// U alone where it defers a cell in a worn group, the full base at the
// first read that needs its bracket, and none at a later read its draw
// window decides. Deriving full bases at every deferral and every
// noisy read instead (about 170,000 per verify) reads the same bits
// too; the engine derives about 100,000, about one for each of the
// 98,304 programmed cells the verify touches, and decides about 37,000
// reads from windows.
func TestBracketDecidesNoisyReadsNAND(t *testing.T) {
	codec := wmcode.Codec{Key: []byte("k")}
	factory := counterfeit.FactoryConfig{
		Fab:          nand.Fab(nand.SmallNAND(), nand.SLCTiming(), floatgate.DefaultParams()),
		Codec:        codec,
		Manufacturer: "TC",
	}
	v := counterfeit.Verifier{Codec: codec, CheckRecycling: true}
	for i := uint64(0); i < 2; i++ {
		dev, err := counterfeit.Fabricate(counterfeit.ClassGenuineAccept, factory, 1000+i, i+1)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := dev.Save(&buf); err != nil {
			t.Fatal(err)
		}
		a, err := nand.LoadAdapter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		res, err := v.VerifyContext(context.Background(), a)
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != counterfeit.VerdictGenuine {
			t.Fatalf("die %d: verdict %v", i+1, res.Verdict)
		}
		st := nand.DeferStats(a)
		t.Logf("die %d: %d cells deferred, %d quantiles evaluated, %d full bases derived, %d reads decided from a window",
			i+1, st.Deferred, st.Quantiles, st.Bases, st.WindowReads)
		if st.Quantiles >= 1000 {
			t.Errorf("die %d: %d quantiles evaluated: deferred margins were computed instead of decided from brackets", i+1, st.Quantiles)
		}
		if st.Deferred < 10_000 {
			t.Errorf("die %d: only %d cells deferred: the partial erases bypassed the engine", i+1, st.Deferred)
		}
		if st.Bases >= 115_000 {
			t.Errorf("die %d: %d full cell bases derived: deferrals or windowed reads derived bases they do not need", i+1, st.Bases)
		}
		if st.WindowReads < 20_000 {
			t.Errorf("die %d: only %d reads decided from a draw window", i+1, st.WindowReads)
		}
	}
}
