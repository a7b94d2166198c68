package nand_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"github.com/flashmark/flashmark/internal/counterfeit"
	"github.com/flashmark/flashmark/internal/device"
	"github.com/flashmark/flashmark/internal/floatgate"
	"github.com/flashmark/flashmark/internal/nand"
	"github.com/flashmark/flashmark/internal/wmcode"
)

// verifyTraces pins, per NAND chip class, what a full verification
// (extraction plus recycling screen) does to the chip as the recording
// decorator and the device's own clock see it: the operation counts,
// the virtual time per ledger class, and the verdict with its evidence.
// They were recorded with pass-by-pass majority reads (the adapter is a
// device.PassReader): each 3-read extraction of a 2,048-word block pays
// 24 page reads, one per page per pass, so any drift in a returned bit,
// a page-read count or a clock charge shows.
var verifyTraces = map[counterfeit.ChipClass]string{
	counterfeit.ClassGenuineAccept:   "GENUINE die=4400 disagree=0.284926 worn=0/2 verify=76.815ms ledger=[erase=20.37152s(n=4) host-io=61.44ms(n=1) overhead=7.2003s(n=31) partial-erase=75µs(n=3) program=3m12.0072s(n=25) read=1.8ms(n=72)] ops=[erase-segment=3 host-transfer=1 lock=3 partial-erase-segment=3 program-block=3 read-word=18432 unlock=3]",
	counterfeit.ClassGenuineReject:   "REJECT-DIE die=4401 disagree=0.266544 worn=0/0 verify=66.565ms ledger=[erase=17.05848s(n=2) host-io=61.44ms(n=1) overhead=7.2001s(n=11) partial-erase=25µs(n=1) program=3m12.0024s(n=9) read=600µs(n=24)] ops=[erase-segment=1 host-transfer=1 lock=1 partial-erase-segment=1 program-block=1 read-word=6144 unlock=1]",
	counterfeit.ClassRecycled:        "RECYCLED die=4402 disagree=0.292279 worn=2/2 verify=76.815ms ledger=[erase=21.0978s(n=15) host-io=61.44ms(n=1) overhead=9.90038s(n=42) partial-erase=75µs(n=3) program=4m24.0072s(n=28) read=1.8ms(n=72)] ops=[erase-segment=3 host-transfer=1 lock=3 partial-erase-segment=3 program-block=3 read-word=18432 unlock=3]",
	counterfeit.ClassMetadataForgery: "NO-WATERMARK die=0 disagree=0.042279 worn=0/0 verify=66.565ms ledger=[erase=4ms(n=2) host-io=61.44ms(n=1) overhead=190µs(n=19) partial-erase=25µs(n=1) program=4.8ms(n=16) read=600µs(n=24)] ops=[erase-segment=1 host-transfer=1 lock=1 partial-erase-segment=1 program-block=1 read-word=6144 unlock=1]",
	counterfeit.ClassDigitalClone:    "NO-WATERMARK die=0 disagree=0.047794 worn=0/0 verify=66.565ms ledger=[erase=4ms(n=2) host-io=61.44ms(n=1) overhead=190µs(n=19) partial-erase=25µs(n=1) program=4.8ms(n=16) read=600µs(n=24)] ops=[erase-segment=1 host-transfer=1 lock=1 partial-erase-segment=1 program-block=1 read-word=6144 unlock=1]",
	counterfeit.ClassTopUpTamper:     "TAMPERED die=4630 disagree=0.400735 worn=0/0 verify=66.565ms ledger=[erase=1m40.00152s(n=3) host-io=61.44ms(n=1) overhead=14.4001s(n=12) partial-erase=25µs(n=1) program=6m24.0024s(n=10) read=600µs(n=24)] ops=[erase-segment=1 host-transfer=1 lock=1 partial-erase-segment=1 program-block=1 read-word=6144 unlock=1]",
	counterfeit.ClassUnmarked:        "NO-WATERMARK die=0 disagree=0.044118 worn=0/0 verify=66.565ms ledger=[erase=2ms(n=1) host-io=61.44ms(n=1) overhead=100µs(n=10) partial-erase=25µs(n=1) program=2.4ms(n=8) read=600µs(n=24)] ops=[erase-segment=1 host-transfer=1 lock=1 partial-erase-segment=1 program-block=1 read-word=6144 unlock=1]",
	counterfeit.ClassReplayImprint:   "GENUINE die=4407 disagree=0.288603 worn=0/2 verify=76.815ms ledger=[erase=17.27952s(n=4) host-io=61.44ms(n=1) overhead=7.2003s(n=31) partial-erase=75µs(n=3) program=3m12.0072s(n=25) read=1.8ms(n=72)] ops=[erase-segment=3 host-transfer=1 lock=3 partial-erase-segment=3 program-block=3 read-word=18432 unlock=3]",
}

func TestVerifyOpTracePerChipClass(t *testing.T) {
	codec := wmcode.Codec{Key: []byte("nand-trace")}
	factory := counterfeit.FactoryConfig{
		Fab:   nand.Fab(nand.SmallNAND(), nand.SLCTiming(), floatgate.DefaultParams()),
		Codec: codec,
	}
	v := counterfeit.Verifier{Codec: codec, CheckRecycling: true}
	classes := make([]counterfeit.ChipClass, 0, len(verifyTraces))
	for class := range verifyTraces {
		classes = append(classes, class)
	}
	sort.Slice(classes, func(a, b int) bool { return classes[a] < classes[b] })
	if testing.Short() {
		// The classes an intake sees most: full screen, and refused
		// after extraction.
		classes = []counterfeit.ChipClass{counterfeit.ClassGenuineAccept, counterfeit.ClassMetadataForgery}
	}
	for _, class := range classes {
		dev, err := counterfeit.Fabricate(class, factory, 0x7A0+uint64(class), 4400+uint64(class))
		if err != nil {
			t.Fatal(err)
		}
		start := dev.Clock().Now()
		rec := device.Record(dev)
		res, err := v.VerifyContext(context.Background(), rec)
		if err != nil {
			t.Fatal(err)
		}
		ops := rec.Counts()
		names := make([]string, 0, len(ops))
		for op, n := range ops {
			names = append(names, fmt.Sprintf("%s=%d", op, n))
		}
		sort.Strings(names)
		got := fmt.Sprintf("%s die=%d disagree=%.6f worn=%d/%d verify=%v ledger=[%s] ops=[%s]",
			res.Verdict, res.Payload.DieID, res.ReplicaDisagreement, res.WornDataSegments,
			res.SampledDataSegments, dev.Clock().Now()-start, dev.Ledger(), strings.Join(names, " "))
		if want := verifyTraces[class]; got != want {
			t.Errorf("%s:\n got %s\nwant %s", class, got, want)
		}
	}
}
