package flashmark_test

import (
	"fmt"
	"time"

	flashmark "github.com/flashmark/flashmark"
)

// Example_imprintAndExtract shows the full manufacturer/integrator round
// trip: metadata is imprinted into physical wear at die sort and
// recovered through a timed partial erase at incoming inspection, even
// after a counterfeiter wipes the segment and writes cover data.
func Example_imprintAndExtract() {
	dev, err := flashmark.NewDevice(flashmark.PartSmallSim(), 42)
	if err != nil {
		panic(err)
	}
	codec := flashmark.Codec{Key: []byte("manufacturer-key")}
	payload, err := codec.Encode(flashmark.Payload{
		Manufacturer: "TC", DieID: 1001, Status: flashmark.StatusAccept,
	})
	if err != nil {
		panic(err)
	}
	img, err := flashmark.Replicate(payload, 7, dev.Geometry().WordsPerSegment())
	if err != nil {
		panic(err)
	}
	if err := flashmark.Imprint(dev, 0, img, flashmark.ImprintOptions{NPE: 80_000, Accelerated: true}); err != nil {
		panic(err)
	}

	// The counterfeiter's wipe changes the cells' contents, not their
	// wear: extraction ignores the digital content entirely.
	if err := dev.Unlock(); err != nil {
		panic(err)
	}
	if err := dev.EraseSegment(0); err != nil {
		panic(err)
	}
	if err := dev.ProgramBlock(0, []uint64{0xDEAD}); err != nil {
		panic(err)
	}
	dev.Lock()

	words, err := flashmark.Extract(dev, 0, flashmark.ExtractOptions{TPEW: 25 * time.Microsecond, Reads: 3})
	if err != nil {
		panic(err)
	}
	views, err := flashmark.ReplicaViews(words, codec.PayloadWords(), 7)
	if err != nil {
		panic(err)
	}
	got, report, err := codec.DecodeReplicas(views)
	if err != nil {
		panic(err)
	}
	fmt.Println(got.Manufacturer, got.DieID, got.Status, report.Tampered())
	// Output: TC 1001 ACCEPT false
}

// Example_verifier shows incoming inspection at a system integrator: a
// shipment of chips of unknown provenance, one of each §I counterfeit
// pathway mixed in, is screened with only the manufacturer's published
// t_PEW window and verification key. Every counterfeit is refused; no
// chip database or manufacturer contact is needed.
func Example_verifier() {
	key := []byte("trusted-chipmaker-key")
	factory := flashmark.FactoryConfig{
		Fab:          flashmark.NORFab(flashmark.PartSmallSim()),
		Codec:        flashmark.Codec{Key: key},
		Manufacturer: "TC",
	}
	shipment := []struct {
		class flashmark.ChipClass
		note  string
	}{
		{flashmark.ClassGenuineAccept, "genuine production die"},
		{flashmark.ClassGenuineAccept, "genuine production die"},
		{flashmark.ClassGenuineReject, "fall-out die leaked from packaging"},
		{flashmark.ClassRecycled, "salvaged from e-waste, relabeled"},
		{flashmark.ClassMetadataForgery, "blank die, forged metadata record"},
		{flashmark.ClassDigitalClone, "bit-copy of a genuine watermark"},
		{flashmark.ClassTopUpTamper, "REJECT die 'upgraded' by stressing"},
		{flashmark.ClassUnmarked, "rebranded third-party part"},
	}
	v := &flashmark.Verifier{
		Codec:          flashmark.Codec{Key: key},
		Manufacturer:   "TC",
		TPEW:           25 * time.Microsecond, // the published window
		CheckRecycling: true,
	}
	accepted := 0
	for i, item := range shipment {
		dev, err := flashmark.Fabricate(item.class, factory, uint64(0xC000+i), uint64(5000+i))
		if err != nil {
			panic(err)
		}
		res, err := v.Verify(dev)
		if err != nil {
			panic(err)
		}
		if res.Verdict.Accepted() {
			accepted++
		}
		fmt.Printf("%-36s %s\n", item.note, res.Verdict)
	}
	fmt.Printf("accepted %d of %d\n", accepted, len(shipment))
	// Output:
	// genuine production die               GENUINE
	// genuine production die               GENUINE
	// fall-out die leaked from packaging   REJECT-DIE
	// salvaged from e-waste, relabeled     RECYCLED
	// blank die, forged metadata record    NO-WATERMARK
	// bit-copy of a genuine watermark      NO-WATERMARK
	// REJECT die 'upgraded' by stressing   TAMPERED
	// rebranded third-party part           NO-WATERMARK
	// accepted 2 of 8
}

// Example_detectStress shows the one-round usage detector (paper Fig. 5):
// fresh and heavily cycled segments separate after a single timed
// partial erase.
func Example_detectStress() {
	dev, err := flashmark.NewDevice(flashmark.PartSmallSim(), 7)
	if err != nil {
		panic(err)
	}
	// Cycle segment 1 heavily; leave segment 2 fresh.
	zeros := make([]uint64, dev.Geometry().WordsPerSegment())
	if err := flashmark.Imprint(dev, 512, zeros, flashmark.ImprintOptions{NPE: 50_000, Accelerated: true}); err != nil {
		panic(err)
	}
	worn, err := flashmark.DetectStress(dev, 512, 24*time.Microsecond, 3)
	if err != nil {
		panic(err)
	}
	fresh, err := flashmark.DetectStress(dev, 1024, 24*time.Microsecond, 3)
	if err != nil {
		panic(err)
	}
	cells := dev.Geometry().CellsPerSegment()
	fmt.Println(worn > cells/2, fresh < cells/10)
	// Output: true true
}
