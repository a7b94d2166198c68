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

// Example_dieSort is the manufacturer-side workflow (paper §IV): the
// extraction window is calibrated once per device family on reference
// dice and published to system integrators; then a lot comes off the
// tester, passing dice are watermarked ACCEPT and failing dice REJECT,
// and outgoing QA reads every watermark back before shipping.
func Example_dieSort() {
	part := flashmark.PartSmallSim()
	codec := flashmark.Codec{Key: []byte("trusted-chipmaker-key")}

	// 1. One-time family calibration on reference dice: find the t_PEW
	// window that minimizes extraction errors at the production N_PE.
	const npe = 80_000
	fmt.Println("calibrating extraction window on 3 reference dice...")
	cal, err := flashmark.Calibrate(flashmark.NORFab(part), []uint64{9001, 9002, 9003}, npe, flashmark.CalibrateOptions{
		SweepLo:   20 * time.Microsecond,
		SweepHi:   32 * time.Microsecond,
		SweepStep: time.Microsecond,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("published window: t_PEW in [%v, %v], best %v (BER %.2f%%)\n\n",
		cal.WindowLo, cal.WindowHi, cal.Best, 100*cal.BestBER)

	// 2. Die-sort a lot of 8 dice; die 3 and 6 fail parametric test.
	fails := map[int]bool{3: true, 6: true}
	var totalImprint time.Duration
	fmt.Println("die-sorting lot FM26-A (8 dice)...")
	for die := 1; die <= 8; die++ {
		dev, err := flashmark.NewDevice(part, uint64(0xA000+die))
		if err != nil {
			panic(err)
		}
		status := flashmark.StatusAccept
		if fails[die] {
			status = flashmark.StatusReject
		}
		payload, err := codec.Encode(flashmark.Payload{
			Manufacturer: "TC",
			DieID:        uint64(260000 + die),
			SpeedGrade:   2,
			Status:       status,
			YearWeek:     2627,
		})
		if err != nil {
			panic(err)
		}
		img, err := flashmark.Replicate(payload, 7, part.Geometry.WordsPerSegment())
		if err != nil {
			panic(err)
		}
		start := dev.Clock().Now()
		if err := flashmark.Imprint(dev, 0, img, flashmark.ImprintOptions{NPE: npe, Accelerated: true}); err != nil {
			panic(err)
		}
		elapsed := dev.Clock().Now() - start
		totalImprint += elapsed

		// Outgoing QA: extract and confirm before shipping.
		words, err := flashmark.Extract(dev, 0, flashmark.ExtractOptions{TPEW: cal.Best, Reads: 3})
		if err != nil {
			panic(err)
		}
		views, err := flashmark.ReplicaViews(words, codec.PayloadWords(), 7)
		if err != nil {
			panic(err)
		}
		got, rep, err := codec.DecodeReplicas(views)
		qa := "OK"
		if err != nil || rep.Tampered() || got.Status != status {
			qa = "FAILED READBACK"
		}
		fmt.Printf("  die %d: %-6s  imprint %8v  QA %s\n", die, status, elapsed.Round(time.Second), qa)
	}
	fmt.Printf("\nlot imprint time: %v total, %v per die (tester time)\n",
		totalImprint.Round(time.Second), (totalImprint / 8).Round(time.Second))
	fmt.Println("REJECT dice can ship to the crusher; even if they leak, the")
	fmt.Println("imprinted REJECT cannot be turned into ACCEPT by any flash operation.")
	// Output:
	// calibrating extraction window on 3 reference dice...
	// published window: t_PEW in [24µs, 28µs], best 25µs (BER 5.48%)
	//
	// die-sorting lot FM26-A (8 dice)...
	//   die 1: ACCEPT  imprint    13m0s  QA OK
	//   die 2: ACCEPT  imprint    13m0s  QA OK
	//   die 3: REJECT  imprint   13m12s  QA OK
	//   die 4: ACCEPT  imprint    13m2s  QA OK
	//   die 5: ACCEPT  imprint    13m5s  QA OK
	//   die 6: REJECT  imprint    13m1s  QA OK
	//   die 7: ACCEPT  imprint    13m6s  QA OK
	//   die 8: ACCEPT  imprint    13m0s  QA OK
	//
	// lot imprint time: 1h44m27s total, 13m3s per die (tester time)
	// REJECT dice can ship to the crusher; even if they leak, the
	// imprinted REJECT cannot be turned into ACCEPT by any flash operation.
}

// Example_attack is the counterfeiter's-eye view. Starting from a
// REJECT-marked fall-out die (the paper's §I scenario), it tries every
// flash operation available — erase/rewrite, stress top-up, digital
// cloning onto a fresh chip — and each attempt fails at verification.
// It ends with the one attack physics cannot stop (a full replay
// imprint), which the batch audit of die identities catches.
func Example_attack() {
	part := flashmark.PartSmallSim()
	key := []byte("trusted-chipmaker-key")
	factory := flashmark.FactoryConfig{
		Fab:          flashmark.NORFab(part),
		Codec:        flashmark.Codec{Key: key},
		Manufacturer: "TC",
	}
	verifier := &flashmark.Verifier{
		Codec:        flashmark.Codec{Key: key},
		Manufacturer: "TC",
		TPEW:         25 * time.Microsecond,
	}
	verify := func(dev flashmark.Device) {
		res, err := verifier.Verify(dev)
		if err != nil {
			panic(err)
		}
		outcome := "REFUSED"
		if res.Verdict.Accepted() {
			outcome = "ACCEPTED (!)"
		}
		fmt.Printf("  -> verdict %-15s %s\n\n", res.Verdict, outcome)
	}
	fabricate := func(class flashmark.ChipClass, seed, die uint64) flashmark.Device {
		dev, err := flashmark.Fabricate(class, factory, seed, die)
		if err != nil {
			panic(err)
		}
		return dev
	}

	// The counterfeiter holds a genuine die that was watermarked REJECT
	// at die sort.
	fmt.Println("attack 0: sell the REJECT die as-is")
	verify(fabricate(flashmark.ClassGenuineReject, 0xE001, 6001))

	fmt.Println("attack 1: erase the watermark segment and program a forged ACCEPT record")
	dev := fabricate(flashmark.ClassGenuineReject, 0xE002, 6002)
	if err := dev.Unlock(); err != nil {
		panic(err)
	}
	if err := dev.EraseSegment(0); err != nil {
		panic(err)
	}
	codec := flashmark.Codec{Key: key} // suppose the key even leaked
	forged, err := codec.Encode(flashmark.Payload{Manufacturer: "TC", DieID: 6002, Status: flashmark.StatusAccept})
	if err != nil {
		panic(err)
	}
	img, err := flashmark.Replicate(forged, 7, part.Geometry.WordsPerSegment())
	if err != nil {
		panic(err)
	}
	if err := dev.ProgramBlock(0, img); err != nil {
		panic(err)
	}
	dev.Lock()
	fmt.Println("  (digital content now reads as a perfect signed ACCEPT record)")
	fmt.Println("  but extraction senses wear, not data: the REJECT cells are still slow")
	verify(dev)

	fmt.Println("attack 2: stress additional cells to morph REJECT toward ACCEPT")
	fmt.Println("  (stressing can only turn good cells bad — each data bit is stored")
	fmt.Println("   with its complement, so one-way damage leaves a detectable tie)")
	verify(fabricate(flashmark.ClassTopUpTamper, 0xE003, 6003))

	fmt.Println("attack 3: digitally clone a genuine ACCEPT segment onto a fresh chip")
	fmt.Println("  (plain programming leaves no wear; extraction reads a blank)")
	verify(fabricate(flashmark.ClassDigitalClone, 0xE004, 6004))

	fmt.Println("attack 4: replay the FULL imprint procedure on a fresh inferior chip")
	fmt.Println("  (the residual risk: real stress is real stress; physics alone")
	fmt.Println("   cannot tell this from a genuine imprint)")
	verify(fabricate(flashmark.ClassReplayImprint, 0xE005, 6005))

	fmt.Println("attack 4 revisited: batch audit of die identities")
	fmt.Println("  (the replay necessarily duplicates its victim's die ID — the")
	fmt.Println("   attacker cannot mint fresh signed IDs without the key)")
	verifier.Audit = flashmark.NewAuditor()
	victim := fabricate(flashmark.ClassGenuineAccept, 0xE006, 7007)
	clone := fabricate(flashmark.ClassReplayImprint, 0xE007, 7007)
	fmt.Println("  victim chip (die 7007):")
	verify(victim)
	fmt.Println("  replayed clone (same die 7007):")
	verify(clone)
	fmt.Println("remaining exposure: the clone passes only until any other chip in")
	fmt.Println("the batch carries the same die ID — plus hundreds of seconds of")
	fmt.Println("tester time per chip and a leaked signing key as preconditions.")
	// Output:
	// attack 0: sell the REJECT die as-is
	//   -> verdict REJECT-DIE      REFUSED
	//
	// attack 1: erase the watermark segment and program a forged ACCEPT record
	//   (digital content now reads as a perfect signed ACCEPT record)
	//   but extraction senses wear, not data: the REJECT cells are still slow
	//   -> verdict REJECT-DIE      REFUSED
	//
	// attack 2: stress additional cells to morph REJECT toward ACCEPT
	//   (stressing can only turn good cells bad — each data bit is stored
	//    with its complement, so one-way damage leaves a detectable tie)
	//   -> verdict TAMPERED        REFUSED
	//
	// attack 3: digitally clone a genuine ACCEPT segment onto a fresh chip
	//   (plain programming leaves no wear; extraction reads a blank)
	//   -> verdict NO-WATERMARK    REFUSED
	//
	// attack 4: replay the FULL imprint procedure on a fresh inferior chip
	//   (the residual risk: real stress is real stress; physics alone
	//    cannot tell this from a genuine imprint)
	//   -> verdict GENUINE         ACCEPTED (!)
	//
	// attack 4 revisited: batch audit of die identities
	//   (the replay necessarily duplicates its victim's die ID — the
	//    attacker cannot mint fresh signed IDs without the key)
	//   victim chip (die 7007):
	//   -> verdict GENUINE         ACCEPTED (!)
	//
	//   replayed clone (same die 7007):
	//   -> verdict DUPLICATE-ID    REFUSED
	//
	// remaining exposure: the clone passes only until any other chip in
	// the batch carries the same die ID — plus hundreds of seconds of
	// tester time per chip and a leaked signing key as preconditions.
}

// Example_nand runs Flashmark on NAND flash (paper §VI: "the proposed
// method is applicable broadly to NOR and NAND flash memories"). Same
// cell physics, different discipline: erases happen a block at a time
// and pages must be programmed in order, so the imprint and extraction
// procedures carry over at block granularity.
func Example_nand() {
	geom := flashmark.SmallNAND()
	dev, err := flashmark.NewNANDDevice(geom, flashmark.SLCTiming(), flashmark.DefaultCellParams(), 77)
	if err != nil {
		panic(err)
	}
	fmt.Printf("NAND chip: %d blocks x %d pages x %d B\n",
		geom.Blocks, geom.PagesPerBlock, geom.PageBytes)

	// Watermark covering the reserved block (block 0): SECDED-encoded
	// metadata replicated 5x (the ECC study's lesson: the code corrects
	// one bad cell per word, replication handles the rest), padded with
	// 0xFF so the padding cells stay good.
	const replicas = 5
	meta := []byte("TC NAND DIE-7701 ACCEPT GRADE-1 WK27")
	encoded := flashmark.ECCEncodeBytes(meta)
	stored, err := flashmark.Replicate(encoded, replicas, geom.BlockBytes()/2)
	if err != nil {
		panic(err)
	}
	// The NAND chip satisfies the same Device interface as NOR parts, so
	// the standard Imprint/Extract procedures drive it directly.
	start := dev.Clock().Now()
	if err := flashmark.Imprint(dev, 0, stored, flashmark.ImprintOptions{NPE: 80_000, Accelerated: true}); err != nil {
		panic(err)
	}
	fmt.Printf("imprinted block 0 in %v of device time (SLC timings)\n", dev.Clock().Now()-start)

	// Counterfeiter wipes the block; the wear remains.
	if err := dev.EraseSegment(0); err != nil {
		panic(err)
	}
	fmt.Println("counterfeiter erased the block")

	words, err := flashmark.Extract(dev, 0, flashmark.ExtractOptions{TPEW: 25 * time.Microsecond})
	if err != nil {
		panic(err)
	}
	voted, err := flashmark.MajorityDecode(words, len(encoded), replicas, 16)
	if err != nil {
		panic(err)
	}
	recovered, stats, err := flashmark.ECCDecodeBytes(voted, len(meta))
	if err != nil {
		panic(err)
	}
	fmt.Printf("recovered: %q\n", recovered)
	fmt.Printf("ECC: %d words, %d corrected, %d double errors\n",
		stats.Words, stats.Corrected, stats.DoubleErrors)
	// Output:
	// NAND chip: 8 blocks x 8 pages x 512 B
	// imprinted block 0 in 3m36.30536s of device time (SLC timings)
	// counterfeiter erased the block
	// recovered: "TC NAND DIE-7701 ACCEPT GRADE-1 WK27"
	// ECC: 27 words, 0 corrected, 0 double errors
}
