// Benchmark harness: one testing.B benchmark per paper table/figure (see
// DESIGN.md §5 for the index), plus ablation benches for the design
// choices DESIGN.md calls out. Simulation work is measured in ns/op as
// usual; *virtual device time* — the quantity the paper's §V reports —
// is attached as custom metrics (vsec/op, vms/op), and headline quality
// metrics (BER, distinguishable bits) are attached where the figure is
// about quality rather than time.
//
// Run: go test -bench=. -benchmem
package flashmark_test

import (
	"testing"
	"time"

	flashmark "github.com/flashmark/flashmark"
	"github.com/flashmark/flashmark/internal/core"
	"github.com/flashmark/flashmark/internal/ecc"
	"github.com/flashmark/flashmark/internal/experiment"
	"github.com/flashmark/flashmark/internal/floatgate"
	"github.com/flashmark/flashmark/internal/mcu"
	"github.com/flashmark/flashmark/internal/nand"
	"github.com/flashmark/flashmark/internal/wmcode"
)

func mustDevice(tb testing.TB, seed uint64) flashmark.Device {
	tb.Helper()
	dev, err := flashmark.NewDevice(flashmark.PartSmallSim(), seed)
	if err != nil {
		tb.Fatal(err)
	}
	return dev
}

func mustImprint(tb testing.TB, dev flashmark.Device, wm []uint64, npe int) {
	tb.Helper()
	if err := flashmark.Imprint(dev, 0, wm, flashmark.ImprintOptions{NPE: npe, Accelerated: true}); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkFig4Characterize measures one full characterization sweep
// (paper Fig. 3 procedure producing one Fig. 4 curve) on a 20 K segment.
func BenchmarkFig4Characterize(b *testing.B) {
	dev := mustDevice(b, 0xB401)
	zeros := make([]uint64, dev.Geometry().WordsPerSegment())
	mustImprint(b, dev, zeros, 20_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err := flashmark.Characterize(dev, 0, flashmark.CharacterizeOptions{Step: 4 * time.Microsecond})
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := flashmark.AllErasedTime(points); !ok {
			b.Fatal("sweep did not complete")
		}
	}
}

// BenchmarkFig5Detect measures the one-round stress detection (Fig. 5).
func BenchmarkFig5Detect(b *testing.B) {
	dev := mustDevice(b, 0xB501)
	zeros := make([]uint64, dev.Geometry().WordsPerSegment())
	mustImprint(b, dev, zeros, 50_000)
	cells := dev.Geometry().CellsPerSegment()
	b.ResetTimer()
	var programmed int
	for i := 0; i < b.N; i++ {
		var err error
		programmed, err = flashmark.DetectStress(dev, 0, 24*time.Microsecond, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(programmed)/float64(cells)*100, "%programmed")
}

// BenchmarkFig6Trace measures the per-cycle imprint trace (Fig. 6).
func BenchmarkFig6Trace(b *testing.B) {
	cfg := experiment.Config{Fast: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig6(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9BER measures one single-read watermark extraction (the
// Fig. 9 primitive) and reports its BER at the calibrated operating point.
func BenchmarkFig9BER(b *testing.B) {
	dev := mustDevice(b, 0xB901)
	wm := flashmark.ReferenceWatermark(dev.Geometry().WordsPerSegment())
	mustImprint(b, dev, wm, 60_000)
	b.ResetTimer()
	var ber float64
	for i := 0; i < b.N; i++ {
		got, err := flashmark.Extract(dev, 0, flashmark.ExtractOptions{TPEW: 24 * time.Microsecond})
		if err != nil {
			b.Fatal(err)
		}
		ber = flashmark.BER(got, wm, 16)
	}
	b.ReportMetric(100*ber, "BER%")
}

// BenchmarkFig10Replicas measures extraction plus 7-way majority decode
// of a replicated watermark (Fig. 10).
func BenchmarkFig10Replicas(b *testing.B) {
	dev := mustDevice(b, 0xBA01)
	segWords := dev.Geometry().WordsPerSegment()
	payload := flashmark.ReferenceWatermark(segWords / 7)
	img, err := flashmark.Replicate(payload, 7, segWords)
	if err != nil {
		b.Fatal(err)
	}
	mustImprint(b, dev, img, 50_000)
	b.ResetTimer()
	var residual int
	for i := 0; i < b.N; i++ {
		extracted, err := flashmark.Extract(dev, 0, flashmark.ExtractOptions{TPEW: 26 * time.Microsecond})
		if err != nil {
			b.Fatal(err)
		}
		voted, err := flashmark.MajorityDecode(extracted, len(payload), 7, 16)
		if err != nil {
			b.Fatal(err)
		}
		residual = flashmark.BitErrors(voted, payload, 16)
	}
	b.ReportMetric(float64(residual), "residual-bits")
}

// BenchmarkFig11Replication measures replica-voted extraction at each
// replica count of Fig. 11 and reports the achieved BER.
func BenchmarkFig11Replication(b *testing.B) {
	for _, reps := range []int{3, 5, 7} {
		b.Run(itoa(reps)+"replicas", func(b *testing.B) {
			dev := mustDevice(b, 0xBB00+uint64(reps))
			segWords := dev.Geometry().WordsPerSegment()
			payload := flashmark.ReferenceWatermark(segWords / reps)
			img, err := flashmark.Replicate(payload, reps, segWords)
			if err != nil {
				b.Fatal(err)
			}
			mustImprint(b, dev, img, 40_000)
			b.ResetTimer()
			var ber float64
			for i := 0; i < b.N; i++ {
				extracted, err := flashmark.Extract(dev, 0, flashmark.ExtractOptions{TPEW: 24 * time.Microsecond})
				if err != nil {
					b.Fatal(err)
				}
				voted, err := flashmark.MajorityDecode(extracted, len(payload), reps, 16)
				if err != nil {
					b.Fatal(err)
				}
				ber = flashmark.BER(voted, payload, 16)
			}
			b.ReportMetric(100*ber, "BER%")
		})
	}
}

// BenchmarkImprintTimeBaseline measures a 40 K imprint with nominal
// erases and reports the virtual tester time (paper §V: 1380 s).
func BenchmarkImprintTimeBaseline(b *testing.B) {
	benchImprintTime(b, false, 1380)
}

// BenchmarkImprintTimeAccelerated measures a 40 K imprint with the
// premature-erase-exit procedure (paper §V: 387 s, ~3.5x faster).
func BenchmarkImprintTimeAccelerated(b *testing.B) {
	benchImprintTime(b, true, 387)
}

func benchImprintTime(b *testing.B, accelerated bool, paperSec float64) {
	wm := flashmark.ReferenceWatermark(flashmark.PartSmallSim().Geometry.WordsPerSegment())
	b.ResetTimer()
	var virtual time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dev := mustDevice(b, 0xBC00+uint64(i))
		b.StartTimer()
		start := dev.Clock().Now()
		if err := flashmark.Imprint(dev, 0, wm, flashmark.ImprintOptions{NPE: 40_000, Accelerated: accelerated}); err != nil {
			b.Fatal(err)
		}
		virtual = dev.Clock().Now() - start
	}
	b.ReportMetric(virtual.Seconds(), "vsec/op")
	b.ReportMetric(paperSec, "paper-vsec")
}

// BenchmarkExtractTime measures the full verification extraction
// (3 reads, host readout) and reports virtual time (paper §V: ~170 ms).
func BenchmarkExtractTime(b *testing.B) {
	dev := mustDevice(b, 0xBD01)
	wm := flashmark.ReferenceWatermark(dev.Geometry().WordsPerSegment())
	mustImprint(b, dev, wm, 40_000)
	b.ResetTimer()
	var virtual time.Duration
	for i := 0; i < b.N; i++ {
		start := dev.Clock().Now()
		if _, err := flashmark.Extract(dev, 0, flashmark.ExtractOptions{
			TPEW: 25 * time.Microsecond, Reads: 3, HostReadout: true,
		}); err != nil {
			b.Fatal(err)
		}
		virtual = dev.Clock().Now() - start
	}
	b.ReportMetric(virtual.Seconds()*1000, "vms/op")
	b.ReportMetric(170, "paper-vms")
}

// BenchmarkSupplyChainVerify measures one full incoming-inspection
// verification (TAB-SUPPLY's per-chip cost).
func BenchmarkSupplyChainVerify(b *testing.B) {
	key := []byte("k")
	factory := flashmark.FactoryConfig{Fab: flashmark.NORFab(flashmark.PartSmallSim()), Codec: flashmark.Codec{Key: key}}
	dev, err := flashmark.Fabricate(flashmark.ClassGenuineAccept, factory, 0xBE01, 42)
	if err != nil {
		b.Fatal(err)
	}
	v := &flashmark.Verifier{Codec: flashmark.Codec{Key: key}, Manufacturer: "TC"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := v.Verify(dev)
		if err != nil {
			b.Fatal(err)
		}
		if res.Verdict != flashmark.VerdictGenuine {
			b.Fatalf("verdict = %v", res.Verdict)
		}
	}
}

// --- Ablations (DESIGN.md §6) ---

// BenchmarkAblateMajorityReads sweeps the AnalyzeSegment read count N and
// reports the achieved single-extraction BER: the cost/benefit of the
// majority-read noise filter.
func BenchmarkAblateMajorityReads(b *testing.B) {
	for _, reads := range []int{1, 3, 5, 7} {
		b.Run(itoa(reads)+"reads", func(b *testing.B) {
			dev := mustDevice(b, 0xBF01)
			wm := flashmark.ReferenceWatermark(dev.Geometry().WordsPerSegment())
			mustImprint(b, dev, wm, 60_000)
			b.ResetTimer()
			var ber float64
			for i := 0; i < b.N; i++ {
				got, err := flashmark.Extract(dev, 0, flashmark.ExtractOptions{TPEW: 24 * time.Microsecond, Reads: reads})
				if err != nil {
					b.Fatal(err)
				}
				ber = flashmark.BER(got, wm, 16)
			}
			b.ReportMetric(100*ber, "BER%")
		})
	}
}

// BenchmarkAblateFusedDecode compares plain per-replica majority voting
// against the fused decode that also uses the balanced-code complement
// cells, reporting residual payload errors for each.
func BenchmarkAblateFusedDecode(b *testing.B) {
	codec := wmcode.Codec{Key: []byte("k")}
	payload, err := codec.Encode(wmcode.Payload{Manufacturer: "TC", DieID: 1, Status: wmcode.StatusAccept})
	if err != nil {
		b.Fatal(err)
	}
	dev := mustDevice(b, 0xC001)
	segWords := dev.Geometry().WordsPerSegment()
	img, err := flashmark.Replicate(payload, 7, segWords)
	if err != nil {
		b.Fatal(err)
	}
	mustImprint(b, dev, img, 50_000)
	extracted, err := flashmark.Extract(dev, 0, flashmark.ExtractOptions{TPEW: 25 * time.Microsecond})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("plain-majority", func(b *testing.B) {
		var errsN int
		for i := 0; i < b.N; i++ {
			voted, err := flashmark.MajorityDecode(extracted, len(payload), 7, 16)
			if err != nil {
				b.Fatal(err)
			}
			errsN = flashmark.BitErrors(voted, payload, 16)
		}
		b.ReportMetric(float64(errsN), "residual-bits")
	})
	b.Run("fused", func(b *testing.B) {
		views, err := flashmark.ReplicaViews(extracted, len(payload), 7)
		if err != nil {
			b.Fatal(err)
		}
		var bad int
		for i := 0; i < b.N; i++ {
			got, _, err := codec.DecodeReplicas(views)
			if err != nil {
				b.Fatal(err)
			}
			reenc, err := codec.Encode(got)
			if err != nil {
				b.Fatal(err)
			}
			bad = flashmark.BitErrors(reenc, payload, 16)
		}
		b.ReportMetric(float64(bad), "residual-bits")
	})
}

// BenchmarkAblateEraseWear sweeps the erase-only wear fraction γ — the
// model's second-most sensitive constant — and reports the achieved
// single-read BER at the 40 K operating point.
func BenchmarkAblateEraseWear(b *testing.B) {
	for _, gamma := range []float64{0, 0.0625, 0.25} {
		name := "gamma0"
		switch gamma {
		case 0.0625:
			name = "gamma1_16"
		case 0.25:
			name = "gamma1_4"
		}
		b.Run(name, func(b *testing.B) {
			part := mcu.PartSmallSim()
			params := floatgate.DefaultParams()
			params.EraseOnlyWear = gamma
			part.Params = params
			dev, err := mcu.NewDevice(part, 0xC101)
			if err != nil {
				b.Fatal(err)
			}
			wm := core.ReferenceWatermark(part.Geometry.WordsPerSegment())
			if err := core.ImprintSegment(dev, 0, wm, core.ImprintOptions{NPE: 40_000, Accelerated: true}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var ber float64
			for i := 0; i < b.N; i++ {
				got, err := core.ExtractSegment(dev, 0, core.ExtractOptions{TPEW: 24 * time.Microsecond})
				if err != nil {
					b.Fatal(err)
				}
				ber = core.BER(got, wm, 16)
			}
			b.ReportMetric(100*ber, "BER%")
		})
	}
}

// BenchmarkAblateAcceleratedErase compares the two imprint erase
// strategies at equal N_PE on both simulation cost and virtual time.
func BenchmarkAblateAcceleratedErase(b *testing.B) {
	for _, acc := range []bool{false, true} {
		name := "nominal"
		if acc {
			name = "adaptive"
		}
		b.Run(name, func(b *testing.B) {
			wm := flashmark.ReferenceWatermark(flashmark.PartSmallSim().Geometry.WordsPerSegment())
			var virtual time.Duration
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dev := mustDevice(b, 0xC201)
				b.StartTimer()
				if err := flashmark.Imprint(dev, 0, wm, flashmark.ImprintOptions{NPE: 10_000, Accelerated: acc}); err != nil {
					b.Fatal(err)
				}
				virtual = dev.Clock().Now()
			}
			b.ReportMetric(virtual.Seconds(), "vsec/op")
		})
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkNANDImprintExtract measures the Flashmark round trip on the
// NAND substrate (experiment EXT-NAND) and reports the achieved BER.
func BenchmarkNANDImprintExtract(b *testing.B) {
	dev, err := nand.Open(nand.SmallNAND(), nand.SLCTiming(), floatgate.DefaultParams(), 0xD001)
	if err != nil {
		b.Fatal(err)
	}
	geom := dev.Geometry()
	wm := make([]uint64, geom.WordsPerSegment())
	for i := range wm {
		wm[i] = uint64(byte(2*i*3)) | uint64(byte((2*i+1)*3))<<8
	}
	if err := flashmark.Imprint(dev, 0, wm, flashmark.ImprintOptions{NPE: 60_000, Accelerated: true}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var ber float64
	for i := 0; i < b.N; i++ {
		got, err := flashmark.Extract(dev, 0, flashmark.ExtractOptions{TPEW: 24 * time.Microsecond})
		if err != nil {
			b.Fatal(err)
		}
		ber = flashmark.BER(got, wm, geom.WordBits())
	}
	b.ReportMetric(100*ber, "BER%")
}

// BenchmarkAblateECCvsReplication compares the decode cost of the two
// §V protection alternatives on equal payloads.
func BenchmarkAblateECCvsReplication(b *testing.B) {
	payload := []byte("TC DIE-1001 ACCEPT GRADE-2 WK27")
	words := ecc.EncodeBytes(payload)
	b.Run("secded-decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := ecc.DecodeBytes(words, len(payload)); err != nil {
				b.Fatal(err)
			}
		}
	})
	raw := make([]uint64, (len(payload)+1)/2)
	for i, c := range payload {
		raw[i/2] |= uint64(c) << uint(8*(i%2))
	}
	img, err := flashmark.Replicate(raw, 7, len(raw)*7)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("7replica-decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := flashmark.MajorityDecode(img, len(raw), 7, 16); err != nil {
				b.Fatal(err)
			}
		}
	})
}
