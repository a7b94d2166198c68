package experiment

import (
	"time"

	"github.com/flashmark/flashmark/internal/core"
	"github.com/flashmark/flashmark/internal/device"
	"github.com/flashmark/flashmark/internal/mcu"
	"github.com/flashmark/flashmark/internal/parallel"
	"github.com/flashmark/flashmark/internal/report"
)

func init() { register("family", RunFamily) }

// FamilyResult is the structured outcome of the per-family calibration
// study (paper §IV: the partial erase time window "is determined by the
// manufacturer ... for each family of devices and can be publicly
// communicated to system integrators").
type FamilyResult struct {
	Artifact *Artifact
	// CrossBER is the BER when the MSP430 family's window is applied to
	// the ALT-NOR family (wrong window).
	CrossBER float64
	// OwnBER is the BER at ALT-NOR's own calibrated window.
	OwnBER float64
	// AltWindow is the ALT-NOR family's calibrated optimum.
	AltWindow time.Duration
}

// Family imprints the same watermark on two device families and shows
// that the extraction window does not transfer: each family needs its
// own published calibration.
func Family(cfg Config) (*FamilyResult, error) {
	cfg = cfg.withDefaults()
	const npe = 80_000
	msp430Window := 25 * time.Microsecond

	alt := mcu.PartAltNOR()
	wm := core.ReferenceWatermark(alt.Geometry.WordsPerSegment())
	bits := alt.Geometry.WordBits()

	res := &FamilyResult{}
	// Two independent chains fan out: the device-under-test (imprint +
	// wrong-window extraction) and the manufacturer's calibration sweep
	// (its own fresh devices). The own-window extraction reuses the
	// device under test AND the calibration result, so it runs serially
	// after the join.
	var dev device.Device
	var cal core.Calibration
	err := parallel.ForEach(cfg.pool(), 2, func(i int) error {
		if i == 0 {
			d, err := mcu.Open(alt, cfg.Seed^0xFA11)
			if err != nil {
				return err
			}
			if err := core.ImprintSegment(d, 0, wm, core.ImprintOptions{NPE: npe, Accelerated: true}); err != nil {
				return err
			}
			// Wrong window: the MSP430 family's published t_PEW.
			got, err := core.ExtractSegment(d, 0, core.ExtractOptions{TPEW: msp430Window})
			if err != nil {
				return err
			}
			dev = d
			res.CrossBER = 100 * core.BER(got, wm, bits)
			return nil
		}
		// Right window: calibrate ALT-NOR as its manufacturer would.
		seeds := []uint64{0xA17A, 0xA17B}
		if cfg.Fast {
			seeds = seeds[:1]
		}
		c, err := core.Calibrate(mcu.Fab(alt), seeds, npe, core.CalibrateOptions{
			SweepLo:   28 * time.Microsecond,
			SweepHi:   48 * time.Microsecond,
			SweepStep: 500 * time.Nanosecond,
		})
		if err != nil {
			return err
		}
		cal = c
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.AltWindow = cal.Best
	got, err := core.ExtractSegment(dev, 0, core.ExtractOptions{TPEW: cal.Best})
	if err != nil {
		return nil, err
	}
	res.OwnBER = 100 * core.BER(got, wm, bits)

	tbl := report.Table{
		Title:   "EXT-FAMILY — the extraction window is per device family (§IV)",
		Columns: []string{"window applied to ALT-NOR", "t_PEW (µs)", "BER (%)"},
	}
	tbl.AddRow("MSP430 family's published window", us(msp430Window), res.CrossBER)
	tbl.AddRow("ALT-NOR's own calibrated window", us(cal.Best), res.OwnBER)
	tbl.AddNote("ALT-NOR: slower process (fresh erase ~34 µs vs ~21.5 µs); same algorithms, different published constants")
	tbl.AddNote("ALT-NOR calibrated window: [%v, %v]", cal.WindowLo, cal.WindowHi)
	res.Artifact = &Artifact{
		ID:     "family",
		Title:  "Per-family calibration of the extraction window",
		Tables: []report.Table{tbl},
	}
	return res, nil
}

// RunFamily adapts Family to the registry.
func RunFamily(cfg Config) (*Artifact, error) {
	res, err := Family(cfg)
	if err != nil {
		return nil, err
	}
	return res.Artifact, nil
}
