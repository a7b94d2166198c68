package core

import (
	"fmt"
	"time"

	"github.com/flashmark/flashmark/internal/device"
)

// CalibrationPoint is one swept extraction operating point.
type CalibrationPoint struct {
	TPEW time.Duration
	BER  float64
}

// Calibration is the outcome of the manufacturer-side search for the
// partial erase time window (paper §IV: "this time, or rather a time
// window, is determined by the manufacturer ... and can be publicly
// communicated to system integrators").
type Calibration struct {
	NPE      int
	Best     time.Duration
	BestBER  float64
	WindowLo time.Duration // lowest t_PEW with near-minimum BER
	WindowHi time.Duration // highest t_PEW with near-minimum BER
	Points   []CalibrationPoint
}

// CalibrateOptions controls Calibrate.
type CalibrateOptions struct {
	// Sweep range and step; zero values select 18–45 µs in 0.5 µs steps.
	SweepLo, SweepHi, SweepStep time.Duration
	// Reads per extraction (odd); zero selects 1.
	Reads int
}

// windowFactor bounds the published window: points with
// BER <= windowFactor*BestBER + 0.002 are inside.
const windowFactor = 1.5

// ReferenceWatermark returns a representative watermark: the repeating
// upper-case ASCII text the paper uses, filling segWords words. Roughly
// half the bits are zeros, matching the paper's workload.
func ReferenceWatermark(segWords int) []uint64 {
	const text = "TRUSTED CHIPMAKER DIE-SORT ACCEPT GRADE A "
	out := make([]uint64, segWords)
	for i := range out {
		hi := text[(2*i)%len(text)]
		lo := text[(2*i+1)%len(text)]
		out[i] = uint64(hi)<<8 | uint64(lo)
	}
	return out
}

// Calibrate determines the extraction window for a device family at a
// given imprint cycle count by imprinting ReferenceWatermark on reference
// dice (one fabricated per seed) and sweeping the extraction partial
// erase time. The returned Points trace the Fig. 9 BER-vs-t_PE curve
// averaged over the dice. The fabricator abstracts the family: pass
// mcu.Fab(part) for a NOR family or nand.Fab(...) for a NAND one.
func Calibrate(fab device.Fab, seeds []uint64, npe int, opts CalibrateOptions) (Calibration, error) {
	if len(seeds) == 0 {
		return Calibration{}, fmt.Errorf("core: calibration needs at least one reference die")
	}
	if npe <= 0 {
		return Calibration{}, fmt.Errorf("core: calibration needs positive N_PE, got %d", npe)
	}
	lo, hi, step := opts.SweepLo, opts.SweepHi, opts.SweepStep
	if lo == 0 {
		lo = 18 * time.Microsecond
	}
	if hi == 0 {
		hi = 45 * time.Microsecond
	}
	if step == 0 {
		step = 500 * time.Nanosecond
	}
	if lo <= 0 || hi <= lo || step <= 0 {
		return Calibration{}, fmt.Errorf("core: bad sweep [%v, %v] step %v", lo, hi, step)
	}

	var grid []time.Duration
	for t := lo; t <= hi; t += step {
		grid = append(grid, t)
	}
	sums := make([]float64, len(grid))

	wordBits := 0
	for _, seed := range seeds {
		dev, err := fab(seed)
		if err != nil {
			return Calibration{}, err
		}
		geom := dev.Geometry()
		wordBits = geom.WordBits()
		pattern := ReferenceWatermark(geom.WordsPerSegment())
		if err := ImprintSegment(dev, 0, pattern, ImprintOptions{NPE: npe, Accelerated: true}); err != nil {
			return Calibration{}, err
		}
		for i, t := range grid {
			got, err := ExtractSegment(dev, 0, ExtractOptions{TPEW: t, Reads: opts.Reads})
			if err != nil {
				return Calibration{}, err
			}
			sums[i] += BER(got, pattern, wordBits)
		}
	}

	cal := Calibration{NPE: npe, Points: make([]CalibrationPoint, len(grid)), BestBER: 2}
	for i, t := range grid {
		ber := sums[i] / float64(len(seeds))
		cal.Points[i] = CalibrationPoint{TPEW: t, BER: ber}
		if ber < cal.BestBER {
			cal.BestBER = ber
			cal.Best = t
		}
	}
	limit := cal.BestBER*windowFactor + 0.002
	for _, p := range cal.Points {
		if p.BER <= limit {
			if cal.WindowLo == 0 {
				cal.WindowLo = p.TPEW
			}
			cal.WindowHi = p.TPEW
		}
	}
	return cal, nil
}
