package core

import (
	"fmt"
	"time"

	"github.com/flashmark/flashmark/internal/device"
)

// CharacterizePoint is one row of a characterization sweep: the state of
// a segment after a partial erase of duration TPE.
type CharacterizePoint struct {
	TPE    time.Duration
	Cells0 int // cells reading programmed
	Cells1 int // cells reading erased
}

// CharacterizeOptions controls CharacterizeSegment.
type CharacterizeOptions struct {
	// Step is the partial erase time increment Δt. Zero selects 2 µs.
	Step time.Duration
	// Max caps the sweep; zero sweeps until every cell reads erased
	// (or the nominal erase time is reached, whichever is first).
	Max time.Duration
	// Reads is the majority read count N (odd). Zero selects 3,
	// the paper's example.
	Reads int
}

// CharacterizeSegment runs the paper's Fig. 3 procedure on the segment
// containing segAddr: for each partial erase time t_PE it erases the
// segment, programs every cell, applies a partial erase of t_PE, and
// majority-reads the result. The returned curve is the paper's Fig. 4 for
// this segment's wear state.
//
// Note that characterization itself wears the segment by roughly one P/E
// cycle per point — on real silicon as in this simulation — which is
// negligible against the 10^4-cycle stress levels being measured.
func CharacterizeSegment(dev device.Device, segAddr int, opts CharacterizeOptions) ([]CharacterizePoint, error) {
	step := opts.Step
	if step == 0 {
		step = 2 * time.Microsecond
	}
	if step < 0 {
		return nil, fmt.Errorf("core: negative characterization step %v", step)
	}
	reads := opts.Reads
	if reads == 0 {
		reads = 3
	}
	if reads < 0 || reads%2 == 0 {
		return nil, fmt.Errorf("core: reads must be odd and positive, got %d", reads)
	}
	maxT := opts.Max
	if maxT == 0 || maxT > dev.NominalEraseTime() {
		maxT = dev.NominalEraseTime()
	}
	if err := dev.Unlock(); err != nil {
		return nil, err
	}
	defer dev.Lock()

	var points []CharacterizePoint
	for tpe := time.Duration(0); tpe <= maxT; tpe += step {
		c1, c0, err := partialEraseRound(dev, segAddr, tpe, reads, nil)
		if err != nil {
			return nil, err
		}
		points = append(points, CharacterizePoint{TPE: tpe, Cells0: c0, Cells1: c1})
		if opts.Max == 0 && c0 == 0 && tpe > 0 {
			break
		}
	}
	return points, nil
}

// AllErasedTime returns the smallest swept t_PE at which every cell read
// erased, or ok=false if the sweep never got there. This is the per-wear
// "minimum t_PE when all cells read as erased" statistic of Fig. 4.
func AllErasedTime(points []CharacterizePoint) (time.Duration, bool) {
	for _, p := range points {
		if p.Cells0 == 0 && p.TPE > 0 {
			return p.TPE, true
		}
	}
	return 0, false
}

// DetectStress runs one partial-erase round (paper Fig. 5) on the segment
// containing segAddr and reports how many cells still read programmed at
// t_PEW. Fresh segments erase almost completely (small count); segments
// that lived through heavy P/E cycling resist (large count). The segment
// content is destroyed.
func DetectStress(dev device.Device, segAddr int, tPEW time.Duration, reads int) (programmed int, err error) {
	reads, err = checkRound(tPEW, reads)
	if err != nil {
		return 0, err
	}
	if err := dev.Unlock(); err != nil {
		return 0, err
	}
	defer dev.Lock()
	_, c0, err := partialEraseRound(dev, segAddr, tPEW, reads, nil)
	if err != nil {
		return 0, err
	}
	return c0, nil
}
