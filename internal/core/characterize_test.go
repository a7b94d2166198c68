package core

import (
	"testing"
	"time"

	"github.com/flashmark/flashmark/internal/device"
	"github.com/flashmark/flashmark/internal/floatgate"
	"github.com/flashmark/flashmark/internal/mcu"
	"github.com/flashmark/flashmark/internal/nand"
)

func TestCharacterizeFreshSegment(t *testing.T) {
	d := newDev(t, 20)
	points, err := CharacterizeSegment(d, 0, CharacterizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 5 {
		t.Fatalf("sweep produced only %d points", len(points))
	}
	cells := d.Geometry().CellsPerSegment()
	// t_PE = 0: all programmed.
	if points[0].Cells0 != cells || points[0].Cells1 != 0 {
		t.Errorf("at t=0: cells0=%d cells1=%d", points[0].Cells0, points[0].Cells1)
	}
	// Sweep auto-stops when all erased.
	last := points[len(points)-1]
	if last.Cells0 != 0 {
		t.Errorf("sweep ended with %d programmed cells", last.Cells0)
	}
	// Fresh transition completes by ~40 µs (paper: 35 µs).
	at, ok := AllErasedTime(points)
	if !ok {
		t.Fatal("never fully erased")
	}
	if at > 40*time.Microsecond {
		t.Errorf("fresh all-erased at %v, want <= 40µs", at)
	}
	// Counts are conserved at every point.
	for _, p := range points {
		if p.Cells0+p.Cells1 != cells {
			t.Errorf("at %v: %d+%d != %d", p.TPE, p.Cells0, p.Cells1, cells)
		}
	}
}

func TestCharacterizeStressedSlower(t *testing.T) {
	fresh := newDev(t, 21)
	worn := newDev(t, 21)
	wmZeros := make([]uint64, segWords(worn)) // stress every cell
	if err := ImprintSegment(worn, 0, wmZeros, ImprintOptions{NPE: 20_000, Accelerated: true}); err != nil {
		t.Fatal(err)
	}
	fp, err := CharacterizeSegment(fresh, 0, CharacterizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wp, err := CharacterizeSegment(worn, 0, CharacterizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ft, _ := AllErasedTime(fp)
	wt, ok := AllErasedTime(wp)
	if !ok {
		t.Fatal("stressed segment never fully erased within nominal time")
	}
	if wt < 2*ft {
		t.Errorf("20K segment all-erased %v, want >> fresh %v (paper: 115µs vs 35µs)", wt, ft)
	}
}

func TestCharacterizeValidation(t *testing.T) {
	d := newDev(t, 22)
	if _, err := CharacterizeSegment(d, 0, CharacterizeOptions{Reads: 2}); err == nil {
		t.Error("even reads accepted")
	}
	if _, err := CharacterizeSegment(d, 0, CharacterizeOptions{Step: -time.Microsecond}); err == nil {
		t.Error("negative step accepted")
	}
	if _, err := CharacterizeSegment(d, -5, CharacterizeOptions{}); err == nil {
		t.Error("bad address accepted")
	}
}

func TestCharacterizeMaxCap(t *testing.T) {
	d := newDev(t, 23)
	points, err := CharacterizeSegment(d, 0, CharacterizeOptions{
		Step: 5 * time.Microsecond,
		Max:  15 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 { // 0, 5, 10, 15
		t.Fatalf("got %d points, want 4", len(points))
	}
	if _, ok := AllErasedTime(points); ok {
		t.Error("15µs cap should not reach all-erased on any segment")
	}
}

func TestDetectStressSeparatesFreshFromWorn(t *testing.T) {
	// The Fig. 5 scenario: one partial-erase round at t_PEW cleanly
	// separates a 50K-cycled segment from a fresh one.
	fresh := newDev(t, 24)
	worn := newDev(t, 24)
	wmZeros := make([]uint64, segWords(worn))
	if err := ImprintSegment(worn, 0, wmZeros, ImprintOptions{NPE: 50_000, Accelerated: true}); err != nil {
		t.Fatal(err)
	}
	const tPEW = 24 * time.Microsecond
	freshCount, err := DetectStress(fresh, 0, tPEW, 3)
	if err != nil {
		t.Fatal(err)
	}
	wornCount, err := DetectStress(worn, 0, tPEW, 3)
	if err != nil {
		t.Fatal(err)
	}
	cells := fresh.Geometry().CellsPerSegment()
	if freshCount > cells/4 {
		t.Errorf("fresh segment: %d/%d still programmed at %v", freshCount, cells, tPEW)
	}
	if wornCount < 3*cells/4 {
		t.Errorf("50K segment: only %d/%d still programmed at %v", wornCount, cells, tPEW)
	}
	distinguishable := (cells - freshCount) * wornCount / cells
	t.Logf("distinguishable bits ~%d / %d (paper: 3833/4096)", distinguishable, cells)
}

func TestDetectStressValidation(t *testing.T) {
	d := newDev(t, 25)
	if _, err := DetectStress(d, 0, 0, 1); err == nil {
		t.Error("zero tPEW accepted")
	}
	if _, err := DetectStress(d, 1<<30, time.Microsecond, 1); err == nil {
		t.Error("bad address accepted")
	}
}

func TestAllErasedTimeEmpty(t *testing.T) {
	if _, ok := AllErasedTime(nil); ok {
		t.Error("empty sweep should not report all-erased")
	}
}

// TestRejectedRoundLeavesDeviceUntouched pins that DetectStress and
// ExtractSegment validate their arguments before the first device
// operation: a rejected call adds no wear, charges no time and issues no
// command, on a NOR part and on the NAND adapter alike.
func TestRejectedRoundLeavesDeviceUntouched(t *testing.T) {
	part, err := mcu.PartByName("FM-SIM16")
	if err != nil {
		t.Fatal(err)
	}
	fabs := map[string]device.Fab{
		"FM-SIM16": mcu.Fab(part),
		"NAND":     nand.Fab(nand.SmallNAND(), nand.SLCTiming(), floatgate.DefaultParams()),
	}
	calls := map[string]func(device.Device) error{
		"DetectStress reads=2": func(d device.Device) error {
			_, err := DetectStress(d, 0, 24*time.Microsecond, 2)
			return err
		},
		"DetectStress reads=-3": func(d device.Device) error {
			_, err := DetectStress(d, 0, 24*time.Microsecond, -3)
			return err
		},
		"DetectStress tPEW=0": func(d device.Device) error {
			_, err := DetectStress(d, 0, 0, 1)
			return err
		},
		"ExtractSegment reads=2": func(d device.Device) error {
			_, err := ExtractSegment(d, 0, ExtractOptions{TPEW: 24 * time.Microsecond, Reads: 2})
			return err
		},
		"ExtractSegment tPEW=0": func(d device.Device) error {
			_, err := ExtractSegment(d, 0, ExtractOptions{Reads: 3})
			return err
		},
	}
	for fabName, fab := range fabs {
		for callName, call := range calls {
			dev, err := fab(31)
			if err != nil {
				t.Fatal(err)
			}
			// Some prior wear, so an added erase shows in the summary.
			if err := ImprintSegment(dev, 0, make([]uint64, segWords(dev)), ImprintOptions{NPE: 100}); err != nil {
				t.Fatal(err)
			}
			wi, ok := device.As[device.WearInspector](dev)
			if !ok {
				t.Fatalf("%s: no wear inspector", fabName)
			}
			_, meanBefore, maxBefore, err := wi.SegmentWearSummary(0)
			if err != nil {
				t.Fatal(err)
			}
			clockBefore := dev.Clock().Now()
			rec := device.Record(dev)
			if err := call(rec); err == nil {
				t.Fatalf("%s %s: accepted", fabName, callName)
			}
			_, meanAfter, maxAfter, err := wi.SegmentWearSummary(0)
			if err != nil {
				t.Fatal(err)
			}
			if meanAfter != meanBefore || maxAfter != maxBefore {
				t.Errorf("%s %s: wear moved from mean %v max %v to mean %v max %v",
					fabName, callName, meanBefore, maxBefore, meanAfter, maxAfter)
			}
			if now := dev.Clock().Now(); now != clockBefore {
				t.Errorf("%s %s: clock moved from %v to %v", fabName, callName, clockBefore, now)
			}
			if ops := rec.Counts(); len(ops) != 0 {
				t.Errorf("%s %s: issued %v", fabName, callName, ops)
			}
		}
	}
}
