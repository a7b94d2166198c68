package core

import (
	"testing"
	"time"

	"github.com/flashmark/flashmark/internal/mcu"
)

func TestReferenceWatermarkShape(t *testing.T) {
	wm := ReferenceWatermark(256)
	if len(wm) != 256 {
		t.Fatalf("len = %d", len(wm))
	}
	zeros := 0
	for _, w := range wm {
		if w > 0xFFFF {
			t.Fatalf("word %#x exceeds 16 bits", w)
		}
		for b := 0; b < 16; b++ {
			if w&(1<<uint(b)) == 0 {
				zeros++
			}
		}
	}
	// Upper-case ASCII text runs ~60-65% zero bits ('T' = 0x54 has three
	// ones); the imprinted watermark must have plenty of both classes.
	frac := float64(zeros) / float64(256*16)
	if frac < 0.45 || frac > 0.75 {
		t.Errorf("zero-bit fraction = %.2f, want ASCII-like mix", frac)
	}
}

func TestCalibrateValidation(t *testing.T) {
	part := mcu.Fab(mcu.PartSmallSim())
	if _, err := Calibrate(part, nil, 1000, CalibrateOptions{}); err == nil {
		t.Error("no seeds accepted")
	}
	if _, err := Calibrate(part, []uint64{1}, 0, CalibrateOptions{}); err == nil {
		t.Error("zero NPE accepted")
	}
	if _, err := Calibrate(part, []uint64{1}, 1000, CalibrateOptions{SweepLo: 10 * time.Microsecond, SweepHi: 5 * time.Microsecond, SweepStep: time.Microsecond}); err == nil {
		t.Error("inverted sweep accepted")
	}
}

func TestCalibrateFindsWindow(t *testing.T) {
	part := mcu.Fab(mcu.PartSmallSim())
	cal, err := Calibrate(part, []uint64{101, 102}, 60_000, CalibrateOptions{
		SweepLo:   20 * time.Microsecond,
		SweepHi:   32 * time.Microsecond,
		SweepStep: time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cal.NPE != 60_000 {
		t.Errorf("NPE = %d", cal.NPE)
	}
	if len(cal.Points) != 13 {
		t.Errorf("points = %d, want 13", len(cal.Points))
	}
	if cal.Best < 20*time.Microsecond || cal.Best > 32*time.Microsecond {
		t.Errorf("best t_PEW = %v outside sweep", cal.Best)
	}
	if cal.BestBER < 0 || cal.BestBER > 0.2 {
		t.Errorf("best BER = %v, want a usable operating point at 60K", cal.BestBER)
	}
	if cal.WindowLo == 0 || cal.WindowHi < cal.WindowLo {
		t.Errorf("window [%v, %v] malformed", cal.WindowLo, cal.WindowHi)
	}
	if cal.Best < cal.WindowLo || cal.Best > cal.WindowHi {
		t.Errorf("best %v outside window [%v, %v]", cal.Best, cal.WindowLo, cal.WindowHi)
	}
	// Edge BERs should exceed the minimum: the curve is U-shaped.
	if cal.Points[0].BER <= cal.BestBER || cal.Points[len(cal.Points)-1].BER < cal.BestBER {
		t.Errorf("BER curve not U-shaped: edges %.3f / %.3f vs min %.3f",
			cal.Points[0].BER, cal.Points[len(cal.Points)-1].BER, cal.BestBER)
	}
}

func TestCalibrateWindowShiftsRightWithNPE(t *testing.T) {
	// Paper: "This time window slightly shifts to the right as we
	// increase the number of stresses."
	part := mcu.Fab(mcu.PartSmallSim())
	opts := CalibrateOptions{
		SweepLo:   19 * time.Microsecond,
		SweepHi:   34 * time.Microsecond,
		SweepStep: time.Microsecond,
	}
	low, err := Calibrate(part, []uint64{7}, 20_000, opts)
	if err != nil {
		t.Fatal(err)
	}
	high, err := Calibrate(part, []uint64{7}, 80_000, opts)
	if err != nil {
		t.Fatal(err)
	}
	if high.Best < low.Best {
		t.Errorf("optimal t_PEW moved left with stress: 20K=%v 80K=%v", low.Best, high.Best)
	}
	if high.BestBER >= low.BestBER {
		t.Errorf("BER should fall with stress: 20K=%.3f 80K=%.3f", low.BestBER, high.BestBER)
	}
}
