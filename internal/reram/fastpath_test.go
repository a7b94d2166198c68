package reram

import (
	"bytes"
	"math"
	"testing"
	"time"

	"github.com/flashmark/flashmark/internal/counterfeit"
	"github.com/flashmark/flashmark/internal/nor"
	"github.com/flashmark/flashmark/internal/wmcode"
)

func fastpathFactory() counterfeit.FactoryConfig {
	return counterfeit.FactoryConfig{Fab: DefaultFab(), Codec: wmcode.Codec{Key: []byte("reram-test-key")}}
}

func fastpathVerifier() counterfeit.Verifier {
	return counterfeit.Verifier{Codec: wmcode.Codec{Key: []byte("reram-test-key")}, CheckRecycling: true}
}

// fabricateFile returns the chip file of a fabricated die, after edit
// (when not nil) has changed the device.
func fabricateFile(t *testing.T, class counterfeit.ChipClass, seed, die uint64, edit func(*Device)) []byte {
	t.Helper()
	dev, err := counterfeit.Fabricate(class, fastpathFactory(), seed, die)
	if err != nil {
		t.Fatal(err)
	}
	d := dev.(*Device)
	if edit != nil {
		edit(d)
	}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestConditioningPowerOncePerWearValue pins the memo's work count: a
// screened verify of a loaded chip evaluates math.Pow about once per
// distinct wear value its three partial erases meet, not once per cell
// (3 on a genuine or replayed die, 4 on a recycled one; the per-cell
// arithmetic evaluated 12,288).
func TestConditioningPowerOncePerWearValue(t *testing.T) {
	const maxPowers = 8
	v := fastpathVerifier()
	for _, c := range []struct {
		name  string
		class counterfeit.ChipClass
		want  counterfeit.Verdict
	}{
		{"genuine", counterfeit.ClassGenuineAccept, counterfeit.VerdictGenuine},
		{"replay", counterfeit.ClassReplayImprint, counterfeit.VerdictGenuine},
		{"recycled", counterfeit.ClassRecycled, counterfeit.VerdictRecycled},
	} {
		for die := uint64(1); die <= 3; die++ {
			d, err := new(Loader).Load(fabricateFile(t, c.class, 0x5100+die, die, nil))
			if err != nil {
				t.Fatal(err)
			}
			res, err := v.Verify(d)
			if err != nil {
				t.Fatal(err)
			}
			if res.Verdict != c.want {
				t.Fatalf("%s die %d: verdict %v, want %v", c.name, die, res.Verdict, c.want)
			}
			t.Logf("%s die %d: %d power evaluations", c.name, die, d.model.pows)
			if d.model.pows > maxPowers {
				t.Errorf("%s die %d: the verify evaluated the conditioning power %d times, want at most %d",
					c.name, die, d.model.pows, maxPowers)
			}
		}
	}
}

// TestDistinctWearChipFile crafts a chip file that defeats the memo: a
// genuine die (seed 1001) with (c mod 4096)·1e-3 cycles added to cell
// c's wear, so every cell of a sector holds its own wear value. It must
// verify GENUINE, as before the memo, and after every cell is SET and
// partial-erased its margin must equal the per-cell formula, with its
// own math.Pow, bit for bit, at age 0 and after 7.5 years.
func TestDistinctWearChipFile(t *testing.T) {
	file := fabricateFile(t, counterfeit.ClassGenuineAccept, 1001, 1, func(d *Device) {
		for c := 0; c < d.geom.TotalCells(); c++ {
			d.cells.AddWear(c, float64(c%4096)*1e-3)
		}
	})
	d, err := new(Loader).Load(file)
	if err != nil {
		t.Fatal(err)
	}
	v := fastpathVerifier()
	res, err := v.Verify(d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != counterfeit.VerdictGenuine {
		t.Fatalf("crafted die: verdict %v, want %v", res.Verdict, counterfeit.VerdictGenuine)
	}
	t.Logf("crafted die: %d power evaluations", d.model.pows)

	for _, age := range []float64{0, 7.5} {
		d, err := new(Loader).Load(file)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Age(age); err != nil {
			t.Fatal(err)
		}
		p := d.params
		const pulse = 23 * time.Microsecond
		pulseUs := float64(pulse) / float64(time.Microsecond)
		zeros := make([]uint64, d.geom.WordsPerSegment())
		for s := 0; s < d.geom.TotalSegments(); s++ {
			addr := s * d.geom.SegmentBytes
			if err := d.ProgramBlock(addr, zeros); err != nil {
				t.Fatal(err)
			}
			_, wear := d.cells.CellSpan(s)
			wearBefore := append([]float64(nil), wear...)
			if err := d.PartialEraseSegment(addr, pulse); err != nil {
				t.Fatal(err)
			}
			margins, _ := d.cells.CellSpan(s)
			for i, w := range wearBefore {
				cp := d.model.sectorParams(s)[i]
				tau := cp.tauBase + p.DriftUsPerYear*age
				if w > 0 {
					tau += p.CondCoefUs * cp.cond * math.Pow(w/1000, p.CondPower)
				}
				if want := nor.ClampMargin(pulseUs - tau); math.Float32bits(margins[i]) != math.Float32bits(want) {
					t.Fatalf("age %v, sector %d cell %d (wear %v): margin %v, the per-cell formula gives %v",
						age, s, i, w, margins[i], want)
				}
			}
		}
	}
}
