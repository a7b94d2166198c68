package counterfeit

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"github.com/flashmark/flashmark/internal/device"
	"github.com/flashmark/flashmark/internal/mcu"
)

func TestArenaRecyclesRefabricators(t *testing.T) {
	fabs := 0
	base := mcu.Fab(mcu.PartSmallSim())
	a := newDeviceArena(func(seed uint64) (device.Device, error) {
		fabs++
		return base(seed)
	})
	d1, err := a.Fab(1)
	if err != nil {
		t.Fatal(err)
	}
	seed := uint64(2)
	a.Recycle(d1)
	d2, err := a.Fab(seed)
	if err != nil {
		t.Fatal(err)
	}
	// The race detector makes sync.Pool drop a quarter of its Puts on
	// purpose; each dropped round costs one fresh fabrication, and the
	// round is retried with the new instance and the next seed.
	for round := 1; raceEnabled && d2 != d1 && round < 64; round++ {
		d1 = d2
		seed++
		a.Recycle(d1)
		if d2, err = a.Fab(seed); err != nil {
			t.Fatal(err)
		}
	}
	if d2 != d1 {
		t.Error("refabricable device was not recycled")
	}
	if want := int(seed) - 1; fabs != want {
		t.Errorf("fab ran %d times, want %d", fabs, want)
	}
	// The recycled instance must equal a fresh fabrication with the new
	// seed.
	fresh, err := base(seed)
	if err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := d2.(*mcu.Device).Save(&got); err != nil {
		t.Fatal(err)
	}
	if err := fresh.(*mcu.Device).Save(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("recycled device diverges from fresh fabrication")
	}
}

func TestArenaSkipsDecoratedDevices(t *testing.T) {
	fabs := 0
	base := mcu.Fab(mcu.PartSmallSim())
	a := newDeviceArena(func(seed uint64) (device.Device, error) {
		fabs++
		d, err := base(seed)
		if err != nil {
			return nil, err
		}
		// A decorator hides the Refabricator capability of the inner
		// value, as any wrapper with per-instance state would.
		return device.InjectFaults(d, device.FaultConfig{}), nil
	})
	d1, err := a.Fab(1)
	if err != nil {
		t.Fatal(err)
	}
	a.Recycle(d1)
	d2, err := a.Fab(2)
	if err != nil {
		t.Fatal(err)
	}
	if d2 == d1 {
		t.Error("decorated device was pooled")
	}
	if fabs != 2 {
		t.Errorf("fab ran %d times, want 2", fabs)
	}
}

func TestNilArenaRecycleIsNoop(t *testing.T) {
	var a *deviceArena
	dev, err := mcu.Fab(mcu.PartSmallSim())(1)
	if err != nil {
		t.Fatal(err)
	}
	a.Recycle(dev) // must not panic
}

// TestRunPopulationMatchesUnpooledFabrication pins the arena's
// correctness end to end: a population run (which recycles devices
// across jobs, including wear-heavy recycled chips) must produce
// outcomes identical to fabricating every chip from scratch.
func TestRunPopulationMatchesUnpooledFabrication(t *testing.T) {
	if testing.Short() {
		t.Skip("population run is slow")
	}
	spec := PopulationSpec{
		ClassGenuineAccept:   2,
		ClassRecycled:        1,
		ClassMetadataForgery: 1,
		ClassUnmarked:        1,
	}
	cfg := testConfig()
	mkVerifier := func() *Verifier {
		v := testVerifier()
		v.CheckRecycling = true
		return v
	}
	const seedBase = 0xA4E7A
	_, pooled, err := RunPopulationParallel(spec, cfg, mkVerifier(), seedBase, 4)
	if err != nil {
		t.Fatal(err)
	}
	jobs := populationJobs(spec, seedBase)
	if len(pooled) != len(jobs) {
		t.Fatalf("%d outcomes for %d jobs", len(pooled), len(jobs))
	}
	v := mkVerifier()
	for i, j := range jobs {
		dev, err := Fabricate(j.class, cfg, j.seed, j.die)
		if err != nil {
			t.Fatal(err)
		}
		res, err := v.Verify(dev)
		if err != nil {
			t.Fatal(err)
		}
		want := Outcome{Class: j.class, Verdict: res.Verdict, Result: res}
		got := pooled[i]
		if got.Class != want.Class || got.Verdict != want.Verdict {
			t.Errorf("job %d (%s): verdict %s, want %s", i, j.class, got.Verdict, want.Verdict)
		}
		if fmt.Sprint(got.Result.DecodeErr) != fmt.Sprint(want.Result.DecodeErr) ||
			fmt.Sprint(got.Result.FaultErr) != fmt.Sprint(want.Result.FaultErr) {
			t.Errorf("job %d (%s): errors diverge: %v/%v vs %v/%v", i, j.class,
				got.Result.DecodeErr, got.Result.FaultErr, want.Result.DecodeErr, want.Result.FaultErr)
		}
		got.Result.DecodeErr, want.Result.DecodeErr = nil, nil
		got.Result.FaultErr, want.Result.FaultErr = nil, nil
		if !reflect.DeepEqual(got.Result, want.Result) {
			t.Errorf("job %d (%s): results diverge:\n got %+v\nwant %+v", i, j.class, got.Result, want.Result)
		}
	}
}
