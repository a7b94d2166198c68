package flashctl

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/flashmark/flashmark/internal/floatgate"
	"github.com/flashmark/flashmark/internal/nor"
)

// Differential fuzz of the batched physics fast path against the
// per-cell reference path: twin controllers with the same die seed and
// noise seed run one seeded-random operation sequence, and every
// observable — read values, adaptive pulse durations, mean-tau queries,
// final margins and wear to the bit, stats, virtual time — must match.
// Reads are compared op-by-op, which pins the noise-stream *position*:
// a fast path that consumed one extra (or one fewer) noise sample would
// desynchronize every later metastable read.

func twinControllers(t *testing.T, seed uint64) (fast, ref *Controller) {
	t.Helper()
	build := func() *Controller {
		arr, err := nor.NewArray(nor.Small())
		if err != nil {
			t.Fatal(err)
		}
		model, err := floatgate.NewModel(floatgate.DefaultParams(), seed)
		if err != nil {
			t.Fatal(err)
		}
		ctl, err := New(Config{Array: arr, Model: model, Timing: MSP430Timing()})
		if err != nil {
			t.Fatal(err)
		}
		mustUnlock(t, ctl)
		return ctl
	}
	fast, ref = build(), build()
	if fast.physRef {
		t.Fatal("fast path is not the default")
	}
	ref.physRef = true
	return fast, ref
}

// compareArrays asserts bit-identical margins and wear. Calling Array()
// flushes any deferred physics, so the comparison sees final state.
func compareArrays(t *testing.T, fast, ref *Controller, tag string) {
	t.Helper()
	fa, ra := fast.Array(), ref.Array()
	cells := fa.Geometry().TotalCells()
	for i := 0; i < cells; i++ {
		fm, rm := fa.Margin(i), ra.Margin(i)
		if math.Float64bits(fm) != math.Float64bits(rm) {
			t.Fatalf("%s: cell %d margin fast=%v ref=%v", tag, i, fm, rm)
		}
		fw, rw := fa.Wear(i), ra.Wear(i)
		if math.Float64bits(fw) != math.Float64bits(rw) {
			t.Fatalf("%s: cell %d wear fast=%v ref=%v", tag, i, fw, rw)
		}
	}
}

func TestFastPathMatchesReferenceUnderFuzz(t *testing.T) {
	for _, seed := range []uint64{0xA11CE, 0xB0B, 0xF10D, 7} {
		fast, ref := twinControllers(t, seed)
		geom := fast.Array().Geometry()
		segs := geom.TotalSegments()
		segBytes := geom.SegmentBytes
		words := geom.WordsPerSegment()
		rnd := rand.New(rand.NewSource(int64(seed)))

		randWords := func() []uint64 {
			vs := make([]uint64, words)
			for i := range vs {
				vs[i] = uint64(rnd.Intn(1 << 16))
			}
			return vs
		}

		const ops = 400
		for op := 0; op < ops; op++ {
			seg := rnd.Intn(segs)
			addr := seg * segBytes
			switch rnd.Intn(12) {
			case 0:
				if err1, err2 := fast.EraseSegment(addr), ref.EraseSegment(addr); err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
			case 1:
				d1, err1 := fast.EraseSegmentAdaptive(addr)
				d2, err2 := ref.EraseSegmentAdaptive(addr)
				if err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
				if d1 != d2 {
					t.Fatalf("op %d: adaptive pulse fast=%v ref=%v", op, d1, d2)
				}
			case 2:
				vs := randWords()
				if err1, err2 := fast.ProgramBlock(addr, vs), ref.ProgramBlock(addr, vs); err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
			case 3:
				w := rnd.Intn(words)
				v := uint64(rnd.Intn(1 << 16))
				a := addr + w*geom.WordBytes
				if err1, err2 := fast.ProgramWord(a, v), ref.ProgramWord(a, v); err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
			case 4, 5, 6:
				// Partial erases dominate the mix: they are the op the
				// deferral engine reorganizes. Pulses span deterministic
				// misses, the metastable band, and chained re-pulses.
				pulse := time.Duration(5+rnd.Float64()*35) * time.Microsecond
				if err1, err2 := fast.PartialEraseSegment(addr, pulse), ref.PartialEraseSegment(addr, pulse); err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
			case 7, 8:
				// Reads pin read values and noise positions.
				for r := 0; r < 40; r++ {
					w := rnd.Intn(words)
					a := addr + w*geom.WordBytes
					v1, err1 := fast.ReadWord(a)
					v2, err2 := ref.ReadWord(a)
					if err1 != nil || err2 != nil {
						t.Fatal(err1, err2)
					}
					if v1 != v2 {
						t.Fatalf("op %d: read %#x fast=%#x ref=%#x", op, a, v1, v2)
					}
				}
			case 9:
				vs := randWords()
				n := 1 + rnd.Intn(2000)
				adaptive := rnd.Intn(2) == 0
				if err1, err2 := fast.StressSegmentWords(addr, vs, n, adaptive), ref.StressSegmentWords(addr, vs, n, adaptive); err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
			case 10:
				m1, x1, err1 := fast.SegmentMeanTau(addr)
				m2, x2, err2 := ref.SegmentMeanTau(addr)
				if err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
				if math.Float64bits(m1) != math.Float64bits(m2) || math.Float64bits(x1) != math.Float64bits(x2) {
					t.Fatalf("op %d: mean tau fast=(%v,%v) ref=(%v,%v)", op, m1, x1, m2, x2)
				}
			case 11:
				s1, err1 := fast.ReadSegment(addr)
				s2, err2 := ref.ReadSegment(addr)
				if err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
				for i := range s1 {
					if s1[i] != s2[i] {
						t.Fatalf("op %d: segment word %d fast=%#x ref=%#x", op, i, s1[i], s2[i])
					}
				}
			}
			// Environment shifts exercise the age/temperature transforms
			// the deferred tau captures at defer time.
			if rnd.Intn(37) == 0 {
				y := fast.AgeYears() + rnd.Float64()*2 // chips do not get younger
				if err1, err2 := fast.SetAgeYears(y), ref.SetAgeYears(y); err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
			}
			if rnd.Intn(37) == 0 {
				temp := rnd.Float64() * 70 // commercial range
				if err1, err2 := fast.SetAmbientTempC(temp), ref.SetAmbientTempC(temp); err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
			}
			// Compare full state only occasionally: Array() flushes the
			// deferral engine, and comparing every op would prevent
			// multi-op deferral chains from ever building up.
			if op%97 == 96 {
				compareArrays(t, fast, ref, "mid-sequence")
			}
		}
		compareArrays(t, fast, ref, "final")
		if fast.Ledger().String() != ref.Ledger().String() {
			t.Fatalf("ledgers diverged: fast=%s ref=%s", fast.Ledger(), ref.Ledger())
		}
		if fast.Clock().Now() != ref.Clock().Now() {
			t.Fatalf("virtual time diverged: fast=%v ref=%v", fast.Clock().Now(), ref.Clock().Now())
		}
	}
}

// TestWearNeverDecreasesAcrossOps: wear is monotone along any operation
// sequence — the irreversibility axiom, asserted on the fast path where
// wear updates are eager even while margins are deferred.
func TestWearNeverDecreasesAcrossOps(t *testing.T) {
	ctl := newSeededController(t, 0x5EED)
	mustUnlock(t, ctl)
	geom := ctl.Array().Geometry()
	segs := geom.TotalSegments()
	segBytes := geom.SegmentBytes
	words := geom.WordsPerSegment()
	rnd := rand.New(rand.NewSource(99))

	cells := geom.TotalCells()
	snap := make([]float64, cells)
	record := func() {
		arr := ctl.Array()
		for i := 0; i < cells; i++ {
			w := arr.Wear(i)
			if w < snap[i] {
				t.Fatalf("cell %d wear decreased %v -> %v", i, snap[i], w)
			}
			snap[i] = w
		}
	}
	record()
	for op := 0; op < 120; op++ {
		seg := rnd.Intn(segs)
		addr := seg * segBytes
		switch rnd.Intn(5) {
		case 0:
			if err := ctl.EraseSegment(addr); err != nil {
				t.Fatal(err)
			}
		case 1:
			if _, err := ctl.EraseSegmentAdaptive(addr); err != nil {
				t.Fatal(err)
			}
		case 2:
			vs := make([]uint64, words)
			for i := range vs {
				vs[i] = uint64(rnd.Intn(1 << 16))
			}
			if err := ctl.ProgramBlock(addr, vs); err != nil {
				t.Fatal(err)
			}
		case 3:
			pulse := time.Duration(5+rnd.Float64()*35) * time.Microsecond
			if err := ctl.PartialEraseSegment(addr, pulse); err != nil {
				t.Fatal(err)
			}
		case 4:
			vs := make([]uint64, words)
			if err := ctl.StressSegmentWords(addr, vs, 1+rnd.Intn(500), rnd.Intn(2) == 0); err != nil {
				t.Fatal(err)
			}
		}
		record()
	}
}
