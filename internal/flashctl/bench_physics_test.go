// Physics fast-path benchmarks: the batched segment-granularity cell
// physics (the controller default) against the per-cell reference
// evaluation (flashctl.SetReferencePhysics) on the three operations the
// paper's procedures spend their time in — segment erase cycles,
// verification extraction, and the Fig. 3/4 characterization sweep —
// plus the steady-state read path. Each pair runs interleaved rounds
// and fails when its reference/fast speedup, taken over each path's best
// round, falls more than 20% below the recorded value;
// TestSteadyStateReadAllocFree pins the 0-alloc read path.
//
// Run: make bench-physics
// (equivalently: go test -run xxx -bench 'SegmentErase|Verify|SegmentCharacterize|SteadyStateRead' -benchtime 3x -v ./internal/flashctl/)
package flashctl_test

import (
	"testing"
	"time"

	"github.com/flashmark/flashmark/internal/core"
	"github.com/flashmark/flashmark/internal/device"
	"github.com/flashmark/flashmark/internal/flashctl"
	"github.com/flashmark/flashmark/internal/mcu"
)

// physDevice opens a small-sim device on the per-cell reference path
// when ref is set, on the fast path otherwise.
func physDevice(tb testing.TB, seed uint64, ref bool) device.Device {
	tb.Helper()
	defer flashctl.SetReferencePhysics(ref)()
	dev, err := mcu.Open(mcu.PartSmallSim(), seed)
	if err != nil {
		tb.Fatal(err)
	}
	return dev
}

func mustImprint(tb testing.TB, dev device.Device, wm []uint64, npe int) {
	tb.Helper()
	if err := core.ImprintSegment(dev, 0, wm, core.ImprintOptions{NPE: npe, Accelerated: true}); err != nil {
		tb.Fatal(err)
	}
}

// physRounds is how many interleaved rounds of each path
// benchPhysPaths runs. A neighbor's load on a shared host can only add
// time to a round, so each path's best round is the steadiest estimate
// of what its code costs, and interleaving exposes both paths to the
// same spells of load.
const physRounds = 3

// benchPhysPaths runs body as one sub-benchmark per physics path,
// physRounds times in turn, then fails if the speedup (the reference
// path's best ns/op over the fast path's) fell more than 20% below
// recorded, the value measured on one core when the fast path landed.
// Ratios track the code; raw ns/op track the runner. It returns the
// speedup, or 0 when a -bench filter ran only one path.
func benchPhysPaths(b *testing.B, recorded float64, body func(b *testing.B, ref bool)) float64 {
	var best [2]float64
	for r := 0; r < physRounds; r++ {
		for i, path := range [2]string{"fast", "reference"} {
			var nsOp float64
			b.Run(path, func(b *testing.B) {
				body(b, i == 1)
				nsOp = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			})
			if nsOp > 0 && (best[i] == 0 || nsOp < best[i]) {
				best[i] = nsOp
			}
		}
	}
	if best[0] == 0 || best[1] == 0 {
		return 0
	}
	speedup := best[1] / best[0]
	b.Logf("speedup %.2fx over the best of %d rounds (recorded %.1fx)", speedup, physRounds, recorded)
	if speedup < 0.8*recorded {
		b.Fatalf("speedup %.2fx fell more than 20%% below the recorded %.1fx", speedup, recorded)
	}
	return speedup
}

// BenchmarkSegmentErase measures one program + adaptive-erase cycle of
// a worn 4,096-cell segment — the inner loop of imprinting, where the
// fast path batches tau evaluation over the whole contiguous span.
func BenchmarkSegmentErase(b *testing.B) {
	benchPhysPaths(b, 4.8, func(b *testing.B, ref bool) {
		dev := physDevice(b, 0xE5E1, ref)
		zeros := make([]uint64, dev.Geometry().WordsPerSegment())
		mustImprint(b, dev, zeros, 20_000)
		if err := dev.Unlock(); err != nil {
			b.Fatal(err)
		}
		// One warmup cycle so the timed iterations measure the
		// steady state, not the one-time base/tau cache build.
		if err := dev.ProgramBlock(0, zeros); err != nil {
			b.Fatal(err)
		}
		if _, err := dev.EraseSegmentAdaptive(0); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := dev.ProgramBlock(0, zeros); err != nil {
				b.Fatal(err)
			}
			if _, err := dev.EraseSegmentAdaptive(0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkVerify measures one full verification extraction (partial
// erase + 3 majority reads) of an imprinted segment. Both paths decide
// a noisy read from the same Φ bound table; the fast path also decides
// a deferred cell's read from its margin bracket, where the reference
// path evaluates the cell's quantile. A fast path that materializes
// every deferred cell a noisy read touches measures about 1.7x.
func BenchmarkVerify(b *testing.B) {
	benchPhysPaths(b, 3.3, func(b *testing.B, ref bool) {
		dev := physDevice(b, 0xE5E2, ref)
		wm := core.ReferenceWatermark(dev.Geometry().WordsPerSegment())
		mustImprint(b, dev, wm, 40_000)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.ExtractSegment(dev, 0, core.ExtractOptions{
				TPEW: 25 * time.Microsecond, Reads: 3,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// minCharacterizeSpeedup is the paper-reproduction acceptance floor for
// the batched physics: the Fig. 4 sweep runs at least 3x faster than
// per-cell evaluation.
const minCharacterizeSpeedup = 3.0

// BenchmarkSegmentCharacterize measures one full Fig. 3/4
// characterization sweep of a 20 K-cycle segment on each physics path —
// the headline number for the batched physics (the deferred-margin
// engine measures ~5x here).
func BenchmarkSegmentCharacterize(b *testing.B) {
	speedup := benchPhysPaths(b, 4.5, func(b *testing.B, ref bool) {
		dev := physDevice(b, 0xB401, ref)
		zeros := make([]uint64, dev.Geometry().WordsPerSegment())
		mustImprint(b, dev, zeros, 20_000)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			points, err := core.CharacterizeSegment(dev, 0, core.CharacterizeOptions{Step: 4 * time.Microsecond})
			if err != nil {
				b.Fatal(err)
			}
			if _, ok := core.AllErasedTime(points); !ok {
				b.Fatal("sweep did not complete")
			}
		}
	})
	if speedup > 0 && speedup < minCharacterizeSpeedup {
		b.Fatalf("characterization speedup %.2fx is below the %.1fx acceptance floor", speedup, minCharacterizeSpeedup)
	}
}

// steadyStateReader imprints a fast-path segment and returns a function
// that reads every word of it, already called once so the margin
// materialization and the decision cache are warm.
func steadyStateReader(tb testing.TB) func() {
	dev := physDevice(tb, 0xE5E4, false)
	geom := dev.Geometry()
	wm := core.ReferenceWatermark(geom.WordsPerSegment())
	mustImprint(tb, dev, wm, 40_000)
	readSegment := func() {
		for addr := 0; addr < geom.SegmentBytes; addr += geom.WordBytes {
			if _, err := dev.ReadWord(addr); err != nil {
				tb.Fatal(err)
			}
		}
	}
	readSegment()
	return readSegment
}

// TestSteadyStateReadAllocFree: warm whole-segment word reads hit the
// controller's conclusive-decision cache and the pooled scratch
// buffers, never the heap.
func TestSteadyStateReadAllocFree(t *testing.T) {
	readSegment := steadyStateReader(t)
	if allocs := testing.AllocsPerRun(10, readSegment); allocs != 0 {
		t.Fatalf("warm segment read allocates %v times per run, want 0", allocs)
	}
}

// BenchmarkSteadyStateRead measures repeated whole-segment word reads
// on the fast path once every cache is warm.
func BenchmarkSteadyStateRead(b *testing.B) {
	readSegment := steadyStateReader(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		readSegment()
	}
}
