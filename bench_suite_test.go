// Experiment-suite benchmark: the whole evaluation registry end to end,
// serial vs parallel.
//
// Run: go test -run xxx -bench BenchmarkExperimentSuite -benchtime 1x .
package flashmark_test

import (
	"runtime"
	"testing"
	"time"

	"github.com/flashmark/flashmark/internal/experiment"
)

// runSuite executes every registered experiment once with the given
// worker bound and returns the wall-clock it took.
func runSuite(b *testing.B, workers int) time.Duration {
	b.Helper()
	cfg := experiment.Config{Fast: true, Workers: workers}
	start := time.Now()
	for _, id := range experiment.IDs() {
		if _, err := experiment.Run(id, cfg); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
	return time.Since(start)
}

// BenchmarkExperimentSuite times the full evaluation registry with the
// serial engine (workers=1) and the parallel engine (workers=GOMAXPROCS).
// Artifacts are byte-identical between the two (see TestArtifacts-
// IdenticalAcrossWorkerCounts); only wall-clock may differ.
func BenchmarkExperimentSuite(b *testing.B) {
	for _, m := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", runtime.GOMAXPROCS(0)},
	} {
		b.Run(m.name, func(b *testing.B) {
			best := time.Duration(0)
			for i := 0; i < b.N; i++ {
				if total := runSuite(b, m.workers); best == 0 || total < best {
					best = total
				}
			}
			b.ReportMetric(best.Seconds(), "suite-s")
		})
	}
}
