package mathx

import (
	"math"
	"testing"
)

// marginForLogistic returns a margin whose argument −x/sigma at sigma
// is t, exactly where a margin within a few ulps of −t·σ has it, and
// about t otherwise.
func marginForLogistic(t, sigma float64) float64 {
	x0 := -t * sigma
	for _, dir := range []float64{math.Inf(1), math.Inf(-1)} {
		x := x0
		for k := 0; k < 4; k++ {
			if -x/sigma == t {
				return x
			}
			x = math.Nextafter(x, dir)
		}
	}
	return x0
}

// TestLogisticDrawAdversarialSweep walks every interval of the logistic
// bound table, and one step past either end, at eight points each, its
// grid points included, and puts the draw one ulp either side of the
// exact probability and on it, where a bound that is off by an ulp would
// flip the read.
func TestLogisticDrawAdversarialSweep(t *testing.T) {
	for _, sigma := range drawSigmas[:3] {
		for j := -1; j <= logPoints; j++ {
			for k := 0; k < 8; k++ {
				x := marginForLogistic(float64(j)*logStep-logTMax+float64(k)*logStep/8, sigma)
				p := LogisticCDF(x, sigma)
				for _, r := range []float64{math.Nextafter(p, -1), p, math.Nextafter(p, 2), 0} {
					if got, want := LogisticDraw(r, x, sigma), r < p; got != want {
						t.Fatalf("LogisticDraw(%v, %v, %v) = %v, want %v", r, x, sigma, got, want)
					}
				}
			}
		}
	}
}

// FuzzLogisticDraw holds the logistic bound table to LogisticCDF over
// arbitrary inputs: LogisticDraw(r, x, sigma) must equal
// r < LogisticCDF(x, sigma).
//
//	go test ./internal/mathx/ -run '^$' -fuzz '^FuzzLogisticDraw$' -fuzztime 20s -fuzzminimizetime 5s
func FuzzLogisticDraw(f *testing.F) {
	for _, sigma := range drawSigmas {
		for _, tArg := range []float64{
			-logTMax - logStep, -logTMax, -logTMax + logStep, -logStep,
			0, logStep / 3, 1, logTMax - logStep, logTMax, logTMax + logStep, 2 * logTMax,
		} {
			x := marginForLogistic(tArg, sigma)
			p := LogisticCDF(x, sigma)
			f.Add(math.Nextafter(p, -1), x, sigma)
			f.Add(p, x, sigma)
			f.Add(math.Nextafter(p, 2), x, sigma)
			f.Add(0.0, x, sigma)
		}
		for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)} {
			f.Add(0.5, x, sigma)
			f.Add(0.0, x, sigma)
		}
	}
	f.Fuzz(func(t *testing.T, r, x, sigma float64) {
		if got, want := LogisticDraw(r, x, sigma), r < LogisticCDF(x, sigma); got != want {
			t.Fatalf("LogisticDraw(%v, %v, %v) = %v, LogisticCDF says %v", r, x, sigma, got, want)
		}
	})
}
