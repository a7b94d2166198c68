package mathx

import (
	"math"
	"testing"
)

// drawSigmas are the noise scales the draw tests run at: the physics
// model's nominal read noise, a wear-grown one, unity, and the smallest
// positive denormal (as in floatgate's TestDegenerateSigmaStaysProbability).
var drawSigmas = []float64{0.6, 2.5, 1, 5e-324}

// marginAt returns a margin whose erfc argument at sigma is t, exactly
// where a margin within a few ulps of −t·σ·√2 has it, and about t
// otherwise.
func marginAt(t, sigma float64) float64 {
	x0 := -t * sigma * math.Sqrt2
	for _, dir := range []float64{math.Inf(1), math.Inf(-1)} {
		x := x0
		for k := 0; k < 4; k++ {
			if erfcArg(x, 0, sigma) == t {
				return x
			}
			x = math.Nextafter(x, dir)
		}
	}
	return x0
}

// TestNormalDrawAdversarialSweep walks every table interval at eight
// points, its grid points included, and puts the draw one ulp either
// side of the exact probability and on it, where a bound that is off by
// an ulp would flip the read.
func TestNormalDrawAdversarialSweep(t *testing.T) {
	for _, sigma := range drawSigmas[:3] {
		for j := -1; j <= phiPoints; j++ {
			for k := 0; k < 8; k++ {
				x := marginAt(float64(j)*phiStep-phiTMax+float64(k)*phiStep/8, sigma)
				p := NormalCDF(x, 0, sigma)
				for _, r := range []float64{math.Nextafter(p, 0), p, math.Nextafter(p, 1)} {
					if got, want := NormalDraw(r, x, sigma), r < p; got != want {
						t.Fatalf("NormalDraw(%v, %v, %v) = %v, want %v", r, x, sigma, got, want)
					}
				}
			}
		}
	}
}

// TestPhiOverDecidesBracket: a narrow bracket's bounds decide a draw
// far from Φ on it and leave one between Φ at its ends undecided, and a
// reversed bracket or a non-positive sigma gets NaN bounds, which decide
// no draw.
func TestPhiOverDecidesBracket(t *testing.T) {
	lo, hi := 0.1, 0.11
	plo, phi := NormalCDF(lo, 0, 1), NormalCDF(hi, 0, 1)
	for _, c := range []struct {
		r           float64
		lo, hi, sig float64
		one, ok     bool
	}{
		{plo - 0.01, lo, hi, 1, true, true},
		{phi + 0.01, lo, hi, 1, false, true},
		{(plo + phi) / 2, lo, hi, 1, false, false},
		{0, hi, lo, 1, false, false},
		{0, lo, hi, 0, false, false},
		{0, lo, hi, -1, false, false},
		{0, lo, hi, math.NaN(), false, false},
	} {
		blo, bhi := PhiOver(c.lo, c.hi, c.sig)
		if one, ok := c.r < blo, c.r < blo || c.r >= bhi; one != c.one || ok != c.ok {
			t.Errorf("PhiOver(%v, %v, %v) = [%v, %v] decides draw %v as %v, %v; want %v, %v",
				c.lo, c.hi, c.sig, blo, bhi, c.r, one, ok, c.one, c.ok)
		}
	}
}

// FuzzNormalDraw holds the Φ bound table to NormalCDF over arbitrary
// inputs: NormalDraw(r, x, sigma) must equal r < NormalCDF(x, 0, sigma);
// PhiOver's bounds on the bracket [x, x+|delta|] must hold NormalCDF at
// both ends and at the midpoint; and whenever they decide the draw r,
// that read must be the exact read at those three margins.
//
//	go test ./internal/mathx/ -run '^$' -fuzz '^FuzzNormalDraw$' -fuzztime 20s -fuzzminimizetime 5s
func FuzzNormalDraw(f *testing.F) {
	for _, sigma := range drawSigmas {
		for _, tArg := range []float64{
			-phiTMax - phiStep, -phiTMax, -phiTMax + phiStep, -phiStep,
			0, phiStep / 3, 1, phiTMax - phiStep, phiTMax, phiTMax + phiStep,
		} {
			x := marginAt(tArg, sigma)
			p := NormalCDF(x, 0, sigma)
			f.Add(math.Nextafter(p, 0), x, sigma, 0.0)
			f.Add(p, x, sigma, phiStep)
			f.Add(math.Nextafter(p, 1), x, sigma, sigma)
		}
		for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)} {
			f.Add(0.5, x, sigma, 1.0)
			f.Add(0.25, x, sigma, 0.0)
		}
	}
	f.Fuzz(func(t *testing.T, r, x, sigma, delta float64) {
		if got, want := NormalDraw(r, x, sigma), r < NormalCDF(x, 0, sigma); got != want {
			t.Fatalf("NormalDraw(%v, %v, %v) = %v, NormalCDF says %v", r, x, sigma, got, want)
		}
		hi := x + math.Abs(delta)
		mid := math.Min(math.Max(x/2+hi/2, x), hi)
		plo, phi := PhiOver(x, hi, sigma)
		for _, m := range []float64{x, mid, hi} {
			// A NaN bound compares false, and bounds nothing.
			if p := NormalCDF(m, 0, sigma); plo > p || phi < p {
				t.Fatalf("PhiOver(%v, %v, %v) = [%v, %v], but NormalCDF at %v is %v", x, hi, sigma, plo, phi, m, p)
			}
		}
		if !(r < plo || r >= phi) {
			return
		}
		for _, m := range []float64{x, mid, hi} {
			if want := r < NormalCDF(m, 0, sigma); (r < plo) != want {
				t.Fatalf("PhiOver(%v, %v, %v) = [%v, %v] reads draw %v as %v, but NormalCDF at %v says %v", x, hi, sigma, plo, phi, r, r < plo, m, want)
			}
		}
	})
}
