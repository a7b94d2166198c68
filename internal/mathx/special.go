// Package mathx supplies the numerical routines the physics model and the
// evaluation harness need beyond the standard library: normal, logistic
// and gamma distribution functions (CDFs, quantiles, and the bound
// tables that decide a noisy read's draw), the regularized incomplete
// gamma function, and small statistics helpers (summaries, quantiles,
// histograms). Everything is pure Go on top of package math.
package mathx

import (
	"errors"
	"math"
)

// NormalCDF returns Φ((x-mu)/sigma), the CDF of Normal(mu, sigma²) at x.
func NormalCDF(x, mu, sigma float64) float64 {
	return 0.5 * math.Erfc(erfcArg(x, mu, sigma))
}

// erfcArg is the erfc argument NormalCDF evaluates: Φ at x is half the
// erfc of it. NormalDraw bounds the same value, so the two never differ.
func erfcArg(x, mu, sigma float64) float64 { return -(x - mu) / (sigma * math.Sqrt2) }

// StdNormalCDF returns Φ(z).
func StdNormalCDF(z float64) float64 { return 0.5 * math.Erfc(-z/math.Sqrt2) }

// The Φ bound table behind NormalDraw: phiTable[j] = 0.5·math.Erfc(t_j)
// at the dyadic points t_j = j·phiStep − phiTMax, every one an exact
// float64. It covers the erfc arguments of a draw inside ±6σ (|t| ≤
// 6/√2 ≈ 4.243), the only draws a noisy read takes. It is built once,
// at package init, from the same math.Erfc NormalCDF calls, and never
// changes.
const (
	phiStepLog2 = 8
	phiStep     = 1.0 / (1 << phiStepLog2)
	phiTMax     = 4.25
	phiPoints   = 2*phiTMax*(1<<phiStepLog2) + 1

	// phiPad widens each bound relative to the table entry: erfc is
	// accurate to about one ulp and decreasing, so a computed
	// 0.5·math.Erfc(t) for t in [t_j, t_j+1] lies within
	// [phiTable[j+1], phiTable[j]] widened by far less than this.
	phiPad = 1e-12
)

var phiTable = func() *[phiPoints]float64 {
	var tab [phiPoints]float64
	for j := range tab {
		tab[j] = 0.5 * math.Erfc(float64(j)*phiStep-phiTMax)
	}
	return &tab
}()

// phiBounds returns bounds on 0.5·math.Erfc(s) for every s in the grid
// interval [t_j, t_j+1] that holds t, lo taken at its right end and hi
// at its left. ok is false for NaN, ±Inf and t off the grid. The
// interval is checked against its grid points, not trusted from the
// rounded index.
func phiBounds(t float64) (lo, hi float64, ok bool) {
	f := (t + phiTMax) * (1 << phiStepLog2)
	if !(f >= 0 && f < phiPoints-1) {
		return 0, 0, false
	}
	j := int(f)
	tj := float64(j)*phiStep - phiTMax
	if !(tj <= t && t <= tj+phiStep) {
		return 0, 0, false
	}
	return phiTable[j+1] * (1 - phiPad), phiTable[j] * (1 + phiPad), true
}

// NormalDraw reports whether the uniform draw r falls below Φ(x/sigma),
// exactly r < NormalCDF(x, 0, sigma), for any r, x and sigma: a noisy
// read of a cell at margin x reads 1 when it does. Only the side of r
// that Φ lies on matters, so the draw is decided from the two table
// bounds around the erfc argument; erfc is evaluated only when r lands
// between them, or when the argument is off the table.
func NormalDraw(r, x, sigma float64) bool {
	if lo, hi, ok := phiBounds(erfcArg(x, 0, sigma)); ok {
		if r < lo {
			return true
		}
		if r >= hi {
			return false
		}
	}
	return r < NormalCDF(x, 0, sigma)
}

// PhiOver returns table bounds on Φ(x/sigma) over every x in [lo, hi],
// for a cell whose margin is known only to lie in that bracket: Φ rises
// with x, so plo, the lower table bound at lo, is at or below all of
// it, and phi, the upper bound at hi, at or above. A draw r < plo reads
// 1 (NormalDraw is true) for every margin in the bracket, and r >= phi
// reads 0; between them NormalDraw at the exact margin decides. A bound
// the table cannot give (an argument off it, sigma not positive,
// lo > hi) is NaN, which no draw compares past.
func PhiOver(lo, hi, sigma float64) (plo, phi float64) {
	plo, phi = math.NaN(), math.NaN()
	if !(sigma > 0 && lo <= hi) {
		return plo, phi
	}
	if b, _, ok := phiBounds(erfcArg(lo, 0, sigma)); ok {
		plo = b
	}
	if _, b, ok := phiBounds(erfcArg(hi, 0, sigma)); ok {
		phi = b
	}
	return plo, phi
}

// StdNormalQuantile returns Φ⁻¹(p) for p in (0,1) using the
// Beasley-Springer-Moro / Acklam rational approximation refined by one
// Halley step, accurate to ~1e-15 over the full open interval.
func StdNormalQuantile(p float64) float64 {
	if math.IsNaN(p) || p <= 0 || p >= 1 {
		switch {
		case p == 0:
			return math.Inf(-1)
		case p == 1:
			return math.Inf(1)
		}
		return math.NaN()
	}
	// Acklam's coefficients.
	var (
		a = [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
			-2.759285104469687e+02, 1.383577518672690e+02,
			-3.066479806614716e+01, 2.506628277459239e+00}
		b = [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
			-1.556989798598866e+02, 6.680131188771972e+01,
			-1.328068155288572e+01}
		c = [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
			-2.400758277161838e+00, -2.549732539343734e+00,
			4.374664141464968e+00, 2.938163982698783e+00}
		d = [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
			2.445134137142996e+00, 3.754408661907416e+00}
	)
	const pLow = 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement step against the true CDF.
	e := StdNormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x
}

// ErrNoConverge reports that an iterative special-function evaluation
// failed to converge; it indicates arguments far outside the supported
// range rather than a recoverable condition.
var ErrNoConverge = errors.New("mathx: iteration did not converge")

// GammaRegP returns the regularized lower incomplete gamma function
// P(a, x) = γ(a,x)/Γ(a) for a > 0, x >= 0.
func GammaRegP(a, x float64) (float64, error) {
	switch {
	case a <= 0 || math.IsNaN(a) || math.IsNaN(x):
		return math.NaN(), errors.New("mathx: GammaRegP requires a > 0")
	case x < 0:
		return math.NaN(), errors.New("mathx: GammaRegP requires x >= 0")
	case x == 0:
		return 0, nil
	}
	if x < a+1 {
		p, err := gammaPSeries(a, x)
		return p, err
	}
	q, err := gammaQContinuedFraction(a, x)
	return 1 - q, err
}

// GammaRegQ returns the regularized upper incomplete gamma function
// Q(a, x) = 1 - P(a, x).
func GammaRegQ(a, x float64) (float64, error) {
	p, err := GammaRegP(a, x)
	return 1 - p, err
}

// gammaPSeries evaluates P(a,x) by its power series, best for x < a+1.
func gammaPSeries(a, x float64) (float64, error) {
	lg, _ := math.Lgamma(a)
	return gammaPSeriesLg(a, x, math.Log(x), lg)
}

// gammaPSeriesLg is gammaPSeries with lgamma(a) and log(x) hoisted by the
// caller; both are pure functions of their inputs, so the result is
// bit-identical to gammaPSeries.
func gammaPSeriesLg(a, x, lx, lg float64) (float64, error) {
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < 500; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*1e-16 {
			return sum * math.Exp(-x+a*lx-lg), nil
		}
	}
	return math.NaN(), ErrNoConverge
}

// gammaQContinuedFraction evaluates Q(a,x) by Lentz's continued fraction,
// best for x >= a+1.
func gammaQContinuedFraction(a, x float64) (float64, error) {
	lg, _ := math.Lgamma(a)
	return gammaQContinuedFractionLg(a, x, math.Log(x), lg)
}

// gammaQContinuedFractionLg is gammaQContinuedFraction with lgamma(a) and
// log(x) hoisted by the caller (bit-identical results).
func gammaQContinuedFractionLg(a, x, lx, lg float64) (float64, error) {
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= 500; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-16 {
			return math.Exp(-x+a*lx-lg) * h, nil
		}
	}
	return math.NaN(), ErrNoConverge
}

// GammaQuantile returns the x such that P(shape, x/scale) = p: the
// quantile function of a Gamma(shape, scale) distribution. p must lie in
// [0, 1); shape and scale must be positive.
func GammaQuantile(p, shape, scale float64) (float64, error) {
	if shape <= 0 || scale <= 0 || math.IsNaN(shape) {
		return math.NaN(), errors.New("mathx: GammaQuantile requires positive shape and scale")
	}
	g, err := NewGammaDist(shape)
	if err != nil {
		return math.NaN(), err
	}
	return g.QuantileScaled(p, scale)
}

// GammaDist is a Gamma distribution of fixed shape with the
// shape-dependent transcendental constants (lgamma) hoisted, so repeated
// evaluations at the same shape — the inner loop of every batched tau
// sweep, where all cells of a wear group share one shape — skip the
// per-call Lgamma. Results are bit-identical to the package-level
// functions: the hoisted values are pure functions of the shape, and
// every expression is evaluated in the same operation order.
type GammaDist struct {
	shape float64
	lg    float64 // lgamma(shape)
}

// NewGammaDist builds a fixed-shape evaluator; shape must be positive.
func NewGammaDist(shape float64) (GammaDist, error) {
	if shape <= 0 || math.IsNaN(shape) {
		return GammaDist{}, errors.New("mathx: NewGammaDist requires shape > 0")
	}
	lg, _ := math.Lgamma(shape)
	return GammaDist{shape: shape, lg: lg}, nil
}

// Shape returns the distribution's shape parameter.
func (g GammaDist) Shape() float64 { return g.shape }

// RegP returns P(shape, x), bit-identical to GammaRegP(shape, x).
func (g GammaDist) RegP(x float64) (float64, error) {
	switch {
	case math.IsNaN(x):
		return math.NaN(), errors.New("mathx: GammaRegP requires x >= 0")
	case x < 0:
		return math.NaN(), errors.New("mathx: GammaRegP requires x >= 0")
	case x == 0:
		return 0, nil
	}
	lx := math.Log(x)
	if x < g.shape+1 {
		return gammaPSeriesLg(g.shape, x, lx, g.lg)
	}
	q, err := gammaQContinuedFractionLg(g.shape, x, lx, g.lg)
	return 1 - q, err
}

// QuantileScaled returns the p-quantile of Gamma(shape, scale),
// bit-identical to GammaQuantile(p, shape, scale).
func (g GammaDist) QuantileScaled(p, scale float64) (float64, error) {
	switch {
	case scale <= 0:
		return math.NaN(), errors.New("mathx: GammaQuantile requires positive shape and scale")
	case p < 0 || p >= 1 || math.IsNaN(p):
		return math.NaN(), errors.New("mathx: GammaQuantile requires p in [0,1)")
	case p == 0:
		return 0, nil
	}
	// Wilson-Hilferty starting point: if X~Gamma(a,1) then (X/a)^(1/3)
	// is approximately normal.
	z := StdNormalQuantile(p)
	a := g.shape
	wh := a * math.Pow(1-1/(9*a)+z/(3*math.Sqrt(a)), 3)
	x := wh
	if x <= 0 || math.IsNaN(x) {
		x = a * math.Exp((math.Log(p)+lgammaPlus1(a))/a)
		if x <= 0 || math.IsNaN(x) {
			x = 1e-8
		}
	}
	lg := g.lg
	// Newton iterations on P(a,x) - p = 0; the derivative is the pdf.
	// log(x) is shared between the incomplete-gamma evaluation and the
	// pdf of each iteration (it is the same value the unhoisted code
	// computed twice), so the iterates are bit-identical.
	for i := 0; i < 60; i++ {
		lx := math.Log(x)
		var cur float64
		var err error
		if x < a+1 {
			cur, err = gammaPSeriesLg(a, x, lx, lg)
		} else {
			var q float64
			q, err = gammaQContinuedFractionLg(a, x, lx, lg)
			cur = 1 - q
		}
		if err != nil {
			return math.NaN(), err
		}
		pdf := math.Exp(-x + (a-1)*lx - lg)
		if pdf <= 0 || math.IsInf(pdf, 0) {
			break
		}
		step := (cur - p) / pdf
		nx := x - step
		if nx <= 0 {
			nx = x / 2
		}
		if math.Abs(nx-x) < 1e-13*math.Max(1, x) {
			x = nx
			break
		}
		x = nx
	}
	return x * scale, nil
}

func lgammaPlus1(a float64) float64 {
	lg, _ := math.Lgamma(a + 1)
	return lg
}

// LogisticCDF returns 1/(1+e^{−x/sigma}), the CDF of a logistic
// distribution of scale sigma at x. LogisticDraw decides the same
// value, so the two never differ.
func LogisticCDF(x, sigma float64) float64 {
	return logisticAt(-x / sigma)
}

// logisticAt is LogisticCDF as a function of t = −x/sigma. It falls
// as t rises.
func logisticAt(t float64) float64 { return 1 / (1 + math.Exp(t)) }

// The bound table behind LogisticDraw: logTable[j] = logisticAt(t_j) at
// the dyadic points t_j = j·logStep − logTMax, every one an exact
// float64, built once at package init from the same logisticAt
// LogisticCDF calls. Past +logTMax the last entry, below 2^-53, bounds
// every t from above, and past −logTMax the first, which rounds to 1,
// bounds every t from below.
const (
	logStepLog2 = 5
	logStep     = 1.0 / (1 << logStepLog2)
	logTMax     = 40
	logPoints   = 2*logTMax*(1<<logStepLog2) + 1

	// logPad widens each bound relative to the table entry, as phiPad
	// does: math.Exp is accurate to about one ulp and rising, so a
	// computed logisticAt(t) for t in [t_j, t_j+1] lies within
	// [logTable[j+1], logTable[j]] widened by far less than this.
	logPad = 1e-12
)

var logTable = func() *[logPoints]float64 {
	var tab [logPoints]float64
	for j := range tab {
		tab[j] = logisticAt(float64(j)*logStep - logTMax)
	}
	return &tab
}()

// LogisticDraw reports whether the uniform draw r falls below the
// logistic CDF at x, exactly r < LogisticCDF(x, sigma), for any r, x and
// sigma: a noisy ReRAM read of a cell at margin x reads HRS when it
// does. Like NormalDraw, it decides the draw from two bounds around
// t = −x/sigma, and evaluates math.Exp only when r lands between them,
// or when t is NaN or infinite. Inside the table the bounds are the
// entries of the grid interval that holds t, checked against its grid
// points rather than trusted from the rounded index; past either end
// they are the end entry and 0 or 1, which bound every computed value.
// One function, not a bounds helper: the call cost a fifth of the draw.
func LogisticDraw(r, x, sigma float64) bool {
	t := -x / sigma
	var lo, hi float64
	f := (t + logTMax) * (1 << logStepLog2)
	switch {
	case f >= 0 && f < logPoints-1:
		j := int(f)
		if tj := float64(j)*logStep - logTMax; !(tj <= t && t <= tj+logStep) {
			return r < logisticAt(t)
		}
		lo, hi = logTable[j+1]*(1-logPad), logTable[j]*(1+logPad)
	case t >= logTMax && t <= math.MaxFloat64:
		lo, hi = 0, logTable[logPoints-1]*(1+logPad)
	case t < -logTMax && t >= -math.MaxFloat64:
		lo, hi = logTable[0]*(1-logPad), 1
	default:
		return r < logisticAt(t)
	}
	if r < lo {
		return true
	}
	if r >= hi {
		return false
	}
	return r < logisticAt(t)
}

// Clamp limits v to the closed interval [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	switch {
	case v < lo:
		return lo
	case v > hi:
		return hi
	}
	return v
}
