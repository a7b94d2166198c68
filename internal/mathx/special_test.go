package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (tol %v)", what, got, want, tol)
	}
}

func TestStdNormalCDFKnown(t *testing.T) {
	almost(t, StdNormalCDF(0), 0.5, 1e-15, "Phi(0)")
	almost(t, StdNormalCDF(1), 0.8413447460685429, 1e-12, "Phi(1)")
	almost(t, StdNormalCDF(-1), 0.15865525393145705, 1e-12, "Phi(-1)")
	almost(t, StdNormalCDF(1.959963984540054), 0.975, 1e-12, "Phi(1.96)")
	almost(t, StdNormalCDF(-3), 0.0013498980316300933, 1e-14, "Phi(-3)")
}

func TestNormalCDFScaling(t *testing.T) {
	almost(t, NormalCDF(10, 10, 3), 0.5, 1e-15, "NormalCDF at mean")
	almost(t, NormalCDF(13, 10, 3), StdNormalCDF(1), 1e-14, "NormalCDF 1 sigma")
}

func TestStdNormalQuantileKnown(t *testing.T) {
	almost(t, StdNormalQuantile(0.5), 0, 1e-12, "Phi^-1(0.5)")
	almost(t, StdNormalQuantile(0.975), 1.959963984540054, 1e-9, "Phi^-1(0.975)")
	almost(t, StdNormalQuantile(0.8413447460685429), 1, 1e-9, "Phi^-1(Phi(1))")
	almost(t, StdNormalQuantile(1e-10), -6.361340902404056, 1e-6, "deep tail")
}

func TestStdNormalQuantileEdges(t *testing.T) {
	if !math.IsInf(StdNormalQuantile(0), -1) {
		t.Error("quantile(0) should be -Inf")
	}
	if !math.IsInf(StdNormalQuantile(1), 1) {
		t.Error("quantile(1) should be +Inf")
	}
	if !math.IsNaN(StdNormalQuantile(-0.1)) || !math.IsNaN(StdNormalQuantile(1.5)) {
		t.Error("out-of-range p should give NaN")
	}
}

// Property: quantile inverts the CDF across the usable range.
func TestQuickNormalRoundTrip(t *testing.T) {
	f := func(raw uint32) bool {
		p := 1e-8 + (1-2e-8)*float64(raw)/float64(math.MaxUint32)
		z := StdNormalQuantile(p)
		return math.Abs(StdNormalCDF(z)-p) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestGammaRegPKnown(t *testing.T) {
	// P(1, x) = 1 - e^-x.
	for _, x := range []float64{0.1, 0.5, 1, 2, 5, 10} {
		got, err := GammaRegP(1, x)
		if err != nil {
			t.Fatalf("GammaRegP(1,%v): %v", x, err)
		}
		almost(t, got, 1-math.Exp(-x), 1e-12, "P(1,x)")
	}
	// P(0.5, x) = erf(sqrt(x)).
	for _, x := range []float64{0.25, 1, 4} {
		got, err := GammaRegP(0.5, x)
		if err != nil {
			t.Fatalf("GammaRegP(0.5,%v): %v", x, err)
		}
		almost(t, got, math.Erf(math.Sqrt(x)), 1e-12, "P(0.5,x)")
	}
	// Median of Gamma(2): P(2, 1.6783469900166605) = 0.5.
	got, err := GammaRegP(2, 1.6783469900166605)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, got, 0.5, 1e-10, "P(2, median)")
}

func TestGammaRegPEdges(t *testing.T) {
	if p, err := GammaRegP(3, 0); err != nil || p != 0 {
		t.Errorf("P(3,0) = %v, %v; want 0, nil", p, err)
	}
	if _, err := GammaRegP(0, 1); err == nil {
		t.Error("P(0,1) should error")
	}
	if _, err := GammaRegP(1, -1); err == nil {
		t.Error("P(1,-1) should error")
	}
}

func TestGammaRegQComplement(t *testing.T) {
	for _, a := range []float64{0.3, 1, 2.5, 10} {
		for _, x := range []float64{0.1, 1, 3, 20} {
			p, err1 := GammaRegP(a, x)
			q, err2 := GammaRegQ(a, x)
			if err1 != nil || err2 != nil {
				t.Fatalf("errors: %v %v", err1, err2)
			}
			almost(t, p+q, 1, 1e-12, "P+Q")
		}
	}
}

func TestGammaQuantileRoundTrip(t *testing.T) {
	for _, a := range []float64{0.5, 1, 1.8, 2, 5} {
		for _, p := range []float64{0.01, 0.1, 0.5, 0.9, 0.99} {
			x, err := GammaQuantile(p, a, 1)
			if err != nil {
				t.Fatalf("GammaQuantile(%v,%v): %v", p, a, err)
			}
			back, err := GammaRegP(a, x)
			if err != nil {
				t.Fatal(err)
			}
			almost(t, back, p, 1e-8, "P(a, Q(p))")
		}
	}
}

func TestGammaQuantileScale(t *testing.T) {
	x1, err := GammaQuantile(0.7, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	x3, err := GammaQuantile(0.7, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, x3, 3*x1, 1e-9, "scale linearity")
}

func TestGammaQuantileExponentialCase(t *testing.T) {
	// Gamma(1, 1) is Exp(1): quantile is -ln(1-p).
	for _, p := range []float64{0.1, 0.5, 0.95} {
		x, err := GammaQuantile(p, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		almost(t, x, -math.Log(1-p), 1e-9, "exp quantile")
	}
}

func TestGammaQuantileEdges(t *testing.T) {
	if x, err := GammaQuantile(0, 2, 1); err != nil || x != 0 {
		t.Errorf("Q(0) = %v, %v; want 0", x, err)
	}
	if _, err := GammaQuantile(1, 2, 1); err == nil {
		t.Error("Q(1) should error")
	}
	if _, err := GammaQuantile(0.5, -1, 1); err == nil {
		t.Error("negative shape should error")
	}
	if _, err := GammaQuantile(0.5, 1, 0); err == nil {
		t.Error("zero scale should error")
	}
}

// Property: gamma quantile is monotone in p.
func TestQuickGammaQuantileMonotone(t *testing.T) {
	f := func(r1, r2 uint16) bool {
		p1 := 0.001 + 0.998*float64(r1)/65535
		p2 := 0.001 + 0.998*float64(r2)/65535
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		x1, err1 := GammaQuantile(p1, 1.7, 1)
		x2, err2 := GammaQuantile(p2, 1.7, 1)
		return err1 == nil && err2 == nil && x1 <= x2+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestLogistic(t *testing.T) {
	almost(t, LogisticCDF(0, 1), 0.5, 1e-15, "logistic(0)")
	almost(t, LogisticCDF(1000, 1), 1, 1e-15, "logistic(+inf)")
	almost(t, LogisticCDF(-1000, 1), 0, 1e-15, "logistic(-inf)")
	almost(t, LogisticCDF(2, 1)+LogisticCDF(-2, 1), 1, 1e-14, "symmetry")
	almost(t, LogisticCDF(1, 0.5), LogisticCDF(2, 1), 0, "scale")
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp misbehaves")
	}
}
