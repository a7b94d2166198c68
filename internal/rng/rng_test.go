package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with same seed diverged at step %d", i)
		}
	}
}

func TestSeedSensitivity(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent seeds produced %d identical outputs", same)
	}
}

func TestSplitPurity(t *testing.T) {
	parent := New(7)
	// Splitting must not depend on how much the parent has been used
	// for other splits, and must not advance the parent.
	before := parent.Split(99).Uint64()
	_ = parent.Split(5)
	_ = parent.Split(12345)
	after := parent.Split(99).Uint64()
	if before != after {
		t.Fatalf("Split is not a pure function of (parent, key): %x vs %x", before, after)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	a := parent.Split(0)
	b := parent.Split(1)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("sibling streams produced %d identical outputs", same)
	}
}

func TestSplit2Distinct(t *testing.T) {
	parent := New(3)
	seen := map[uint64]bool{}
	for a := uint64(0); a < 30; a++ {
		for b := uint64(0); b < 30; b++ {
			v := parent.Split2(a, b).Uint64()
			if seen[v] {
				t.Fatalf("Split2(%d,%d) collided with an earlier stream", a, b)
			}
			seen[v] = true
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64OpenRange(t *testing.T) {
	r := New(11)
	for i := 0; i < 100000; i++ {
		v := r.Float64Open()
		if v <= 0 || v >= 1 {
			t.Fatalf("Float64Open out of (0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(5)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(9)
	for _, n := range []int{1, 2, 3, 7, 100, 4096} {
		for i := 0; i < 2000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	r := New(13)
	const n, draws = 8, 160000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d deviates from %v", i, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestPerm(t *testing.T) {
	r := New(17)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(21)
	const n = 300000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

// TestSkipNormalConsumesLikeNormal: SkipNormal leaves a stream exactly
// where Normal does, over many split streams and over consecutive
// draws, among them streams whose first uniform pair is rejected.
func TestSkipNormalConsumesLikeNormal(t *testing.T) {
	root := New(0x5EED)
	rejectedFirst := 0
	for key := uint64(0); key < 4096; key++ {
		a, b := root.SplitVal(key), root.SplitVal(key)
		probe := a
		u, v := 2*probe.Float64()-1, 2*probe.Float64()-1
		if s := u*u + v*v; !(s > 0 && s < 1) {
			rejectedFirst++
		}
		for k := 0; k < 3; k++ {
			a.Normal()
			b.SkipNormal()
			if a != b {
				t.Fatalf("key %d, draw %d: SkipNormal left the stream at %+v, Normal at %+v", key, k, b, a)
			}
		}
	}
	// About 1 − π/4 of first pairs fall outside the unit disc.
	if rejectedFirst < 500 {
		t.Fatalf("only %d of 4096 streams rejected their first pair", rejectedFirst)
	}
}

func TestNormalAt(t *testing.T) {
	r := New(22)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.NormalAt(10, 2)
	}
	if mean := sum / n; math.Abs(mean-10) > 0.05 {
		t.Fatalf("NormalAt(10,2) mean = %v", mean)
	}
}

func TestExpMoments(t *testing.T) {
	r := New(23)
	const n = 300000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Exp()
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-1) > 0.02 {
		t.Errorf("exp mean = %v, want ~1", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("exp variance = %v, want ~1", variance)
	}
}

func TestGammaMoments(t *testing.T) {
	r := New(29)
	for _, shape := range []float64{0.5, 1, 1.7, 2, 4.5} {
		const n = 200000
		sum, sumSq := 0.0, 0.0
		for i := 0; i < n; i++ {
			v := r.Gamma(shape)
			if v < 0 {
				t.Fatalf("Gamma(%v) returned negative %v", shape, v)
			}
			sum += v
			sumSq += v * v
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		if math.Abs(mean-shape) > 0.05*shape+0.02 {
			t.Errorf("Gamma(%v) mean = %v, want ~%v", shape, mean, shape)
		}
		if math.Abs(variance-shape) > 0.1*shape+0.05 {
			t.Errorf("Gamma(%v) variance = %v, want ~%v", shape, variance, shape)
		}
	}
}

func TestGammaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Gamma(0) did not panic")
		}
	}()
	New(1).Gamma(0)
}

func TestBoolBalance(t *testing.T) {
	r := New(31)
	const n = 100000
	trues := 0
	for i := 0; i < n; i++ {
		if r.Bool() {
			trues++
		}
	}
	if math.Abs(float64(trues)/n-0.5) > 0.01 {
		t.Fatalf("Bool imbalance: %d/%d", trues, n)
	}
}

// Property: any two distinct split keys give streams whose first outputs differ.
func TestQuickSplitKeysDiffer(t *testing.T) {
	parent := New(123)
	f := func(a, b uint64) bool {
		if a == b {
			return true
		}
		return parent.Split(a).Uint64() != parent.Split(b).Uint64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: Intn never escapes its bound for arbitrary positive n.
func TestQuickIntnInRange(t *testing.T) {
	r := New(77)
	f := func(n uint16) bool {
		m := int(n%10000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNormal(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Normal()
	}
}

func BenchmarkSplit(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Split(uint64(i))
	}
}
