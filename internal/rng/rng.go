// Package rng provides the deterministic pseudo-random substrate used by
// the flash physics simulation.
//
// Everything in the simulator that looks random — manufacturing variation,
// wear sensitivity, read noise — must be reproducible bit-for-bit from a
// chip seed so that experiments can be re-run and chips can be serialized
// and reloaded. The package implements the xoshiro256** generator together
// with a SplitMix64-based stream splitter: a parent stream deterministically
// derives independent child streams keyed by integers (for example, one
// stream per flash cell), so adding a consumer of randomness in one module
// never perturbs the values observed by another.
package rng

import "math"

// Stream is a deterministic pseudo-random number generator
// (xoshiro256**, period 2^256-1). The zero value is not valid;
// use New or a Split derivative.
type Stream struct {
	s0, s1, s2, s3 uint64
}

// splitMix64 advances x through the SplitMix64 sequence and returns the
// next output. It is used only for seeding, per the xoshiro authors'
// recommendation, so that similar seeds yield unrelated states.
func splitMix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a stream seeded from the given 64-bit seed.
func New(seed uint64) *Stream {
	var st Stream
	x := seed
	st.s0 = splitMix64(&x)
	st.s1 = splitMix64(&x)
	st.s2 = splitMix64(&x)
	st.s3 = splitMix64(&x)
	return &st
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Stream) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Split derives an independent child stream keyed by key. The parent's
// state is not advanced, so Split(k) is a pure function of (parent seed,
// key): per-cell streams remain stable no matter how many other cells
// exist or in which order they are visited.
func (r *Stream) Split(key uint64) *Stream {
	st := r.SplitVal(key)
	return &st
}

// SplitVal is Split returning the child stream by value. Per-cell hot
// paths (one derived stream per cell per segment rebuild) use it so the
// child lives on the caller's stack instead of the heap.
func (r *Stream) SplitVal(key uint64) Stream {
	// Mix the parent state with the key through SplitMix64 so that
	// nearby keys produce unrelated children.
	x := r.s0 ^ rotl(r.s2, 23) ^ (key * 0x9e3779b97f4a7c15)
	var st Stream
	st.s0 = splitMix64(&x)
	x ^= r.s1
	st.s1 = splitMix64(&x)
	x ^= r.s3
	st.s2 = splitMix64(&x)
	x ^= key
	st.s3 = splitMix64(&x)
	// xoshiro must not be seeded with the all-zero state.
	if st.s0|st.s1|st.s2|st.s3 == 0 {
		st.s0 = 0x9e3779b97f4a7c15
	}
	return st
}

// Split2 derives a child stream from a pair of keys, convenient for
// (segment, cell) style addressing.
func (r *Stream) Split2(a, b uint64) *Stream {
	return r.Split(a*0x9e3779b97f4a7c15 + b + 0x632be59bd9b4e019)
}

// Split2Val is Split2 returning the child stream by value.
func (r *Stream) Split2Val(a, b uint64) Stream {
	return r.SplitVal(a*0x9e3779b97f4a7c15 + b + 0x632be59bd9b4e019)
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Float64Open returns a uniform value in the open interval (0, 1),
// safe as input to inverse-CDF transforms that diverge at the ends.
func (r *Stream) Float64Open() float64 {
	for {
		v := (float64(r.Uint64()>>11) + 0.5) * (1.0 / (1 << 53))
		if v > 0 && v < 1 {
			return v
		}
	}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method gives an unbiased value
	// without a modulo in the common case.
	un := uint64(n)
	v := r.Uint64()
	hi, lo := mul64(v, un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			v = r.Uint64()
			hi, lo = mul64(v, un)
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + w1>>32
	lo = a * b
	return hi, lo
}

// Perm returns a pseudo-random permutation of [0, n) (Fisher-Yates).
func (r *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Normal returns a draw from the standard normal distribution using the
// polar Marsaglia method.
func (r *Stream) Normal() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// SkipNormal advances the stream exactly as Normal does, consuming the
// same uniform pairs, rejected and accepted alike, without computing
// the draw: for a caller that needs only what follows it.
func (r *Stream) SkipNormal() {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		if s := u*u + v*v; s > 0 && s < 1 {
			return
		}
	}
}

// NormalAt returns a draw from Normal(mu, sigma^2).
func (r *Stream) NormalAt(mu, sigma float64) float64 {
	return mu + sigma*r.Normal()
}

// Exp returns a draw from the unit-rate exponential distribution.
func (r *Stream) Exp() float64 {
	return -math.Log(1 - r.Float64())
}

// Gamma returns a draw from a Gamma distribution with the given shape
// and unit scale, using the Marsaglia-Tsang method (with Ahrens-Dieter
// boosting for shape < 1).
func (r *Stream) Gamma(shape float64) float64 {
	if shape <= 0 {
		panic("rng: Gamma with non-positive shape")
	}
	if shape < 1 {
		// Boost: if X ~ Gamma(shape+1) then X * U^(1/shape) ~ Gamma(shape).
		u := r.Float64Open()
		return r.Gamma(shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.Normal()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64Open()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Bool returns a fair pseudo-random boolean.
func (r *Stream) Bool() bool { return r.Uint64()&1 == 1 }
