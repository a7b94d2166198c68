package floatgate

import (
	"math"

	"github.com/flashmark/flashmark/internal/mathx"
	"github.com/flashmark/flashmark/internal/rng"
)

// CellBase holds the immutable, manufacturing-time parameters of one cell.
// They are a pure function of (chip seed, segment index, cell index), so a
// chip can be reloaded from its seed without storing per-cell constants.
type CellBase struct {
	TauBaseUs float64 // fresh erase crossing time, µs
	U         float64 // wear-sensitivity percentile in (0,1)
}

// Model evaluates the cell physics for one chip. It is stateless apart
// from the chip seed; per-cell mutable state (wear, digital value, analog
// margin) lives in the memory array (package nor).
type Model struct {
	params Params
	seed   uint64
	root   *rng.Stream
}

// NewModel creates a physics model for a chip with the given seed.
func NewModel(params Params, chipSeed uint64) (*Model, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &Model{params: params, seed: chipSeed, root: rng.New(chipSeed)}, nil
}

// Params returns the model's parameter set.
func (m *Model) Params() Params { return m.params }

// Seed returns the chip seed the model was built from.
func (m *Model) Seed() uint64 { return m.seed }

// Base returns the immutable parameters of the cell at (segment, cell).
// The mapping is pure: the same chip seed always yields the same cell.
func (m *Model) Base(segIndex, cellIndex int) CellBase {
	st := m.root.Split2Val(uint64(segIndex), uint64(cellIndex))
	tau := mathx.Clamp(
		st.NormalAt(m.params.TauBaseMeanUs, m.params.TauBaseSigmaUs),
		m.params.TauBaseMinUs, m.params.TauBaseMaxUs,
	)
	return CellBase{TauBaseUs: tau, U: st.Float64Open()}
}

// BaseU returns Base(segIndex, cellIndex).U bit for bit at about half
// the cost: the cell's stream skips the crossing time's normal draw
// instead of evaluating it.
func (m *Model) BaseU(segIndex, cellIndex int) float64 {
	st := m.root.Split2Val(uint64(segIndex), uint64(cellIndex))
	st.SkipNormal()
	return st.Float64Open()
}

// ShiftUs returns F(w): the deterministic erase slowdown at wear w.
func (m *Model) ShiftUs(wear float64) float64 {
	if wear <= 0 {
		return 0
	}
	return m.params.ShiftCoefUs * math.Pow(wear/1000, m.params.ShiftPower)
}

// SpreadUs returns G(w): the wear sensitivity scale at wear w.
func (m *Model) SpreadUs(wear float64) float64 {
	if wear <= 0 {
		return 0
	}
	return m.params.SpreadCoefUs * math.Pow(wear/1000, m.params.SpreadPower)
}

// Shape returns k(w): the sensitivity distribution shape at wear w.
func (m *Model) Shape(wear float64) float64 {
	frac := wear / m.params.ShapeSaturation
	if frac > 1 {
		frac = 1
	}
	return m.params.ShapeBase + m.params.ShapeSlope*frac
}

// Tau returns the erase crossing time tau_i(w) in µs for a cell with the
// given immutable base at effective wear w.
func (m *Model) Tau(base CellBase, wear float64) float64 {
	if wear <= 0 {
		return base.TauBaseUs
	}
	k := m.Shape(wear)
	// Unit-mean Gamma: shape k, scale 1/k.
	q, err := mathx.GammaQuantile(base.U, k, 1/k)
	if err != nil {
		// U is guaranteed inside (0,1) and k > 0, so this is unreachable
		// for valid params; degrade to the deterministic component.
		q = 1
	}
	return base.TauBaseUs + m.ShiftUs(wear) + m.SpreadUs(wear)*q
}

// TauAt is a convenience combining Base and Tau.
func (m *Model) TauAt(segIndex, cellIndex int, wear float64) float64 {
	return m.Tau(m.Base(segIndex, cellIndex), wear)
}

// EraseWear returns the effective wear added to a cell by one segment
// erase, given whether the cell was in the programmed state when the erase
// began. A programmed cell completes a full P/E cycle; an erased cell only
// sees the (weaker) erase-field stress.
func (m *Model) EraseWear(wasProgrammed bool) float64 {
	if wasProgrammed {
		return m.params.EraseFromProgrammedWear
	}
	return m.params.EraseOnlyWear
}

// ProgramWear returns the effective wear added by one program operation.
func (m *Model) ProgramWear() float64 { return m.params.ProgramWear }

// ReadOneProbability returns the probability that a single read senses '1'
// for a cell whose analog margin after a partial erase is marginUs
// (margin = t_PE - tau). Large positive margins read '1' deterministically,
// large negative margins '0'; cells near the crossing are metastable, which
// is why AnalyzeSegment (paper Fig. 3) reads N times and majority-votes.
func (m *Model) ReadOneProbability(marginUs float64) float64 {
	return mathx.NormalCDF(marginUs, 0, m.params.ReadNoiseSigmaUs)
}

// ReadDecided reports whether a read at the given margin is settled
// without noise (more than six sigma from the crossing) and, if so, the
// value it reads. SampleRead draws from the noise stream exactly when
// decided is false.
func (m *Model) ReadDecided(marginUs float64) (one, decided bool) {
	switch {
	case marginUs > 6*m.params.ReadNoiseSigmaUs:
		return true, true
	case marginUs < -6*m.params.ReadNoiseSigmaUs:
		return false, true
	}
	return false, false
}

// SampleRead draws one digital read of a cell at the given margin using
// the supplied noise stream: outside the ±6σ band it reads its side
// without a draw, inside it takes one uniform draw and reads 1 when the
// draw falls below ReadOneProbability. mathx.NormalDraw decides that
// comparison, from its Φ bound table wherever the table settles it.
func (m *Model) SampleRead(marginUs float64, noise *rng.Stream) bool {
	if one, ok := m.ReadDecided(marginUs); ok {
		return one
	}
	return mathx.NormalDraw(noise.Float64(), marginUs, m.params.ReadNoiseSigmaUs)
}

// ReadSigmaUs returns the effective read noise at the given wear:
// nominal within the endurance budget and growing linearly beyond it —
// the §II observation that a cell past its endurance "may still function
// but not consistently".
func (m *Model) ReadSigmaUs(wear float64) float64 {
	sigma := m.params.ReadNoiseSigmaUs
	if wear > m.params.EnduranceCycles {
		sigma *= 1 + (wear-m.params.EnduranceCycles)/m.params.EnduranceCycles
	}
	return sigma
}

// SampleReadAt draws one digital read of a cell at the given margin and
// wear, with beyond-endurance noise growth applied: SampleRead's rule at
// σ = ReadSigmaUs(wear), one draw inside ±6σ and none outside, the draw
// decided by mathx.NormalDraw.
func (m *Model) SampleReadAt(marginUs, wear float64, noise *rng.Stream) bool {
	sigma := m.ReadSigmaUs(wear)
	switch {
	case marginUs > 6*sigma:
		return true
	case marginUs < -6*sigma:
		return false
	}
	return mathx.NormalDraw(noise.Float64(), marginUs, sigma)
}

// ProgTau returns the program crossing time in µs for a cell at wear w:
// the point during a program pulse at which the cell flips to the
// programmed state. Oxide damage provides trap-assisted injection paths,
// so worn cells program *faster* — the physical signal the FFD-style
// partial-program comparator [6] keys on.
func (m *Model) ProgTau(base CellBase, wear float64) float64 {
	// Reuse the cell's wear-sensitivity percentile: a cell whose erase
	// slows a lot is a cell whose oxide is heavily damaged, and the same
	// damage accelerates its programming.
	fresh := m.progBase(base)
	if wear <= 0 {
		return fresh
	}
	speedup := m.params.ProgSpeedupCoef * math.Pow(wear/1000, m.params.ProgSpeedupPow) * (0.5 + base.U)
	if speedup > m.params.ProgSpeedupMax {
		speedup = m.params.ProgSpeedupMax
	}
	t := fresh * (1 - speedup)
	if t < m.params.ProgTauMinUs {
		t = m.params.ProgTauMinUs
	}
	return t
}

// progBase derives the cell's fresh program crossing time from its
// immutable parameters, deterministically but independently of the
// erase-side spread.
func (m *Model) progBase(base CellBase) float64 {
	// Map (tauBase, u) through a hash-like mix into a stable standard
	// normal via the erase-side values; keep it simple and smooth: use
	// the base quantile U reflected through the normal quantile.
	z := mathx.StdNormalQuantile(base.U)
	t := m.params.ProgTauMeanUs + m.params.ProgTauSigmaUs*z
	if t < m.params.ProgTauMinUs {
		t = m.params.ProgTauMinUs
	}
	return t
}

// ProgTauAt is a convenience combining Base and ProgTau.
func (m *Model) ProgTauAt(segIndex, cellIndex int, wear float64) float64 {
	return m.ProgTau(m.Base(segIndex, cellIndex), wear)
}

// RetentionShiftUs returns the erase-crossing slowdown caused by years of
// unpowered aging at wear w: a data-retention effect that grows with oxide
// damage. It is an extension hook (paper §VI future directions); the main
// experiments run at age 0.
func (m *Model) RetentionShiftUs(wear, years float64) float64 {
	if years <= 0 {
		return 0
	}
	amp := 1 + m.params.RetentionWearAmplifPer1K*wear/1000
	return m.params.RetentionDriftUsPerYear * years * amp
}

// Worn reports whether a cell at wear w has exceeded the datasheet
// endurance and should be considered unreliable.
func (m *Model) Worn(wear float64) bool {
	return wear > m.params.EnduranceCycles
}

// TempFactor returns the erase-time multiplier at ambient temperature
// tempC: >1 when cold (tunneling slows), <1 when hot, 1 at 25 °C. The
// factor is clamped to stay physical across extreme inputs.
func (m *Model) TempFactor(tempC float64) float64 {
	f := 1 + m.params.TempCoeffPerC*(25-tempC)
	if f < 0.5 {
		f = 0.5
	}
	if f > 2 {
		f = 2
	}
	return f
}
