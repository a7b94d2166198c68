// Package reram models a filamentary resistive-RAM (ReRAM) crossbar
// behind the substrate-neutral device.Device interface, carrying the
// Flashmark imprint/extract procedures to a third physics family
// (after NOR and NAND floating-gate wear). The scheme follows the
// watermarked-ReRAM direction of Ferdaus et al. (arXiv 2204.02104):
// the imprint mechanism is *resistance-state conditioning*, not oxide
// wear — repeated SET/RESET cycling grows a cell's conductive filament
// so its RESET crossing time lengthens, biasing the low-resistance-
// state (LRS) distribution of watermark cells in a way ordinary
// digital programming cannot reproduce.
//
// The cell dictionary maps onto the shared nor.Array store: a cell in
// the high-resistance state (HRS, after RESET) reads logic 1 and is
// "erased"; the low-resistance state (LRS, after SET) reads logic 0
// and is "programmed". A RESET staircase is the erase primitive, an
// aborted staircase the partial-erase extraction primitive, and the
// per-cell RESET crossing time tau plays the role floatgate's erase
// time plays on flash.
package reram

import (
	"fmt"
	"math"

	"github.com/flashmark/flashmark/internal/mathx"
	"github.com/flashmark/flashmark/internal/rng"
)

// Params holds the filamentary cell physics. Times are microseconds.
type Params struct {
	// TauBaseMeanUs / TauBaseSigmaUs describe the fresh-cell RESET
	// crossing time distribution (per-cell, fixed at fabrication by the
	// forming step). Clipped to [TauClipLowUs, TauClipHighUs].
	TauBaseMeanUs  float64 `json:"tauBaseMeanUs"`
	TauBaseSigmaUs float64 `json:"tauBaseSigmaUs"`
	TauClipLowUs   float64 `json:"tauClipLowUs"`
	TauClipHighUs  float64 `json:"tauClipHighUs"`

	// Conditioning: cycling a cell through SET/RESET grows its filament,
	// lengthening tau by CondCoefUs * (wear/1000)^CondPower * g, where g
	// is the cell's lognormal conditioning susceptibility with sigma
	// CondSigma (median 1).
	CondCoefUs float64 `json:"condCoefUs"`
	CondPower  float64 `json:"condPower"`
	CondSigma  float64 `json:"condSigma"`

	// ReadNoiseSigmaUs scales read-disturb noise: a cell left metastable
	// by an aborted RESET at margin m (µs past its crossing point) reads
	// HRS with probability sigmoid(m / ReadNoiseSigmaUs).
	ReadNoiseSigmaUs float64 `json:"readNoiseSigmaUs"`

	// Per-cycle conditioning increments ("wear" in the shared stress
	// kernel): a full RESET of an LRS cell, a RESET of an already-HRS
	// cell, and one SET exposure.
	ResetWearFull float64 `json:"resetWearFull"`
	ResetWearHRS  float64 `json:"resetWearHRS"`
	SetWear       float64 `json:"setWear"`

	// DriftUsPerYear models retention drift of unpowered storage: the
	// filament relaxes and every cell's tau lengthens uniformly.
	DriftUsPerYear float64 `json:"driftUsPerYear"`

	// EnduranceCycles is the datasheet cycling endurance.
	EnduranceCycles float64 `json:"enduranceCycles"`
}

// DefaultParams returns the simulated OxRAM operating point. The
// numbers are calibrated against the verifier's fixed t_PEW (25 µs)
// and recycled-wear threshold: an 80k-cycle imprint shifts tau far
// past t_PEW, 10k field cycles shift ~14% of cells past it (over the
// 4% screen), and a fresh die leaves under 1% past it.
func DefaultParams() Params {
	return Params{
		TauBaseMeanUs:    21.0,
		TauBaseSigmaUs:   1.5,
		TauClipLowUs:     16.5,
		TauClipHighUs:    26.0,
		CondCoefUs:       0.05,
		CondPower:        1.6,
		CondSigma:        0.3,
		ReadNoiseSigmaUs: 0.5,
		ResetWearFull:    1.0,
		ResetWearHRS:     0.0625,
		SetWear:          0.03125,
		DriftUsPerYear:   0.05,
		EnduranceCycles:  100_000,
	}
}

// Validate reports whether the physics parameters are usable.
func (p Params) Validate() error {
	switch {
	case !(p.TauBaseMeanUs > 0) || !(p.TauBaseSigmaUs > 0):
		return fmt.Errorf("reram: tau base distribution must be positive: %+v", p)
	case !(p.TauClipLowUs > 0) || !(p.TauClipHighUs > p.TauClipLowUs):
		return fmt.Errorf("reram: tau clip bounds must satisfy 0 < low < high: %+v", p)
	case !(p.CondCoefUs >= 0) || !(p.CondPower > 0) || !(p.CondSigma >= 0):
		return fmt.Errorf("reram: conditioning parameters out of range: %+v", p)
	case !(p.ReadNoiseSigmaUs > 0):
		return fmt.Errorf("reram: read noise sigma must be positive: %+v", p)
	case !(p.ResetWearFull > 0) || !(p.ResetWearHRS >= 0) || !(p.SetWear >= 0):
		return fmt.Errorf("reram: wear increments out of range: %+v", p)
	case !(p.DriftUsPerYear >= 0):
		return fmt.Errorf("reram: drift must be non-negative: %+v", p)
	case !(p.EnduranceCycles > 0):
		return fmt.Errorf("reram: endurance must be positive: %+v", p)
	}
	return nil
}

// cellParam is the immutable per-cell physical identity, fixed by the
// die seed at forming time.
type cellParam struct {
	tauBase float64 // fresh RESET crossing time (µs)
	cond    float64 // conditioning susceptibility (lognormal, median 1)
}

// Model evaluates the cell physics for one die. Per-cell parameters
// are derived lazily per sector from order-independent rng stream
// splits keyed on (sector, cell), so any access order yields identical
// physics.
type Model struct {
	params  Params
	base    rng.Stream // never advanced; split per cell
	sectors [][]cellParam
	cells   int // per sector

	// pow memoizes the conditioning power (wear/1000)^CondPower of the
	// last few wear values TauAt saw, keyed on their bits: a sector's
	// cells share a handful of wear values (a watermark sector
	// alternates two), so a partial erase evaluates math.Pow about once
	// per value, not once per cell. pows counts the evaluations.
	pow     [powMemo]powEntry
	powNext int
	pows    int
}

// powMemo is the number of wear values the conditioning-power memo
// holds: two to four cover the distinct wear values of any sector an
// imprint or a recycling history leaves, and a crafted chip file with
// more pays one evaluation per miss, as without the memo.
const powMemo = 4

// powEntry is one memoized conditioning power. The zero value is a
// true entry, for wear +0: CondPower is positive, so its power is +0.
type powEntry struct {
	wear uint64 // math.Float64bits of the wear
	pow  float64
}

// NewModel builds the physics model for a die seed.
func NewModel(params Params, seed uint64, sectors, cellsPerSector int) (*Model, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &Model{
		params:  params,
		base:    rng.New(seed ^ 0x5245524D_4F784D6C).SplitVal(0x466F726D), // forming step
		sectors: make([][]cellParam, sectors),
		cells:   cellsPerSector,
	}, nil
}

// sectorParams returns (building on first touch) the cell identities
// of one sector.
func (m *Model) sectorParams(sector int) []cellParam {
	if ps := m.sectors[sector]; ps != nil {
		return ps
	}
	ps := make([]cellParam, m.cells)
	p := m.params
	for i := range ps {
		s := m.base.Split2Val(uint64(sector), uint64(i))
		tau := s.NormalAt(p.TauBaseMeanUs, p.TauBaseSigmaUs)
		if tau < p.TauClipLowUs {
			tau = p.TauClipLowUs
		}
		if tau > p.TauClipHighUs {
			tau = p.TauClipHighUs
		}
		ps[i] = cellParam{tauBase: tau, cond: math.Exp(p.CondSigma * s.Normal())}
	}
	m.sectors[sector] = ps
	return ps
}

// TauAt returns cell i of sector's RESET crossing time (µs) at the
// given conditioning wear and storage age.
func (m *Model) TauAt(sector, i int, wear, ageYears float64) float64 {
	cp := m.sectorParams(sector)[i]
	p := m.params
	tau := cp.tauBase + p.DriftUsPerYear*ageYears
	if wear > 0 {
		// Go multiplies left to right, so the power can be computed
		// apart and the product keeps every bit.
		tau += p.CondCoefUs * cp.cond * m.condPow(wear)
	}
	return tau
}

// condPow returns math.Pow(wear/1000, CondPower), from the memo when it
// holds wear and evaluated into its oldest entry otherwise.
func (m *Model) condPow(wear float64) float64 {
	key := math.Float64bits(wear)
	for i := range m.pow {
		if e := &m.pow[i]; e.wear == key {
			return e.pow
		}
	}
	m.pows++
	v := math.Pow(wear/1000, m.params.CondPower)
	m.pow[m.powNext] = powEntry{wear: key, pow: v}
	m.powNext = (m.powNext + 1) % powMemo
	return v
}

// SampleRead samples a metastable cell at the given margin (µs past
// its crossing point): the read-disturb channel of the paper's sensing
// step. It takes one draw from the device noise stream and reads HRS
// with probability mathx.LogisticCDF(margin, ReadNoiseSigmaUs), decided
// from the logistic bound table.
func (m *Model) SampleRead(margin float64, noise *rng.Stream) bool {
	return mathx.LogisticDraw(noise.Float64(), margin, m.params.ReadNoiseSigmaUs)
}

// Worn reports whether a cell's conditioning wear exceeds the
// datasheet endurance.
func (m *Model) Worn(wear float64) bool { return wear > m.params.EnduranceCycles }

// ResetWear returns the per-RESET conditioning increment.
func (m *Model) ResetWear(wasLRS bool) float64 {
	if wasLRS {
		return m.params.ResetWearFull
	}
	return m.params.ResetWearHRS
}

// SetWear returns the per-SET conditioning increment.
func (m *Model) SetWear() float64 { return m.params.SetWear }
