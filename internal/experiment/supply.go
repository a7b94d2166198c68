package experiment

import (
	"time"

	"github.com/flashmark/flashmark/internal/baseline"
	"github.com/flashmark/flashmark/internal/counterfeit"
	"github.com/flashmark/flashmark/internal/mcu"
	"github.com/flashmark/flashmark/internal/parallel"
	"github.com/flashmark/flashmark/internal/report"
	"github.com/flashmark/flashmark/internal/wmcode"
)

func init() { register("supplychain", RunSupplyChain) }

// SupplyResult is the structured outcome of the supply-chain experiment.
type SupplyResult struct {
	Artifact *Artifact
	Matrix   *counterfeit.ConfusionMatrix
	// BaselineFalseAccepts counts counterfeits each baseline accepted.
	MetadataFalseAccepts    int
	EraseTimingFalseAccepts int
	// FlashmarkFalseAccepts counts counterfeits Flashmark accepted
	// (the replay-imprint residual risk lands here by design).
	FlashmarkFalseAccepts int
	FlashmarkFalseRejects int
	// AuditCaughtClone reports whether the batch die-ID audit refused the
	// replay clone that physics alone passed.
	AuditCaughtClone bool
}

// SupplyChain runs a mixed chip population through Flashmark verification
// and the prior-work comparators, quantifying the §I claims: current
// practice (metadata) is forgeable, usage-based detectors catch only
// recycling, and Flashmark catches re-entered rejects, forgeries, clones
// and rebrands (with replay imprinting as the honest residual risk).
func SupplyChain(cfg Config) (*SupplyResult, error) {
	cfg = cfg.withDefaults()
	perClass := 3
	if cfg.Fast {
		perClass = 1
	}
	key := []byte("trusted-chipmaker-signing-key")
	factory := counterfeit.FactoryConfig{
		Fab:          mcu.Fab(cfg.Part),
		Codec:        wmcode.Codec{Key: key},
		Manufacturer: "TC",
	}
	verifier := &counterfeit.Verifier{
		Codec:          wmcode.Codec{Key: key},
		Manufacturer:   "TC",
		TPEW:           25 * time.Microsecond,
		CheckRecycling: true,
		Audit:          counterfeit.NewAuditor(),
	}
	spec := counterfeit.PopulationSpec{
		counterfeit.ClassGenuineAccept:   perClass,
		counterfeit.ClassGenuineReject:   perClass,
		counterfeit.ClassRecycled:        perClass,
		counterfeit.ClassMetadataForgery: perClass,
		counterfeit.ClassDigitalClone:    perClass,
		counterfeit.ClassTopUpTamper:     perClass,
		counterfeit.ClassUnmarked:        perClass,
		counterfeit.ClassReplayImprint:   1,
	}
	matrix, outcomes, err := counterfeit.RunPopulation(spec, factory, verifier, cfg.Seed)
	if err != nil {
		return nil, err
	}
	res := &SupplyResult{
		Matrix:                matrix,
		FlashmarkFalseAccepts: matrix.FalseAccepts(),
		FlashmarkFalseRejects: matrix.FalseRejects(),
	}

	// Baseline comparators over the same population. Fabrication is
	// deterministic, so rebuilding each chip gives the comparators
	// pristine copies (the verifier's extraction already consumed the
	// original's segment content, which baselines would misread).
	mtbl := report.Table{
		Title:   "TAB-SUPPLY — per-chip verdicts: Flashmark vs prior work",
		Columns: []string{"chip class", "flashmark verdict", "metadata check", "erase-timing [7]", "should accept"},
	}
	eraseDet := &baseline.EraseTimingDetector{}
	die := uint64(1000)
	reIndex := map[counterfeit.ChipClass]int{}
	for _, o := range outcomes {
		i := reIndex[o.Class]
		reIndex[o.Class] = i + 1
		seed := parallel.SubSeed(cfg.Seed^(uint64(o.Class)<<32), uint64(i))
		die++
		dev, err := counterfeit.Fabricate(o.Class, factory, seed, die)
		if err != nil {
			return nil, err
		}
		_, metaOK, err := baseline.MetadataCheck(dev, 0, wmcode.Codec{Key: key}, 7)
		if err != nil {
			metaOK = false
		}
		segAddr := cfg.Part.Geometry.SegmentBytes
		assess, err := eraseDet.Assess(dev, segAddr)
		if err != nil {
			return nil, err
		}
		baselineVerdict := "accept"
		if assess.UsedFlash {
			baselineVerdict = "refuse (used)"
		}
		metaVerdict := "accept"
		if !metaOK {
			metaVerdict = "refuse"
		}
		if metaOK && !o.Class.ShouldAccept() {
			res.MetadataFalseAccepts++
		}
		if !assess.UsedFlash && !o.Class.ShouldAccept() {
			res.EraseTimingFalseAccepts++
		}
		mtbl.AddRow(o.Class.String(), o.Verdict.String(), metaVerdict, baselineVerdict, o.Class.ShouldAccept())
	}
	mtbl.AddNote("metadata check false-accepts: %d; erase-timing false-accepts: %d; Flashmark false-accepts: %d (replay-imprint residual risk)",
		res.MetadataFalseAccepts, res.EraseTimingFalseAccepts, res.FlashmarkFalseAccepts)

	// Audit epilogue: a replay victim/clone pair flowing through the same
	// batch — the clone carries the victim's die ID and is refused.
	victim, err := counterfeit.Fabricate(counterfeit.ClassGenuineAccept, factory, cfg.Seed^0xD1E, 99_001)
	if err != nil {
		return nil, err
	}
	clone, err := counterfeit.Fabricate(counterfeit.ClassReplayImprint, factory, cfg.Seed^0xD1F, 99_001)
	if err != nil {
		return nil, err
	}
	vres, err := verifier.Verify(victim)
	if err != nil {
		return nil, err
	}
	cres, err := verifier.Verify(clone)
	if err != nil {
		return nil, err
	}
	mtbl.AddRow("replay victim (die 99001)", vres.Verdict.String(), "accept", "accept", true)
	mtbl.AddRow("replay clone (die 99001)", cres.Verdict.String(), "accept", "accept", false)
	mtbl.AddNote("batch die-ID audit: duplicates flagged = %v", verifier.Audit.Duplicates())
	res.AuditCaughtClone = cres.Verdict == counterfeit.VerdictDuplicateID

	ctbl := report.Table{
		Title:   "TAB-SUPPLY — Flashmark confusion matrix",
		Columns: []string{"ground truth \\ verdicts", "counts"},
	}
	for _, line := range splitLines(matrix.String()) {
		if line != "" {
			ctbl.AddRow(line, "")
		}
	}
	ctbl.AddNote("correct accept/refuse rate: %.1f%%; false accepts %d; false rejects %d",
		100*matrix.CorrectAcceptRate(), matrix.FalseAccepts(), matrix.FalseRejects())

	res.Artifact = &Artifact{
		ID:     "supplychain",
		Title:  "Supply-chain verification: Flashmark vs current practice and prior work",
		Tables: []report.Table{mtbl, ctbl},
	}
	return res, nil
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// RunSupplyChain adapts SupplyChain to the registry.
func RunSupplyChain(cfg Config) (*Artifact, error) {
	res, err := SupplyChain(cfg)
	if err != nil {
		return nil, err
	}
	return res.Artifact, nil
}
