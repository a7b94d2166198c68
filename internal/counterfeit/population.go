package counterfeit

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"github.com/flashmark/flashmark/internal/parallel"
)

// PopulationSpec says how many chips of each class flow through the
// verifier in a supply-chain experiment.
type PopulationSpec map[ChipClass]int

// Outcome is one chip's ground truth and classification.
type Outcome struct {
	Class   ChipClass
	Verdict Verdict
	Result  Result
}

// ConfusionMatrix tallies verdicts per ground-truth class.
type ConfusionMatrix struct {
	Counts map[ChipClass]map[Verdict]int
	Total  int
}

// Add records one outcome.
func (m *ConfusionMatrix) Add(class ChipClass, verdict Verdict) {
	if m.Counts == nil {
		m.Counts = make(map[ChipClass]map[Verdict]int)
	}
	row := m.Counts[class]
	if row == nil {
		row = make(map[Verdict]int)
		m.Counts[class] = row
	}
	row[verdict]++
	m.Total++
}

// CorrectAcceptRate returns the fraction of chips whose accept/refuse
// decision matched the ground truth (the headline supply-chain metric:
// counterfeits refused, genuine chips accepted).
func (m *ConfusionMatrix) CorrectAcceptRate() float64 {
	if m.Total == 0 {
		return 0
	}
	correct := 0
	for class, row := range m.Counts {
		for verdict, n := range row {
			if verdict.Accepted() == class.ShouldAccept() {
				correct += n
			}
		}
	}
	return float64(correct) / float64(m.Total)
}

// FalseAccepts counts counterfeit chips the verifier accepted.
func (m *ConfusionMatrix) FalseAccepts() int {
	n := 0
	for class, row := range m.Counts {
		if class.ShouldAccept() {
			continue
		}
		for verdict, c := range row {
			if verdict.Accepted() {
				n += c
			}
		}
	}
	return n
}

// FalseRejects counts genuine chips the verifier refused.
func (m *ConfusionMatrix) FalseRejects() int {
	n := 0
	for class, row := range m.Counts {
		if !class.ShouldAccept() {
			continue
		}
		for verdict, c := range row {
			if !verdict.Accepted() {
				n += c
			}
		}
	}
	return n
}

// String renders the matrix as an aligned table.
func (m *ConfusionMatrix) String() string {
	var classes []ChipClass
	for c := range m.Counts {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	var b strings.Builder
	for _, c := range classes {
		row := m.Counts[c]
		var verdicts []Verdict
		for v := range row {
			verdicts = append(verdicts, v)
		}
		sort.Slice(verdicts, func(i, j int) bool { return verdicts[i] < verdicts[j] })
		fmt.Fprintf(&b, "%-18s", c)
		for _, v := range verdicts {
			fmt.Fprintf(&b, " %s=%d", v, row[v])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// populationJob is one chip's deterministic identity within a
// population run: its class, derived seed and die number.
type populationJob struct {
	class ChipClass
	seed  uint64
	die   uint64
}

// populationJobs expands the spec into the flat, deterministically
// ordered job list shared by the serial and parallel runners: classes
// sort ascending, dies number sequentially from 1001, and chip seeds
// derive from seedBase via the class tag and parallel.SubSeed.
func populationJobs(spec PopulationSpec, seedBase uint64) []populationJob {
	var classes []ChipClass
	for c := range spec {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	var jobs []populationJob
	die := uint64(1000)
	for _, class := range classes {
		for i := 0; i < spec[class]; i++ {
			die++
			jobs = append(jobs, populationJob{
				class: class,
				seed:  parallel.SubSeed(seedBase^(uint64(class)<<32), uint64(i)),
				die:   die,
			})
		}
	}
	return jobs
}

// RunPopulation fabricates the specified population and verifies every
// chip, returning the confusion matrix and per-chip outcomes. Chip seeds
// derive deterministically from seedBase, so runs are reproducible.
func RunPopulation(spec PopulationSpec, cfg FactoryConfig, verifier *Verifier, seedBase uint64) (*ConfusionMatrix, []Outcome, error) {
	return RunPopulationContext(context.Background(), spec, cfg, verifier, seedBase, 1)
}

// RunPopulationContext fabricates and verifies the population with up
// to `workers` chips in flight (0 selects GOMAXPROCS) on the parallel
// engine. Chips are independent, deterministically seeded simulations
// and outcomes are collected by job index, so the matrix and outcome
// list are identical for every worker count — only wall-clock time
// improves. Once ctx is done no further chips are fabricated or
// verified, in-flight chips finish, and the run returns the
// cancellation error. The verifier must not carry an Auditor when
// workers != 1: duplicate detection is order-dependent and belongs in
// a serial pass.
func RunPopulationContext(ctx context.Context, spec PopulationSpec, cfg FactoryConfig, verifier *Verifier, seedBase uint64, workers int) (*ConfusionMatrix, []Outcome, error) {
	if verifier.Audit != nil && workers != 1 {
		return nil, nil, fmt.Errorf("counterfeit: parallel population runs cannot use a die-ID auditor (order-dependent); run the audit pass serially")
	}
	jobs := populationJobs(spec, seedBase)
	outcomes, err := parallel.MapContext(ctx, parallel.Pool{Workers: workers}, len(jobs), func(i int) (Outcome, error) {
		j := jobs[i]
		dev, err := Fabricate(j.class, cfg, j.seed, j.die)
		if err != nil {
			return Outcome{}, fmt.Errorf("counterfeit: fabricating %s chip (die %d): %w", j.class, j.die, err)
		}
		res, err := verifier.VerifyContext(ctx, dev)
		if err != nil {
			return Outcome{}, fmt.Errorf("counterfeit: verifying %s chip (die %d): %w", j.class, j.die, err)
		}
		return Outcome{Class: j.class, Verdict: res.Verdict, Result: res}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	var matrix ConfusionMatrix
	for _, o := range outcomes {
		matrix.Add(o.Class, o.Verdict)
	}
	return &matrix, outcomes, nil
}
