// Package experiment regenerates every table and figure of the paper's
// evaluation (§III and §V) against the simulated substrate. Each
// experiment is a pure function of its Config (deterministic seeds), and
// returns renderable tables/plots plus structured numbers that tests and
// benchmarks assert on. The per-experiment index lives in DESIGN.md;
// paper-vs-measured records live in EXPERIMENTS.md.
package experiment

import (
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/flashmark/flashmark/internal/device"
	"github.com/flashmark/flashmark/internal/mcu"
	"github.com/flashmark/flashmark/internal/parallel"
	"github.com/flashmark/flashmark/internal/report"
)

// Config parameterizes an experiment run.
type Config struct {
	// Part selects the simulated microcontroller (zero value selects the
	// compact FM-SIM16 part; all parts share physics and timing).
	Part mcu.Part
	// Seed is the base chip seed; distinct experiments derive their own
	// sub-seeds via parallel.SubSeed. Zero is a SENTINEL meaning "use the
	// fixed default 0xF1A5_0001" so published numbers are reproducible —
	// an explicit zero seed is therefore unreachable by design; callers
	// who need a different chip population must pass a nonzero seed.
	Seed uint64
	// Fast trades sweep resolution for speed (used by tests); the full
	// configuration reproduces the paper's resolution.
	Fast bool
	// Workers bounds how many independent devices an experiment simulates
	// concurrently; zero selects GOMAXPROCS and 1 forces the exact serial
	// execution. Artifacts are byte-identical for every worker count:
	// each device is its own deterministically seeded simulation and
	// results are assembled by index (see internal/parallel).
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Part.Name == "" {
		c.Part = mcu.PartSmallSim()
	}
	if c.Seed == 0 {
		c.Seed = 0xF1A5_0001
	}
	return c
}

func (c Config) newDevice(sub uint64) (device.Device, error) {
	return mcu.Open(c.Part, parallel.SubSeed(c.Seed, sub))
}

// pool returns the fan-out engine bounded by the Workers knob.
func (c Config) pool() parallel.Pool {
	return parallel.Pool{Workers: c.Workers}
}

// Artifact is the renderable output of one experiment.
type Artifact struct {
	ID     string // e.g. "fig4"
	Title  string
	Tables []report.Table
	Plots  []report.Plot
}

// WriteText renders every table and plot of the artifact.
func (a *Artifact) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "==== %s: %s ====\n\n", a.ID, a.Title); err != nil {
		return err
	}
	for i := range a.Tables {
		if err := a.Tables[i].WriteText(w); err != nil {
			return err
		}
	}
	for i := range a.Plots {
		if err := a.Plots[i].WriteText(w); err != nil {
			return err
		}
	}
	return nil
}

// Runner executes one experiment.
type Runner func(Config) (*Artifact, error)

// registry of experiments by id, populated by each experiment file.
var registry = map[string]Runner{}

func register(id string, r Runner) {
	registry[id] = r
}

// IDs returns the registered experiment ids in stable order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes the experiment with the given id.
func Run(id string, cfg Config) (*Artifact, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiment: unknown id %q (have %v)", id, IDs())
	}
	return r(cfg)
}

// us formats a duration in microseconds for tables.
func us(d time.Duration) float64 {
	return float64(d) / float64(time.Microsecond)
}
