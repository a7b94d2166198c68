// Command flashmark operates on simulated chips stored in chip files —
// the workflows a manufacturer (imprint) and a system integrator
// (extract/verify) would run against real silicon.
//
// Usage:
//
//	flashmark new -chip die1.chip -part MSP430F5438 -seed 42
//	flashmark new -chip nand1.chip -backend nand -seed 7
//	flashmark new -chip rram1.chip -backend reram -seed 9
//	flashmark imprint -chip die1.chip -mfg TC -die 1001 -status accept -npe 80000 -key secret
//	flashmark extract -chip die1.chip -tpew 25us
//	flashmark verify -chip die1.chip -mfg TC -key secret
//	flashmark characterize -chip die1.chip -segment 1
//	flashmark detect -chip die1.chip -segment 1 -tpew 25us
//	flashmark info -chip die1.chip
//
// The chip file carries the die's physical identity (seed), per-cell wear
// and analog state, so repeated invocations behave like repeated bench
// sessions with one physical chip. Chip files self-describe their
// backend ("flashmark-chip" for NOR parts, "flashmark-nand-chip" for the
// NAND adapter, "flashmark-reram-chip" for the ReRAM backend), so every
// command after `new` works on any substrate unchanged; capabilities a
// backend lacks (wear maps, aging, VCD traces) fail with an explicit
// message instead of silently degrading.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/flashmark/flashmark/internal/buildinfo"
	"github.com/flashmark/flashmark/internal/chipfile"
	"github.com/flashmark/flashmark/internal/core"
	"github.com/flashmark/flashmark/internal/counterfeit"
	"github.com/flashmark/flashmark/internal/device"
	"github.com/flashmark/flashmark/internal/floatgate"
	"github.com/flashmark/flashmark/internal/mcu"
	"github.com/flashmark/flashmark/internal/nand"
	"github.com/flashmark/flashmark/internal/reram"
	"github.com/flashmark/flashmark/internal/vclock"
	"github.com/flashmark/flashmark/internal/wmcode"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "flashmark:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: flashmark <new|imprint|extract|verify|characterize|detect|info> [flags]")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "version", "-version", "--version":
		fmt.Fprintln(out, buildinfo.String("flashmark"))
		return nil
	case "new":
		return cmdNew(rest, out)
	case "imprint":
		return cmdImprint(rest, out)
	case "extract":
		return cmdExtract(rest, out)
	case "verify":
		return cmdVerify(rest, out)
	case "characterize":
		return cmdCharacterize(rest, out)
	case "detect":
		return cmdDetect(rest, out)
	case "info":
		return cmdInfo(rest, out)
	case "calibrate":
		return cmdCalibrate(rest, out)
	case "age":
		return cmdAge(rest, out)
	case "map":
		return cmdMap(rest, out)
	case "batch":
		return cmdBatch(rest, out)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// cmdBatch verifies every chip file in a directory with a shared batch
// audit: the integrator's incoming-inspection workflow over a whole
// shipment, including duplicate-die-ID detection.
func cmdBatch(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("batch", flag.ContinueOnError)
	dir := fs.String("dir", "", "directory of .chip files (required)")
	mfg := fs.String("mfg", "TC", "expected manufacturer")
	key := fs.String("key", "", "verification key")
	tpew := fs.Duration("tpew", 25*time.Microsecond, "partial erase time")
	replicas := fs.Int("replicas", 7, "replica count used at imprint")
	checkRecycling := fs.Bool("recycling", true, "screen data segments for prior use")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("batch: -dir is required")
	}
	entries, err := os.ReadDir(*dir)
	if err != nil {
		return err
	}
	v := &counterfeit.Verifier{
		Codec:          wmcode.Codec{Key: []byte(*key)},
		Manufacturer:   *mfg,
		TPEW:           *tpew,
		Replicas:       *replicas,
		CheckRecycling: *checkRecycling,
		Audit:          counterfeit.NewAuditor(),
	}
	accepted, refused := 0, 0
	fmt.Fprintf(out, "%-24s %-16s %s\n", "chip file", "verdict", "decision")
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".chip") {
			continue
		}
		path := filepath.Join(*dir, e.Name())
		dev, err := loadChip(path)
		if err != nil {
			return fmt.Errorf("batch: %s: %w", e.Name(), err)
		}
		res, err := v.Verify(dev)
		if err != nil {
			return fmt.Errorf("batch: %s: %w", e.Name(), err)
		}
		if err := saveChip(dev, path); err != nil {
			return err
		}
		decision := "REFUSE"
		if res.Verdict.Accepted() {
			decision = "accept"
			accepted++
		} else {
			refused++
		}
		fmt.Fprintf(out, "%-24s %-16s %s\n", e.Name(), res.Verdict, decision)
	}
	if accepted+refused == 0 {
		return fmt.Errorf("batch: no .chip files in %s", *dir)
	}
	fmt.Fprintf(out, "\naccepted %d, refused %d\n", accepted, refused)
	if dups := v.Audit.Duplicates(); len(dups) > 0 {
		fmt.Fprintf(out, "duplicate die IDs in batch (replay suspects, including first-seen): %v\n", dups)
	}
	return nil
}

// cmdMap renders the chip's per-segment mean wear as a heat strip —
// a quick visual of where the watermark and any prior-life usage sit.
func cmdMap(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("map", flag.ContinueOnError)
	chip := fs.String("chip", "", "chip file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *chip == "" {
		return fmt.Errorf("map: -chip is required")
	}
	dev, err := loadChip(*chip)
	if err != nil {
		return err
	}
	geom := dev.Geometry()
	insp, ok := device.As[device.WearInspector](dev)
	if !ok {
		return fmt.Errorf("map: %s does not expose wear inspection", dev.PartName())
	}
	ramp := []byte(" .:-=+*#%@")
	endurance := insp.EnduranceCycles()
	fmt.Fprintf(out, "wear map (%d segments, @ = >= endurance %d cycles):\n", geom.TotalSegments(), int(endurance))
	for bank := 0; bank < geom.Banks; bank++ {
		fmt.Fprintf(out, "bank %d: [", bank)
		for s := 0; s < geom.SegmentsPerBank; s++ {
			seg := bank*geom.SegmentsPerBank + s
			_, meanW, _, err := insp.SegmentWearSummary(seg)
			if err != nil {
				return err
			}
			idx := int(meanW / endurance * float64(len(ramp)-1))
			if idx >= len(ramp) {
				idx = len(ramp) - 1
			}
			if idx < 0 {
				idx = 0
			}
			fmt.Fprintf(out, "%c", ramp[idx])
		}
		fmt.Fprintln(out, "]")
	}
	return nil
}

func cmdCalibrate(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("calibrate", flag.ContinueOnError)
	partName := fs.String("part", "FM-SIM16", "part family to calibrate")
	npe := fs.Int("npe", 80_000, "production imprint cycles")
	dice := fs.Int("dice", 3, "number of reference dice")
	seed := fs.Uint64("seed", 0x9000, "base seed for reference dice")
	if err := fs.Parse(args); err != nil {
		return err
	}
	part, err := mcu.PartByName(*partName)
	if err != nil {
		return err
	}
	if *dice <= 0 {
		return fmt.Errorf("calibrate: -dice must be positive")
	}
	seeds := make([]uint64, *dice)
	for i := range seeds {
		seeds[i] = *seed + uint64(i)
	}
	fmt.Fprintf(out, "calibrating %s at N_PE=%d on %d reference dice...\n", part.Name, *npe, *dice)
	cal, err := core.Calibrate(mcu.Fab(part), seeds, *npe, core.CalibrateOptions{})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "publish: t_PEW window [%v, %v], best %v (BER %.2f%%)\n",
		cal.WindowLo, cal.WindowHi, cal.Best, 100*cal.BestBER)
	fmt.Fprintf(out, "%-12s %s\n", "t_PEW", "BER (%)")
	for _, p := range cal.Points {
		fmt.Fprintf(out, "%-12v %.2f\n", p.TPEW, 100*p.BER)
	}
	return nil
}

func cmdAge(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("age", flag.ContinueOnError)
	chip := fs.String("chip", "", "chip file (required)")
	years := fs.Float64("years", 1, "total unpowered storage age in years")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *chip == "" {
		return fmt.Errorf("age: -chip is required")
	}
	dev, err := loadChip(*chip)
	if err != nil {
		return err
	}
	if err := device.Age(dev, *years); err != nil {
		return err
	}
	if err := saveChip(dev, *chip); err != nil {
		return err
	}
	ager, _ := device.As[device.Ager](dev)
	fmt.Fprintf(out, "chip aged to %.1f years of unpowered storage\n", ager.AgeYears())
	return nil
}

// loadChip reads a chip file of any backend.
func loadChip(path string) (device.Device, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dev, err := new(chipfile.Loader).Load(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return dev, nil
}

func saveChip(dev device.Device, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := dev.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func cmdNew(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("new", flag.ContinueOnError)
	chip := fs.String("chip", "", "chip file to create (required)")
	backend := fs.String("backend", "nor", "flash substrate: nor, nand or reram")
	partName := fs.String("part", "FM-SIM16", "part name (NOR backend)")
	seed := fs.Uint64("seed", 1, "die physical identity seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *chip == "" {
		return fmt.Errorf("new: -chip is required")
	}
	var dev device.Device
	switch *backend {
	case "nor":
		part, err := mcu.PartByName(*partName)
		if err != nil {
			return err
		}
		dev, err = mcu.Open(part, *seed)
		if err != nil {
			return err
		}
	case "nand":
		var err error
		dev, err = nand.Open(nand.SmallNAND(), nand.SLCTiming(), floatgate.DefaultParams(), *seed)
		if err != nil {
			return err
		}
	case "reram":
		var err error
		dev, err = reram.Open(reram.DefaultGeometry(), reram.OxRAMTiming(), reram.DefaultParams(), *seed)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("new: unknown backend %q (have nor, nand, reram)", *backend)
	}
	if err := saveChip(dev, *chip); err != nil {
		return err
	}
	fmt.Fprintf(out, "fabricated %s die (seed %d) -> %s\n", dev.PartName(), *seed, *chip)
	return nil
}

func cmdImprint(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("imprint", flag.ContinueOnError)
	chip := fs.String("chip", "", "chip file (required)")
	seg := fs.Int("segment", 0, "watermark segment index")
	mfg := fs.String("mfg", "TC", "manufacturer identifier (up to 8 chars)")
	die := fs.Uint64("die", 1, "die identifier")
	status := fs.String("status", "accept", "die-sort status: accept or reject")
	speed := fs.Uint("speed", 2, "speed grade")
	npe := fs.Int("npe", 80_000, "imprint stress cycles")
	replicas := fs.Int("replicas", 7, "watermark replicas (odd)")
	key := fs.String("key", "", "signing key (empty = unsigned)")
	baselineErase := fs.Bool("baseline-erase", false, "use nominal-time erases (no accelerated early exit)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *chip == "" {
		return fmt.Errorf("imprint: -chip is required")
	}
	dev, err := loadChip(*chip)
	if err != nil {
		return err
	}
	var st wmcode.Status
	switch *status {
	case "accept":
		st = wmcode.StatusAccept
	case "reject":
		st = wmcode.StatusReject
	default:
		return fmt.Errorf("imprint: status must be accept or reject, got %q", *status)
	}
	codec := wmcode.Codec{Key: []byte(*key)}
	payload, err := codec.Encode(wmcode.Payload{
		Manufacturer: *mfg,
		DieID:        *die,
		SpeedGrade:   uint8(*speed),
		Status:       st,
		YearWeek:     2627,
	})
	if err != nil {
		return err
	}
	geom := dev.Geometry()
	img, err := core.Replicate(payload, *replicas, geom.WordsPerSegment())
	if err != nil {
		return err
	}
	addr, err := geom.AddrOfSegment(*seg)
	if err != nil {
		return err
	}
	before := dev.Clock().Now()
	err = core.ImprintSegment(dev, addr, img, core.ImprintOptions{NPE: *npe, Accelerated: !*baselineErase})
	if err != nil {
		return err
	}
	if err := saveChip(dev, *chip); err != nil {
		return err
	}
	fmt.Fprintf(out, "imprinted %s/%s die=%d (N_PE=%d, %d replicas) in %v of device time\n",
		*mfg, st, *die, *npe, *replicas, dev.Clock().Now()-before)
	return nil
}

func cmdExtract(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("extract", flag.ContinueOnError)
	chip := fs.String("chip", "", "chip file (required)")
	seg := fs.Int("segment", 0, "watermark segment index")
	tpew := fs.Duration("tpew", 25*time.Microsecond, "partial erase time")
	reads := fs.Int("reads", 3, "majority reads (odd)")
	replicas := fs.Int("replicas", 7, "replica count used at imprint")
	key := fs.String("key", "", "verification key")
	vcd := fs.String("vcd", "", "write the extraction's flash-operation waveform to this VCD file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *chip == "" {
		return fmt.Errorf("extract: -chip is required")
	}
	dev, err := loadChip(*chip)
	if err != nil {
		return err
	}
	geom := dev.Geometry()
	addr, err := geom.AddrOfSegment(*seg)
	if err != nil {
		return err
	}
	var trace *vclock.Trace
	if *vcd != "" {
		tr, ok := device.As[device.Tracer](dev)
		if !ok {
			return fmt.Errorf("extract: %s does not support operation traces", dev.PartName())
		}
		trace = vclock.NewTrace(0)
		tr.SetTrace(trace)
	}
	words, err := core.ExtractSegment(dev, addr, core.ExtractOptions{TPEW: *tpew, Reads: *reads, HostReadout: true})
	if err != nil {
		return err
	}
	if trace != nil {
		f, ferr := os.Create(*vcd)
		if ferr != nil {
			return ferr
		}
		werr := trace.WriteVCD(f, "flashmark_extract")
		cerr := f.Close()
		if werr != nil {
			return werr
		}
		if cerr != nil {
			return cerr
		}
		fmt.Fprintf(out, "operation waveform written to %s\n", *vcd)
	}
	if err := saveChip(dev, *chip); err != nil {
		return err
	}
	codec := wmcode.Codec{Key: []byte(*key)}
	views, err := core.ReplicaViews(words, codec.PayloadWords(), *replicas)
	if err != nil {
		return err
	}
	payload, rep, derr := codec.DecodeReplicas(views)
	if derr != nil {
		fmt.Fprintf(out, "no decodable watermark: %v\n", derr)
		return nil
	}
	fmt.Fprintf(out, "manufacturer: %s\ndie id:       %d\nspeed grade:  %d\nstatus:       %s\ndate code:    %d\n",
		payload.Manufacturer, payload.DieID, payload.SpeedGrade, payload.Status, payload.YearWeek)
	fmt.Fprintf(out, "integrity:    crc=%v signed=%v signatureOK=%v inconsistentBits=%d tampered=%v\n",
		rep.CRCOK, rep.Signed, rep.SignatureOK, rep.InconsistentBits, rep.Tampered())
	return nil
}

func cmdVerify(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	chip := fs.String("chip", "", "chip file (required)")
	seg := fs.Int("segment", 0, "watermark segment index")
	mfg := fs.String("mfg", "TC", "expected manufacturer")
	key := fs.String("key", "", "verification key")
	tpew := fs.Duration("tpew", 25*time.Microsecond, "partial erase time")
	replicas := fs.Int("replicas", 7, "replica count used at imprint")
	checkRecycling := fs.Bool("recycling", true, "screen data segments for prior use")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *chip == "" {
		return fmt.Errorf("verify: -chip is required")
	}
	dev, err := loadChip(*chip)
	if err != nil {
		return err
	}
	geom := dev.Geometry()
	addr, err := geom.AddrOfSegment(*seg)
	if err != nil {
		return err
	}
	v := &counterfeit.Verifier{
		Codec:          wmcode.Codec{Key: []byte(*key)},
		Manufacturer:   *mfg,
		SegAddr:        addr,
		TPEW:           *tpew,
		Replicas:       *replicas,
		CheckRecycling: *checkRecycling,
	}
	res, err := v.Verify(dev)
	if err != nil {
		return err
	}
	if err := saveChip(dev, *chip); err != nil {
		return err
	}
	fmt.Fprintf(out, "verdict: %s\n", res.Verdict)
	if res.DecodeErr == nil {
		fmt.Fprintf(out, "payload: %s die=%d status=%s\n", res.Payload.Manufacturer, res.Payload.DieID, res.Payload.Status)
	}
	if res.SampledDataSegments > 0 {
		fmt.Fprintf(out, "wear screen: %d of %d sampled data segments worn\n", res.WornDataSegments, res.SampledDataSegments)
	}
	if !res.Verdict.Accepted() {
		fmt.Fprintln(out, "decision: REFUSE")
	} else {
		fmt.Fprintln(out, "decision: ACCEPT")
	}
	return nil
}

func cmdCharacterize(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("characterize", flag.ContinueOnError)
	chip := fs.String("chip", "", "chip file (required)")
	seg := fs.Int("segment", 0, "segment index")
	step := fs.Duration("step", 2*time.Microsecond, "partial erase time step")
	reads := fs.Int("reads", 3, "majority reads (odd)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *chip == "" {
		return fmt.Errorf("characterize: -chip is required")
	}
	dev, err := loadChip(*chip)
	if err != nil {
		return err
	}
	geom := dev.Geometry()
	addr, err := geom.AddrOfSegment(*seg)
	if err != nil {
		return err
	}
	points, err := core.CharacterizeSegment(dev, addr, core.CharacterizeOptions{Step: *step, Reads: *reads})
	if err != nil {
		return err
	}
	if err := saveChip(dev, *chip); err != nil {
		return err
	}
	fmt.Fprintf(out, "%-12s %-8s %-8s\n", "t_PE", "cells_0", "cells_1")
	for _, p := range points {
		fmt.Fprintf(out, "%-12v %-8d %-8d\n", p.TPE, p.Cells0, p.Cells1)
	}
	if at, ok := core.AllErasedTime(points); ok {
		fmt.Fprintf(out, "all cells erased at t_PE >= %v\n", at)
	}
	return nil
}

func cmdDetect(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("detect", flag.ContinueOnError)
	chip := fs.String("chip", "", "chip file (required)")
	seg := fs.Int("segment", 1, "data segment index to probe")
	tpew := fs.Duration("tpew", 25*time.Microsecond, "partial erase time")
	reads := fs.Int("reads", 3, "majority reads (odd)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *chip == "" {
		return fmt.Errorf("detect: -chip is required")
	}
	dev, err := loadChip(*chip)
	if err != nil {
		return err
	}
	geom := dev.Geometry()
	addr, err := geom.AddrOfSegment(*seg)
	if err != nil {
		return err
	}
	programmed, err := core.DetectStress(dev, addr, *tpew, *reads)
	if err != nil {
		return err
	}
	if err := saveChip(dev, *chip); err != nil {
		return err
	}
	cells := geom.CellsPerSegment()
	frac := float64(programmed) / float64(cells)
	fmt.Fprintf(out, "segment %d: %d of %d cells still programmed at %v (%.1f%%)\n", *seg, programmed, cells, *tpew, 100*frac)
	if frac > 0.04 {
		fmt.Fprintln(out, "assessment: WORN (prior heavy use)")
	} else {
		fmt.Fprintln(out, "assessment: fresh")
	}
	return nil
}

func cmdInfo(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("info", flag.ContinueOnError)
	chip := fs.String("chip", "", "chip file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *chip == "" {
		return fmt.Errorf("info: -chip is required")
	}
	dev, err := loadChip(*chip)
	if err != nil {
		return err
	}
	geom := dev.Geometry()
	fmt.Fprintf(out, "part:     %s\nseed:     %d\nflash:    %d banks x %d segments x %d B (%d KB)\n",
		dev.PartName(), dev.Seed(), geom.Banks, geom.SegmentsPerBank, geom.SegmentBytes, geom.TotalBytes()/1024)
	if ager, ok := device.As[device.Ager](dev); ok && ager.AgeYears() > 0 {
		fmt.Fprintf(out, "age:      %.1f years of unpowered storage\n", ager.AgeYears())
	}
	insp, ok := device.As[device.WearInspector](dev)
	if !ok {
		return fmt.Errorf("info: %s does not expose wear inspection", dev.PartName())
	}
	fmt.Fprintf(out, "%-8s %-12s %-12s %-12s %s\n", "segment", "min wear", "mean wear", "max wear", "worn cells")
	for seg := 0; seg < geom.TotalSegments(); seg++ {
		minW, meanW, maxW, err := insp.SegmentWearSummary(seg)
		if err != nil {
			return err
		}
		if maxW == 0 {
			continue
		}
		addr, err := geom.AddrOfSegment(seg)
		if err != nil {
			return err
		}
		worn, err := insp.WornCellCount(addr)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%-8d %-12.1f %-12.1f %-12.1f %d\n", seg, minW, meanW, maxW, worn)
	}
	return nil
}
