// Command fmloadgen is the synthetic-fleet load harness for fmverifyd:
// it fabricates a chip population (genuine stock, replay-imprint clones
// sharing victims' die ids, and assorted counterfeits), derives a
// Poisson request schedule from a seed, and drives a live daemon over
// HTTP with bounded open-loop concurrency. The measured SLOs — verify
// latency percentiles, sustained verifies/sec, enroll throughput, shed
// rate — are written as BENCH_service.json (schema
// flashmark-bench-service/v1), which scripts/loadgen_slo.sh gates
// against its SLO bands.
//
// Usage:
//
//	fmloadgen -target http://127.0.0.1:8900 -key secret -rate 150 -duration 10s -out BENCH_service.json
//	fmloadgen -seed 7 -plan-only        # print the schedule digest without sending anything
//	fmloadgen -version
//
// Reproducibility: every stochastic choice (arrival times, op mix, chip
// picks, batch sizes, fleet classes) derives from -seed, so two runs
// with identical flags issue identical request sequences; -plan-only
// prints the schedule digest that pins this.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/flashmark/flashmark/internal/buildinfo"
	"github.com/flashmark/flashmark/internal/loadgen"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fmloadgen:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fmloadgen", flag.ContinueOnError)
	var (
		target    = fs.String("target", "", "base URL of a live fmverifyd (required unless -plan-only)")
		seed      = fs.Uint64("seed", 1, "master scenario seed (schedule + fleet)")
		rate      = fs.Float64("rate", 100, "mean Poisson arrival rate, requests/second")
		duration  = fs.Duration("duration", 10*time.Second, "span arrivals are generated over")
		inflight  = fs.Int("inflight", 64, "bounded open-loop concurrency cap")
		timeout   = fs.Duration("timeout", 30*time.Second, "per-request client timeout")
		genuine   = fs.Int("fleet-genuine", 24, "genuine watermarked chips in the fleet")
		clones    = fs.Int("fleet-clones", 8, "replay-imprint clones of genuine die ids (-1 disables)")
		forged    = fs.Int("fleet-counterfeits", 8, "non-clone counterfeit chips (-1 disables)")
		part      = fs.String("part", "FM-SIM16", "catalog NOR part to fabricate")
		key       = fs.String("key", "loadgen-key", "watermark HMAC key (must match the daemon's -key)")
		mfg       = fs.String("mfg", "", "imprinted manufacturer string (empty selects the factory default)")
		mixVerify = fs.Float64("mix-verify", 8, "relative weight of single verifies")
		mixBatch  = fs.Float64("mix-batch", 1, "relative weight of batch verifies")
		mixEnroll = fs.Float64("mix-enroll", 1, "relative weight of enrollments")
		batchMean = fs.Float64("batch-mean", 3, "mean chips beyond the first per batch request")
		batchMax  = fs.Int("batch-max", 16, "batch size cap")
		outPath   = fs.String("out", "BENCH_service.json", "report path")
		planOnly  = fs.Bool("plan-only", false, "build and print the schedule digest; send nothing")
		quiet     = fs.Bool("quiet", false, "suppress progress output")
		version   = fs.Bool("version", false, "print build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(out, buildinfo.String("fmloadgen"))
		return nil
	}
	cfg := loadgen.Config{
		Target:      *target,
		Seed:        *seed,
		Rate:        *rate,
		Duration:    *duration,
		MaxInFlight: *inflight,
		Timeout:     *timeout,
		Fleet: loadgen.FleetSpec{
			Genuine:      *genuine,
			Clones:       *clones,
			Counterfeits: *forged,
			Part:         *part,
			Key:          *key,
			Manufacturer: *mfg,
		},
		Mix:       loadgen.Mix{Verify: *mixVerify, Batch: *mixBatch, Enroll: *mixEnroll},
		BatchMean: *batchMean,
		BatchMax:  *batchMax,
	}
	if !*quiet {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "fmloadgen: "+format+"\n", args...)
		}
	}

	plan := loadgen.BuildPlan(cfg)
	fmt.Fprintf(out, "plan: %d requests (%d verify, %d batch, %d enroll) over %v, digest %s\n",
		len(plan.Requests), plan.Count(loadgen.OpVerify), plan.Count(loadgen.OpBatch),
		plan.Count(loadgen.OpEnroll), *duration, plan.Digest())
	if *planOnly {
		return nil
	}
	if *target == "" {
		return errors.New("-target is required (or use -plan-only)")
	}

	fleet, err := loadgen.BuildFleet(cfg.Fleet, cfg.Seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "fleet: %d chips (%d genuine, %d clones, %d counterfeits)\n",
		cfg.Fleet.Size(), cfg.Fleet.Genuine, cfg.Fleet.Clones, cfg.Fleet.Counterfeits)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	res, err := loadgen.Run(ctx, cfg, plan, fleet)
	if err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	rep := loadgen.BuildReport(cfg, res)
	if err := rep.WriteFile(*outPath); err != nil {
		return err
	}
	fmt.Fprintf(out, "sent %d (dropped %d) in %.1fs: %.1f verifies/s, verify p50/p99/p999 %.1f/%.1f/%.1f ms, "+
		"%.1f enrolls/s, %d DUPLICATE-ID, shed %d (rate %.3f), %d errors -> %s\n",
		rep.SentRequests, rep.ClientDropped, rep.ElapsedS, rep.VerifiesPerSec,
		rep.VerifyP50Ms, rep.VerifyP99Ms, rep.VerifyP999Ms,
		rep.EnrollsPerSec, rep.DuplicateIDVerdicts, rep.Shed429, rep.ShedRate,
		rep.HTTPErrors, *outPath)
	if rep.HTTPErrors > 0 {
		return fmt.Errorf("%d requests failed (transport or non-200/429 status)", rep.HTTPErrors)
	}
	return nil
}
