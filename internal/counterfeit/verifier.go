package counterfeit

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/flashmark/flashmark/internal/core"
	"github.com/flashmark/flashmark/internal/device"
	"github.com/flashmark/flashmark/internal/wmcode"
)

// Verifier is the system integrator's incoming-inspection policy. It holds
// the publicly communicated extraction parameters (t_PEW window, replica
// layout) and, optionally, the manufacturer verification key.
type Verifier struct {
	Codec        wmcode.Codec
	Manufacturer string // expected manufacturer string
	SegAddr      int    // watermark segment address
	TPEW         time.Duration
	Replicas     int // replica count used at imprint (odd)
	Reads        int // majority reads per extraction word (odd)

	// CheckRecycling enables the usage-wear screen on data segments
	// (the [7]-style partial-erase timing check integrated into the
	// verification flow).
	CheckRecycling bool
	// RecycledSegments is how many data segments to sample (default 2).
	RecycledSegments int
	// RecycledThreshold is the programmed-cell fraction at t_PEW above
	// which a data segment counts as worn (default 0.04).
	RecycledThreshold float64

	// Audit, when set, records every verified die identity and flags
	// duplicates across the procurement batch — the bookkeeping defense
	// against replay-imprinted clones.
	Audit *Auditor
}

// Result is the verifier's full report for one chip.
type Result struct {
	Verdict Verdict
	// Payload is the decoded watermark (valid when DecodeErr is nil).
	Payload wmcode.Payload
	// Report carries the codec's integrity findings.
	Report wmcode.Report
	// DecodeErr is the structural decode failure, if any.
	DecodeErr error
	// ReplicaDisagreement is the fraction of payload bits on which the
	// replicas did not vote unanimously — a quality signal.
	ReplicaDisagreement float64
	// WornDataSegments counts sampled data segments over the recycling
	// threshold (when CheckRecycling).
	WornDataSegments int
	// SampledDataSegments is how many data segments were screened.
	SampledDataSegments int
	// FaultErr is set with VerdictInconclusive: the device fault that
	// prevented the inspection from completing.
	FaultErr error
}

func (v *Verifier) withDefaults() Verifier {
	out := *v
	if out.TPEW == 0 {
		out.TPEW = 25 * time.Microsecond
	}
	if out.Replicas == 0 {
		out.Replicas = 7
	}
	if out.Reads == 0 {
		out.Reads = 3
	}
	if out.RecycledSegments == 0 {
		out.RecycledSegments = 2
	}
	if out.RecycledThreshold == 0 {
		// Fresh segments leave well under 2% of cells programmed at
		// t_PEW; a first product life of ~10K P/E cycles leaves >8%.
		out.RecycledThreshold = 0.04
	}
	if out.Manufacturer == "" {
		out.Manufacturer = "TC"
	}
	return out
}

// Verify runs the full incoming-inspection flow on a chip: watermark
// extraction (destructive to the segment's digital content, not to the
// watermark), replica majority decode, integrity checks, and optionally
// the recycling screen on data segments.
func (v *Verifier) Verify(dev device.Device) (Result, error) {
	return v.VerifyContext(context.Background(), dev)
}

// VerifyContext is Verify with a deadline/cancellation hook: the context
// is consulted between inspection stages (before extraction, before the
// recycling screen, and between sampled data segments), never inside a
// simulated flash operation, so a canceled verification stops promptly
// without leaving an operation half-accounted. When ctx is never
// canceled the flow — and therefore every artifact — is byte-identical
// to Verify. A cancellation surfaces as a hard error wrapping ctx.Err(),
// not as a verdict: the chip was not classified.
func (v *Verifier) VerifyContext(ctx context.Context, dev device.Device) (Result, error) {
	cfg := v.withDefaults()
	var res Result

	if err := ctx.Err(); err != nil {
		return res, fmt.Errorf("counterfeit: verification aborted: %w", err)
	}
	extracted, err := core.ExtractSegment(dev, cfg.SegAddr, core.ExtractOptions{
		TPEW:        cfg.TPEW,
		Reads:       cfg.Reads,
		HostReadout: true,
	})
	if err != nil {
		if errors.Is(err, device.ErrInjected) {
			res.Verdict = VerdictInconclusive
			res.FaultErr = err
			return res, nil
		}
		return res, fmt.Errorf("counterfeit: extraction failed: %w", err)
	}
	payloadWords := cfg.Codec.PayloadWords()
	bits := dev.Geometry().WordBits()
	views, err := core.ReplicaViews(extracted, payloadWords, cfg.Replicas)
	if err != nil {
		return res, fmt.Errorf("counterfeit: replica decode failed: %w", err)
	}
	res.ReplicaDisagreement = replicaDisagreement(extracted, payloadWords, cfg.Replicas, bits)

	res.Payload, res.Report, res.DecodeErr = cfg.Codec.DecodeReplicas(views)
	switch {
	case res.DecodeErr != nil:
		res.Verdict = VerdictNoWatermark
		return res, nil
	case res.Report.Tampered():
		res.Verdict = VerdictTampered
		return res, nil
	case res.Payload.Manufacturer != cfg.Manufacturer:
		res.Verdict = VerdictWrongIdentity
		return res, nil
	case res.Payload.Status == wmcode.StatusReject:
		res.Verdict = VerdictRejectDie
		return res, nil
	case res.Payload.Status != wmcode.StatusAccept:
		res.Verdict = VerdictTampered
		return res, nil
	}

	if cfg.CheckRecycling {
		worn, sampled, err := v.recycledScreen(ctx, dev, cfg)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return res, fmt.Errorf("counterfeit: verification aborted: %w", err)
			}
			if errors.Is(err, device.ErrInjected) {
				res.Verdict = VerdictInconclusive
				res.FaultErr = err
				return res, nil
			}
			return res, err
		}
		res.WornDataSegments = worn
		res.SampledDataSegments = sampled
		if worn > 0 {
			res.Verdict = VerdictRecycled
			return res, nil
		}
	}
	if v.Audit != nil {
		if v.Audit.Record(res.Payload.Manufacturer, res.Payload.DieID) {
			res.Verdict = VerdictDuplicateID
			return res, nil
		}
	}
	res.Verdict = VerdictGenuine
	return res, nil
}

// recycledScreen samples data segments with the one-round partial-erase
// stress detector.
func (v *Verifier) recycledScreen(ctx context.Context, dev device.Device, cfg Verifier) (worn, sampled int, err error) {
	geom := dev.Geometry()
	wmSeg, err := geom.SegmentOfAddr(cfg.SegAddr)
	if err != nil {
		return 0, 0, err
	}
	cells := geom.CellsPerSegment()
	for seg := 0; seg < geom.TotalSegments() && sampled < cfg.RecycledSegments; seg++ {
		if cerr := ctx.Err(); cerr != nil {
			return 0, 0, cerr
		}
		if seg == wmSeg {
			continue
		}
		addr, aerr := geom.AddrOfSegment(seg)
		if aerr != nil {
			return 0, 0, aerr
		}
		programmed, derr := core.DetectStress(dev, addr, cfg.TPEW, cfg.Reads)
		if derr != nil {
			return 0, 0, derr
		}
		if float64(programmed)/float64(cells) > cfg.RecycledThreshold {
			worn++
		}
		sampled++
	}
	return worn, sampled, nil
}

// replicaDisagreement measures the fraction of payload bit positions where
// at least one replica dissents from the majority.
func replicaDisagreement(extracted []uint64, payloadWords, copies, bits int) float64 {
	views, err := core.ReplicaViews(extracted, payloadWords, copies)
	if err != nil || payloadWords == 0 {
		return 0
	}
	disagree := 0
	for w := 0; w < payloadWords; w++ {
		for b := 0; b < bits; b++ {
			ones := 0
			for _, view := range views {
				if view[w]&(1<<uint(b)) != 0 {
					ones++
				}
			}
			if ones != 0 && ones != copies {
				disagree++
			}
		}
	}
	return float64(disagree) / float64(payloadWords*bits)
}
