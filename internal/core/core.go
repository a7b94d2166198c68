// Package core implements Flashmark itself — the paper's contribution:
// imprinting watermarks into NOR flash segments by repeated program/erase
// stress (Fig. 7), extracting them through partial erase operations
// (Fig. 8), characterizing cell wear through the digital interface
// (Fig. 3), replication with majority voting, and the t_PEW calibration
// the manufacturer publishes for each device family.
//
// All procedures drive any backend satisfying the substrate-neutral
// device interface (package device) using only operations real firmware
// has: erase, program, read, and the emergency-exit command that aborts
// an erase. The same code path covers the NOR microcontroller backend
// (package mcu) and the NAND adapter (package nand).
package core

import (
	"fmt"
	"runtime"
	"time"

	"github.com/flashmark/flashmark/internal/device"
	"github.com/flashmark/flashmark/internal/freelist"
)

// Scratch for the extraction hot loop: repeated extractions (ROC
// sweeps run thousands, a verification service one per request) reuse
// the all-zeros program image and the per-word-bit vote counters
// instead of reallocating them. They sit on free lists, which a GC does
// not empty, bounded to one idle buffer per CPU: a NAND block's counters
// alone take 128 KB. Only the voted words of an extraction — the
// caller-owned result — are freshly allocated; stress detection and
// characterization, which keep only the cell counts, vote into the
// spent program image.
var (
	zeroWordsScratch = freelist.New(func() *[]uint64 { return new([]uint64) }, runtime.GOMAXPROCS(0))
	votesScratch     = freelist.New(func() *[]int32 { return new([]int32) }, runtime.GOMAXPROCS(0))
)

// DefaultNPE is the imprint cycle count used when options leave it zero.
// The paper explores 20 K–100 K; 40 K is the paper's main design point
// balancing imprint time against extraction error rate.
const DefaultNPE = 40_000

// ImprintOptions controls ImprintSegment.
type ImprintOptions struct {
	// NPE is the number of program/erase stress cycles (paper's N_PE).
	// Zero selects DefaultNPE.
	NPE int
	// Accelerated terminates each erase early once the cells have
	// physically erased (the paper's §V accelerated procedure, ~3.5x
	// faster with identical physical outcome).
	Accelerated bool
	// Literal forces the cycle-by-cycle command loop instead of the
	// simulator's closed-form fast-forward. The physical outcome is
	// identical (covered by tests); the literal loop exists for fidelity
	// demonstrations and is O(NPE) slower to simulate.
	Literal bool
}

// ImprintSegment imprints the watermark into the segment containing
// segAddr by N_PE repeated erase+program cycles (paper Fig. 7). The
// watermark must cover the whole segment, one value per word; bits at
// logic 0 become permanently stressed ("bad") cells, bits at logic 1
// remain "good". The segment is left programmed with the watermark, as
// the current practice would leave it; the information survives any
// subsequent erase because it lives in the cells' physical wear.
func ImprintSegment(dev device.Device, segAddr int, watermark []uint64, opts ImprintOptions) error {
	geom := dev.Geometry()
	if len(watermark) != geom.WordsPerSegment() {
		return fmt.Errorf("core: watermark has %d words, segment holds %d", len(watermark), geom.WordsPerSegment())
	}
	npe := opts.NPE
	if npe == 0 {
		npe = DefaultNPE
	}
	if npe < 0 {
		return fmt.Errorf("core: negative N_PE %d", npe)
	}
	if err := dev.Unlock(); err != nil {
		return err
	}
	defer dev.Lock()

	if !opts.Literal {
		return dev.StressSegmentWords(segAddr, watermark, npe, opts.Accelerated)
	}
	for cycle := 0; cycle < npe; cycle++ {
		if opts.Accelerated {
			if _, err := dev.EraseSegmentAdaptive(segAddr); err != nil {
				return err
			}
		} else {
			if err := dev.EraseSegment(segAddr); err != nil {
				return err
			}
		}
		if err := dev.ProgramBlock(segAddr, watermark); err != nil {
			return err
		}
	}
	return nil
}

// ExtractOptions controls ExtractSegment.
type ExtractOptions struct {
	// TPEW is the partial erase time that separates good from bad cells.
	// The manufacturer determines it per device family (see Calibrate).
	TPEW time.Duration
	// Reads is the number of reads per word; the per-bit value is the
	// majority. Zero selects 1 (the paper's single-read extraction).
	// Must be odd.
	Reads int
	// HostReadout charges the host serial link for transferring the read
	// data to the verifier (included in the paper's 170 ms extract time).
	HostReadout bool
}

// ExtractSegment retrieves the watermark imprinted in the segment
// containing segAddr (paper Fig. 8): the segment is erased, fully
// programmed, a partial erase of duration t_PEW is applied, and the cells
// are read. Good (unstressed) cells erase within t_PEW and read 1; bad
// (stressed) cells resist and read 0 — the read words are the watermark,
// subject to the bit error rates the paper characterizes.
//
// Extraction destroys any data stored in the segment but not the
// watermark, which is physical; extraction may be repeated.
func ExtractSegment(dev device.Device, segAddr int, opts ExtractOptions) ([]uint64, error) {
	reads, err := checkRound(opts.TPEW, opts.Reads)
	if err != nil {
		return nil, err
	}
	if err := dev.Unlock(); err != nil {
		return nil, err
	}
	defer dev.Lock()

	geom := dev.Geometry()
	words := make([]uint64, geom.WordsPerSegment())
	if _, _, err := partialEraseRound(dev, segAddr, opts.TPEW, reads, words); err != nil {
		return nil, err
	}
	if opts.HostReadout {
		dev.ChargeHostTransfer(reads * geom.SegmentBytes)
	}
	return words, nil
}

// checkRound validates the arguments of a partial-erase round before
// any device operation, so a rejected call costs the chip no wear and no
// time. Zero reads selects 1; the normalized count is returned.
func checkRound(tPE time.Duration, reads int) (int, error) {
	if reads == 0 {
		reads = 1
	}
	if reads < 0 || reads%2 == 0 {
		return 0, fmt.Errorf("core: reads must be odd and positive, got %d", reads)
	}
	if tPE <= 0 {
		return 0, fmt.Errorf("core: non-positive t_PEW %v", tPE)
	}
	return reads, nil
}

// partialEraseRound is the measurement both extraction and stress
// detection make (paper Figs. 3, 5 and 8): erase the segment containing
// segAddr, program every cell, abort an erase after tPE, and
// majority-read the result. The voted words go to words when it is
// non-nil (one per segment word); otherwise they land in the pooled
// program image, which is spent by then, and only the counts are kept.
// The caller has unlocked the device and validated reads.
func partialEraseRound(dev device.Device, segAddr int, tPE time.Duration, reads int, words []uint64) (cells1, cells0 int, err error) {
	if err := dev.EraseSegment(segAddr); err != nil {
		return 0, 0, err
	}
	n := dev.Geometry().WordsPerSegment()
	zp := zeroWordsScratch.Get()
	defer zeroWordsScratch.Put(zp)
	if cap(*zp) < n {
		*zp = make([]uint64, n)
	}
	allZeros := (*zp)[:n]
	clear(allZeros)
	if err := dev.ProgramBlock(segAddr, allZeros); err != nil {
		return 0, 0, err
	}
	if err := dev.PartialEraseSegment(segAddr, tPE); err != nil {
		return 0, 0, err
	}
	if words == nil {
		words = allZeros
	}
	return analyzeInto(dev, segAddr, reads, words)
}

// AnalyzeSegment reads every word of the segment `reads` times (odd) and
// majority-votes each bit (paper Fig. 3, AnalyzeSegment). It returns the
// voted words and the counts of cells reading 1 (erased) and 0
// (programmed).
func AnalyzeSegment(dev device.Device, segAddr int, reads int) (words []uint64, cells1, cells0 int, err error) {
	if reads <= 0 || reads%2 == 0 {
		return nil, 0, 0, fmt.Errorf("core: reads must be odd and positive, got %d", reads)
	}
	words = make([]uint64, dev.Geometry().WordsPerSegment())
	cells1, cells0, err = analyzeInto(dev, segAddr, reads, words)
	if err != nil {
		return nil, 0, 0, err
	}
	return words, cells1, cells0, nil
}

// analyzeInto is AnalyzeSegment writing the voted words into words,
// which holds one entry per segment word. It reads word by word (w, w,
// w, then w+1) unless the backend is a device.PassReader, which it
// reads pass by pass (every word, then every word again); both orders
// run one loop into one per-word-bit tally.
func analyzeInto(dev device.Device, segAddr int, reads int, words []uint64) (cells1, cells0 int, err error) {
	geom := dev.Geometry()
	seg, err := geom.SegmentOfAddr(segAddr)
	if err != nil {
		return 0, 0, err
	}
	base := seg * geom.SegmentBytes
	bits := geom.WordBits()
	n := len(words)
	vp := votesScratch.Get()
	defer votesScratch.Put(vp)
	if cap(*vp) < n*bits {
		*vp = make([]int32, n*bits)
	}
	votes := (*vp)[:n*bits]
	clear(votes)
	_, byPass := device.As[device.PassReader](dev)
	for k := 0; k < n*reads; k++ {
		w := k / reads
		if byPass {
			w = k % n
		}
		v, rerr := dev.ReadWord(base + w*geom.WordBytes)
		if rerr != nil {
			return 0, 0, rerr
		}
		tally := votes[w*bits : (w+1)*bits]
		for b := range tally {
			if v&(1<<uint(b)) != 0 {
				tally[b]++
			}
		}
	}
	for w := range words {
		var voted uint64
		for b, c := range votes[w*bits : (w+1)*bits] {
			if int(c) > reads/2 {
				voted |= 1 << uint(b)
				cells1++
			} else {
				cells0++
			}
		}
		words[w] = voted
	}
	return cells1, cells0, nil
}

// BitErrors counts differing bits between got and want over `bits` bits
// per word.
func BitErrors(got, want []uint64, bits int) int {
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	mask := uint64(1)<<uint(bits) - 1
	errs := 0
	for i := 0; i < n; i++ {
		diff := (got[i] ^ want[i]) & mask
		for diff != 0 {
			errs++
			diff &= diff - 1
		}
	}
	// Length mismatch counts every missing word as fully wrong.
	if len(got) != len(want) {
		longer := len(got)
		if len(want) > longer {
			longer = len(want)
		}
		errs += (longer - n) * bits
	}
	return errs
}

// BER returns the bit error rate (fraction in [0,1]) between got and want.
func BER(got, want []uint64, bits int) float64 {
	n := len(got)
	if len(want) > n {
		n = len(want)
	}
	if n == 0 {
		return 0
	}
	return float64(BitErrors(got, want, bits)) / float64(n*bits)
}
