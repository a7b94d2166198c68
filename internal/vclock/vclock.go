// Package vclock implements the simulated time substrate.
//
// The paper's §V reports imprint and extract times measured on real
// hardware (segment erase ≈ 23–35 ms, word program ≈ 64–85 µs, a 40 K-cycle
// imprint ≈ 1380 s baseline). In the simulator those numbers are integrals
// of controller operation timings rather than wall-clock measurements, so
// time is virtual: the flash controller advances a Clock, and a Ledger
// attributes the elapsed virtual time to operation classes (erase, program,
// read, overhead) so the timing experiments can report the same breakdowns
// the paper does.
package vclock

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"
)

// Clock is simulated time. The zero value is a clock at t=0, ready to use.
type Clock struct {
	now time.Duration
}

// Now returns the current virtual time since the clock's epoch.
func (c *Clock) Now() time.Duration { return c.now }

// Advance moves virtual time forward by d. Negative advances are a
// programming error and panic: simulated hardware time never runs backward.
// Advances that would overflow the int64 nanosecond counter panic too —
// silent wraparound would send time backward, the same invariant violation.
func (c *Clock) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("vclock: negative advance %v", d))
	}
	if c.now > math.MaxInt64-d {
		panic(fmt.Sprintf("vclock: advance %v overflows clock at %v", d, c.now))
	}
	c.now += d
}

// Reset rewinds the clock to zero (for reusing a device across experiments).
func (c *Clock) Reset() { c.now = 0 }

// OpClass labels the kind of flash operation consuming time, so timing
// reports can be broken down the way the paper's §V discussion is.
type OpClass string

// Operation classes used by the flash controller.
const (
	OpErase        OpClass = "erase"         // full segment/mass erase
	OpPartialErase OpClass = "partial-erase" // erase aborted by emergency exit
	OpProgram      OpClass = "program"       // word/byte program
	OpRead         OpClass = "read"          // array reads
	OpOverhead     OpClass = "overhead"      // controller setup/teardown
)

// Ledger accumulates virtual time per operation class. The zero value is
// an empty ledger ready to use. It keeps one row per class charged, in
// the order the classes were first charged: a device charges a handful
// of classes, so finding a row is a short scan, and a charge writes no
// map. Snapshot and Sub build their maps when asked.
type Ledger struct {
	rows []ledgerRow
}

// ledgerRow is one class's accumulated time and operation count.
type ledgerRow struct {
	class OpClass
	d     time.Duration
	n     int
}

// row returns class c's row, or nil when c was never charged.
func (l *Ledger) row(c OpClass) *ledgerRow {
	for i := range l.rows {
		if l.rows[i].class == c {
			return &l.rows[i]
		}
	}
	return nil
}

// Charge attributes duration d to class c and returns d so callers can
// charge and advance in one expression.
func (l *Ledger) Charge(c OpClass, d time.Duration) time.Duration {
	r := l.row(c)
	if r == nil {
		l.rows = append(l.rows, ledgerRow{class: c})
		r = &l.rows[len(l.rows)-1]
	}
	r.d += d
	r.n++
	return d
}

// Of returns the accumulated time of class c.
func (l *Ledger) Of(c OpClass) time.Duration {
	if r := l.row(c); r != nil {
		return r.d
	}
	return 0
}

// CountOf returns how many operations of class c were charged.
func (l *Ledger) CountOf(c OpClass) int {
	if r := l.row(c); r != nil {
		return r.n
	}
	return 0
}

// Total returns the sum across all classes.
func (l *Ledger) Total() time.Duration {
	var t time.Duration
	for _, r := range l.rows {
		t += r.d
	}
	return t
}

// Reset clears all accumulated charges.
func (l *Ledger) Reset() { l.rows = l.rows[:0] }

// Snapshot returns a copy of the ledger's per-class totals.
func (l *Ledger) Snapshot() map[OpClass]time.Duration {
	out := make(map[OpClass]time.Duration, len(l.rows))
	for _, r := range l.rows {
		out[r.class] = r.d
	}
	return out
}

// Sub returns a ledger-like map holding the difference between the current
// state and an earlier snapshot: the time spent since the snapshot.
func (l *Ledger) Sub(earlier map[OpClass]time.Duration) map[OpClass]time.Duration {
	out := make(map[OpClass]time.Duration)
	for _, r := range l.rows {
		if diff := r.d - earlier[r.class]; diff != 0 {
			out[r.class] = diff
		}
	}
	return out
}

// String renders the ledger as "class=duration" pairs in stable order.
func (l *Ledger) String() string {
	rows := slices.Clone(l.rows)
	slices.SortFunc(rows, func(a, b ledgerRow) int { return strings.Compare(string(a.class), string(b.class)) })
	parts := make([]string, 0, len(rows))
	for _, r := range rows {
		parts = append(parts, fmt.Sprintf("%s=%v(n=%d)", r.class, r.d, r.n))
	}
	return strings.Join(parts, " ")
}
