package flashctl

import "time"

// This file provides the memory-mapped register view of the controller —
// the interface actual MSP430 firmware uses (FCTL1/FCTL3/FCTL4, §II-B).
// The method-level API (EraseSegment, ProgramWord, ...) and this register
// protocol drive the same state machine; the register layer exists so the
// imprint/extract procedures can be exercised exactly as firmware issues
// them, including the password discipline and the emergency exit bit.

// Register selects one of the flash controller registers.
type Register int

// Flash controller registers (modeled after the MSP430 FCTL block).
const (
	// FCTL1 holds the operation-select bits (ERASE, MERAS, WRT).
	FCTL1 Register = iota
	// FCTL3 holds LOCK, BUSY and EMEX.
	FCTL3
	// FCTL4 holds auxiliary control (unused bits read as zero).
	FCTL4
)

// FCTL1 bits.
const (
	BitERASE = 1 << 1 // segment erase select
	BitMERAS = 1 << 2 // mass (bank) erase select
	BitWRT   = 1 << 6 // word write select
)

// FCTL3 bits.
const (
	BitBUSY = 1 << 0 // operation in progress (read-only)
	BitLOCK = 1 << 4 // write protection
	BitEMEX = 1 << 5 // emergency exit: aborts the erase in flight
)

// FCTLPassword is the high-byte password every register write must
// carry; a write with the wrong password is an access violation that
// re-locks the controller (matching the MSP430 FCTL convention).
const FCTLPassword = uint16(0xA5) << 8

// RegisterFile is the firmware-facing view of a Controller. Writes
// follow the hardware protocol: set up FCTL1, clear LOCK in FCTL3, then
// issue the dummy write to the target address that triggers the
// operation.
type RegisterFile struct {
	ctl   *Controller
	fctl1 uint16
	// pendingErasePulse emulates the timing-generator abort: when
	// firmware sets EMEX within the erase window, the erase becomes a
	// partial erase of the elapsed duration. The simulator models this
	// as an explicit pulse length armed before the dummy write.
	pendingErasePulse time.Duration
}

// Registers returns the register view of the controller.
func (c *Controller) Registers() *RegisterFile {
	return &RegisterFile{ctl: c}
}

// Read returns the current value of a register.
func (r *RegisterFile) Read(reg Register) uint16 {
	switch reg {
	case FCTL1:
		return FCTLPassword | r.fctl1
	case FCTL3:
		v := FCTLPassword
		if r.ctl.Locked() {
			v |= BitLOCK
		}
		// Operations complete synchronously in the simulator, so BUSY
		// always reads clear between calls.
		return v
	default:
		return FCTLPassword
	}
}

// Write performs a password-checked register write.
func (r *RegisterFile) Write(reg Register, value uint16) error {
	if value&0xFF00 != FCTLPassword {
		r.ctl.Lock()
		return &Error{Op: "fctl-write", Addr: -1, Msg: "access violation: bad register password"}
	}
	switch reg {
	case FCTL1:
		r.fctl1 = value & 0x00FF
		return nil
	case FCTL3:
		if value&BitLOCK != 0 {
			r.ctl.Lock()
			return nil
		}
		return r.ctl.Unlock(UnlockKey)
	case FCTL4:
		return nil
	}
	return &Error{Op: "fctl-write", Addr: -1, Msg: "unknown register"}
}

// ArmEmergencyExit schedules the next erase triggered through the
// register file to be aborted after the given pulse — the firmware
// pattern of starting an erase and setting EMEX from a timer interrupt.
func (r *RegisterFile) ArmEmergencyExit(pulse time.Duration) error {
	if pulse <= 0 {
		return &Error{Op: "emex", Addr: -1, Msg: "non-positive abort delay"}
	}
	r.pendingErasePulse = pulse
	return nil
}

// DummyWrite issues the data write that triggers the operation selected
// in FCTL1 at the given address, exactly as firmware does: a write with
// ERASE set starts a segment erase (the data is ignored); with MERAS a
// bank erase; with WRT it programs the word.
func (r *RegisterFile) DummyWrite(addr int, data uint64) error {
	switch {
	case r.fctl1&BitMERAS != 0:
		return r.ctl.MassEraseBank(addr)
	case r.fctl1&BitERASE != 0:
		if r.pendingErasePulse > 0 {
			pulse := r.pendingErasePulse
			r.pendingErasePulse = 0
			return r.ctl.PartialEraseSegment(addr, pulse)
		}
		return r.ctl.EraseSegment(addr)
	case r.fctl1&BitWRT != 0:
		return r.ctl.ProgramWord(addr, data)
	}
	return &Error{Op: "dummy-write", Addr: addr, Msg: "no operation selected in FCTL1"}
}

// ReadWord reads through the register view (plain array read; flash
// reads need no unlock).
func (r *RegisterFile) ReadWord(addr int) (uint64, error) {
	return r.ctl.ReadWord(addr)
}
