package flashctl

import (
	"testing"
	"time"

	"github.com/flashmark/flashmark/internal/vclock"
)

func TestRegisterLockProtocol(t *testing.T) {
	c := newTestController(t)
	r := c.Registers()
	// Initially locked.
	if r.Read(FCTL3)&BitLOCK == 0 {
		t.Fatal("LOCK should read set on a fresh controller")
	}
	// Operation before unlock: dummy write fails (controller locked).
	if err := r.Write(FCTL1, FCTLPassword|BitERASE); err != nil {
		t.Fatal(err)
	}
	if err := r.DummyWrite(0, 0); err == nil {
		t.Fatal("erase while locked accepted")
	}
	// Clear LOCK with the password.
	if err := r.Write(FCTL3, FCTLPassword); err != nil {
		t.Fatal(err)
	}
	if r.Read(FCTL3)&BitLOCK != 0 {
		t.Fatal("LOCK should read clear after unlock")
	}
	if err := r.DummyWrite(0, 0); err != nil {
		t.Fatalf("erase after unlock: %v", err)
	}
	// Re-lock.
	if err := r.Write(FCTL3, FCTLPassword|BitLOCK); err != nil {
		t.Fatal(err)
	}
	if err := r.DummyWrite(0, 0); err == nil {
		t.Fatal("erase after re-lock accepted")
	}
}

func TestRegisterPasswordViolation(t *testing.T) {
	c := newTestController(t)
	r := c.Registers()
	if err := r.Write(FCTL3, FCTLPassword); err != nil {
		t.Fatal(err)
	}
	// A write with the wrong password must fail AND re-lock.
	if err := r.Write(FCTL1, 0x5A00|BitERASE); err == nil {
		t.Fatal("bad password accepted")
	}
	if !c.Locked() {
		t.Fatal("access violation should re-lock the controller")
	}
}

func TestRegisterProgramFlow(t *testing.T) {
	c := newTestController(t)
	r := c.Registers()
	if err := r.Write(FCTL3, FCTLPassword); err != nil {
		t.Fatal(err)
	}
	if err := r.Write(FCTL1, FCTLPassword|BitWRT); err != nil {
		t.Fatal(err)
	}
	if err := r.DummyWrite(4, 0x5443); err != nil {
		t.Fatal(err)
	}
	v, err := r.ReadWord(4)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x5443 {
		t.Fatalf("register-programmed word = %#x", v)
	}
}

func TestRegisterNoOperationSelected(t *testing.T) {
	c := newTestController(t)
	r := c.Registers()
	if err := r.Write(FCTL3, FCTLPassword); err != nil {
		t.Fatal(err)
	}
	if err := r.Write(FCTL1, FCTLPassword); err != nil {
		t.Fatal(err)
	}
	if err := r.DummyWrite(0, 0); err == nil {
		t.Fatal("dummy write with no op selected accepted")
	}
}

func TestRegisterMassErase(t *testing.T) {
	c := newTestController(t)
	r := c.Registers()
	mustUnlock(t, c)
	if err := c.ProgramWord(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.Write(FCTL1, FCTLPassword|BitMERAS); err != nil {
		t.Fatal(err)
	}
	if err := r.DummyWrite(0, 0); err != nil {
		t.Fatal(err)
	}
	if v, _ := r.ReadWord(0); v != 0xFFFF {
		t.Fatalf("after register mass erase = %#x", v)
	}
}

func TestRegisterEmergencyExitPartialErase(t *testing.T) {
	// The firmware partial-erase pattern: program all, arm EMEX on a
	// timer, start the erase via dummy write.
	c := newTestController(t)
	r := c.Registers()
	mustUnlock(t, c)
	geom := c.Array().Geometry()
	zeros := make([]uint64, geom.WordsPerSegment())
	if err := c.ProgramBlock(0, zeros); err != nil {
		t.Fatal(err)
	}
	if err := r.Write(FCTL1, FCTLPassword|BitERASE); err != nil {
		t.Fatal(err)
	}
	if err := r.ArmEmergencyExit(21 * time.Microsecond); err != nil {
		t.Fatal(err)
	}
	before := c.Ledger().CountOf(vclock.OpPartialErase)
	if err := r.DummyWrite(0, 0); err != nil {
		t.Fatal(err)
	}
	if c.Ledger().CountOf(vclock.OpPartialErase) != before+1 {
		t.Fatal("EMEX dummy write did not perform a partial erase")
	}
	// The arm is one-shot: the next erase is a full one.
	if err := r.DummyWrite(0, 0); err != nil {
		t.Fatal(err)
	}
	if c.Ledger().CountOf(vclock.OpPartialErase) != before+1 {
		t.Fatal("EMEX arm should be one-shot")
	}
	if err := r.ArmEmergencyExit(0); err == nil {
		t.Fatal("zero abort delay accepted")
	}
}

func TestRegisterEquivalenceWithMethodAPI(t *testing.T) {
	// The same imprint cycle issued through registers and through the
	// method API must leave identical physical state.
	viaMethods := newSeededController(t, 77)
	viaRegs := newSeededController(t, 77)
	geom := viaMethods.Array().Geometry()

	mustUnlock(t, viaMethods)
	for cycle := 0; cycle < 5; cycle++ {
		if err := viaMethods.EraseSegment(0); err != nil {
			t.Fatal(err)
		}
		for w := 0; w < geom.WordsPerSegment(); w++ {
			if err := viaMethods.ProgramWord(w*2, 0x5443); err != nil {
				t.Fatal(err)
			}
		}
	}

	r := viaRegs.Registers()
	if err := r.Write(FCTL3, FCTLPassword); err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < 5; cycle++ {
		if err := r.Write(FCTL1, FCTLPassword|BitERASE); err != nil {
			t.Fatal(err)
		}
		if err := r.DummyWrite(0, 0); err != nil {
			t.Fatal(err)
		}
		if err := r.Write(FCTL1, FCTLPassword|BitWRT); err != nil {
			t.Fatal(err)
		}
		for w := 0; w < geom.WordsPerSegment(); w++ {
			if err := r.DummyWrite(w*2, 0x5443); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < geom.CellsPerSegment(); i++ {
		if viaMethods.Array().Wear(i) != viaRegs.Array().Wear(i) {
			t.Fatalf("wear diverged at cell %d", i)
		}
	}
}

func TestRegisterReadDefaults(t *testing.T) {
	c := newTestController(t)
	r := c.Registers()
	if got := r.Read(FCTL4); got != FCTLPassword {
		t.Errorf("FCTL4 = %#x", got)
	}
	if err := r.Write(FCTL4, FCTLPassword); err != nil {
		t.Errorf("FCTL4 write: %v", err)
	}
	if err := r.Write(Register(99), FCTLPassword); err == nil {
		t.Error("unknown register accepted")
	}
}

func TestControllerTraceRecordsOps(t *testing.T) {
	c := newTestController(t)
	mustUnlock(t, c)
	tr := vclock.NewTrace(0)
	c.SetTrace(tr)
	if c.Trace() != tr {
		t.Fatal("Trace accessor broken")
	}
	if err := c.EraseSegment(0); err != nil {
		t.Fatal(err)
	}
	if err := c.ProgramWord(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.PartialEraseSegment(0, 21*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	events := tr.Events()
	if len(events) != 3 {
		t.Fatalf("events = %d, want 3", len(events))
	}
	if events[0].Class != vclock.OpErase || events[1].Class != vclock.OpProgram || events[2].Class != vclock.OpPartialErase {
		t.Errorf("classes = %v %v %v", events[0].Class, events[1].Class, events[2].Class)
	}
	// Events are ordered and non-overlapping in virtual time.
	for i := 1; i < len(events); i++ {
		if events[i].Start < events[i-1].Start+events[i-1].Dur {
			t.Errorf("events overlap: %v then %v", events[i-1], events[i])
		}
	}
	c.SetTrace(nil)
	if err := c.EraseSegment(0); err != nil {
		t.Fatal(err)
	}
	if len(tr.Events()) != 3 {
		t.Error("detached trace still recorded")
	}
}
