package nor

import (
	"testing"
	"testing/quick"
)

func newSmallArray(t *testing.T) *Array {
	t.Helper()
	a, err := NewArray(Small())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewArrayFresh(t *testing.T) {
	a := newSmallArray(t)
	for _, cell := range []int{0, 1, 4095, a.Geometry().TotalCells() - 1} {
		if a.Programmed(cell) {
			t.Errorf("fresh cell %d should be erased", cell)
		}
		if a.Margin(cell) != float64(MarginErased) {
			t.Errorf("fresh cell %d margin = %v", cell, a.Margin(cell))
		}
		if a.Wear(cell) != 0 {
			t.Errorf("fresh cell %d wear = %v", cell, a.Wear(cell))
		}
	}
}

func TestNewArrayRejectsBadGeometry(t *testing.T) {
	if _, err := NewArray(Geometry{}); err == nil {
		t.Fatal("NewArray accepted zero geometry")
	}
}

func TestSetMarginClamps(t *testing.T) {
	a := newSmallArray(t)
	a.SetMargin(0, 1e38*10) // beyond float32
	if a.Margin(0) != float64(MarginErased) {
		t.Errorf("huge margin should clamp to erased sentinel, got %v", a.Margin(0))
	}
	a.SetMargin(0, -1e39)
	if a.Margin(0) != float64(MarginProgrammed) {
		t.Errorf("huge negative margin should clamp, got %v", a.Margin(0))
	}
	a.SetMargin(0, 1.25)
	if a.Margin(0) != 1.25 {
		t.Errorf("finite margin = %v, want 1.25", a.Margin(0))
	}
}

func TestProgrammedSign(t *testing.T) {
	a := newSmallArray(t)
	a.SetMargin(7, -0.5)
	if !a.Programmed(7) {
		t.Error("negative margin should be programmed")
	}
	a.SetMargin(7, 0.5)
	if a.Programmed(7) {
		t.Error("positive margin should be erased")
	}
}

func TestAddWear(t *testing.T) {
	a := newSmallArray(t)
	a.AddWear(3, 1)
	a.AddWear(3, 0.05)
	if got := a.Wear(3); got != 1.05 {
		t.Errorf("wear = %v, want 1.05", got)
	}
}

func TestAddWearRejectsNegative(t *testing.T) {
	a := newSmallArray(t)
	defer func() {
		if recover() == nil {
			t.Fatal("negative wear did not panic")
		}
	}()
	a.AddWear(0, -0.1)
}

func TestCellBoundsPanic(t *testing.T) {
	a := newSmallArray(t)
	for _, cell := range []int{-1, a.Geometry().TotalCells()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("cell %d access did not panic", cell)
				}
			}()
			a.Margin(cell)
		}()
	}
}

func TestSegmentWearSummary(t *testing.T) {
	a := newSmallArray(t)
	cells := a.Geometry().CellsPerSegment()
	// Wear segment 1 unevenly.
	for i := 0; i < cells; i++ {
		a.AddWear(cells+i, float64(i%3)) // 0,1,2 repeating
	}
	minW, meanW, maxW, err := a.SegmentWearSummary(1)
	if err != nil {
		t.Fatal(err)
	}
	if minW != 0 || maxW != 2 {
		t.Errorf("min/max = %v/%v, want 0/2", minW, maxW)
	}
	if meanW < 0.99 || meanW > 1.01 {
		t.Errorf("mean = %v, want ~1", meanW)
	}
	// Untouched segment stays zero.
	minW, meanW, maxW, err = a.SegmentWearSummary(0)
	if err != nil || minW != 0 || meanW != 0 || maxW != 0 {
		t.Errorf("fresh segment summary = %v/%v/%v, %v", minW, meanW, maxW, err)
	}
	if _, _, _, err := a.SegmentWearSummary(-1); err == nil {
		t.Error("negative segment should fail")
	}
	if _, _, _, err := a.SegmentWearSummary(a.Geometry().TotalSegments()); err == nil {
		t.Error("out-of-range segment should fail")
	}
}

func TestMarshalRoundTripFresh(t *testing.T) {
	a := newSmallArray(t)
	data, err := a.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh array: sparse encoding should be tiny.
	if len(data) > 64 {
		t.Errorf("fresh array serialized to %d bytes, expected compact", len(data))
	}
	b, err := UnmarshalArrayInto(nil, data)
	if err != nil {
		t.Fatal(err)
	}
	if b.Geometry() != a.Geometry() {
		t.Errorf("geometry mismatch: %+v vs %+v", b.Geometry(), a.Geometry())
	}
	if b.Programmed(0) || b.Wear(0) != 0 {
		t.Error("fresh cell state not restored")
	}
}

func TestMarshalRoundTripModified(t *testing.T) {
	a := newSmallArray(t)
	a.SetMargin(5, -1e39) // programmed
	a.SetMargin(9, 2.5)   // partial
	a.AddWear(5, 40000)
	a.AddWear(100, 0.05)
	data, err := a.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := UnmarshalArrayInto(nil, data)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Programmed(5) || b.Wear(5) != 40000 {
		t.Errorf("cell 5 not restored: margin %v wear %v", b.Margin(5), b.Wear(5))
	}
	if b.Margin(9) != 2.5 {
		t.Errorf("cell 9 margin = %v, want 2.5", b.Margin(9))
	}
	if b.Wear(100) != 0.05 {
		t.Errorf("cell 100 wear = %v, want 0.05", b.Wear(100))
	}
	if b.Programmed(4) || b.Wear(4) != 0 {
		t.Error("untouched cell not default after round trip")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("NORA"),                 // truncated after magic
		[]byte("NORA\x02\x00"),         // bad version
		[]byte("NORA\x01\x00\x01\x00"), // truncated geometry
		append([]byte("NORA\x01\x00"), make([]byte, 16)...), // zero geometry
	}
	for i, data := range cases {
		if _, err := UnmarshalArrayInto(nil, data); err == nil {
			t.Errorf("case %d: UnmarshalArrayInto accepted garbage", i)
		}
	}
}

func TestUnmarshalRejectsCorruptCellRecords(t *testing.T) {
	a := newSmallArray(t)
	a.AddWear(3, 5)
	data, _ := a.AppendBinary(nil)
	// Truncate mid-record.
	if _, err := UnmarshalArrayInto(nil, data[:len(data)-4]); err == nil {
		t.Error("truncated record accepted")
	}
	// Corrupt the cell index to be out of range.
	bad := append([]byte(nil), data...)
	// count is at offset 4+2+16 = 22; first record index at 30.
	for i := 30; i < 38; i++ {
		bad[i] = 0xFF
	}
	if _, err := UnmarshalArrayInto(nil, bad); err == nil {
		t.Error("out-of-range cell index accepted")
	}
}

// Property: margin set/get round-trips for finite values within float32 range.
func TestQuickMarginRoundTrip(t *testing.T) {
	a := newSmallArray(t)
	f := func(raw int16, cellRaw uint16) bool {
		cell := int(cellRaw) % a.Geometry().TotalCells()
		v := float64(raw) / 16.0
		a.SetMargin(cell, v)
		return a.Margin(cell) == float64(float32(v))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: serialization round-trips arbitrary sparse modifications.
func TestQuickMarshalRoundTrip(t *testing.T) {
	f := func(mods []struct {
		Cell uint16
		M    int8
		W    uint8
	}) bool {
		a, err := NewArray(Small())
		if err != nil {
			return false
		}
		for _, m := range mods {
			cell := int(m.Cell) % a.Geometry().TotalCells()
			a.SetMargin(cell, float64(m.M))
			a.AddWear(cell, float64(m.W))
		}
		data, err := a.AppendBinary(nil)
		if err != nil {
			return false
		}
		b, err := UnmarshalArrayInto(nil, data)
		if err != nil {
			return false
		}
		for _, m := range mods {
			cell := int(m.Cell) % a.Geometry().TotalCells()
			if b.Margin(cell) != a.Margin(cell) || b.Wear(cell) != a.Wear(cell) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMarshalWornSegment(b *testing.B) {
	a, _ := NewArray(Small())
	for i := 0; i < 4096; i++ {
		a.AddWear(i, 40000)
		a.SetMargin(i, -1e39)
	}
	b.ReportAllocs()
	var buf []byte
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = a.AppendBinary(buf[:0]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestUnmarshalArrayIntoReuses pins the reuse contract: a matching-
// geometry destination is recycled in place (same backing storage, no
// allocation) and decodes to exactly the state a fresh decode
// produces, even when the destination carries arbitrary prior state.
func TestUnmarshalArrayIntoReuses(t *testing.T) {
	a := newSmallArray(t)
	a.SetMargin(5, -1e39)
	a.SetMargin(9, 2.5)
	a.AddWear(5, 40000)
	a.AddWear(100, 0.05)
	data, err := a.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := UnmarshalArrayInto(nil, data)
	if err != nil {
		t.Fatal(err)
	}
	// Dirty destination with prior state everywhere the payload does not
	// touch: reuse must reset it, not merge.
	dst := newSmallArray(t)
	dst.SetMargin(7, -3)
	dst.AddWear(7, 123)
	got, err := UnmarshalArrayInto(dst, data)
	if err != nil {
		t.Fatal(err)
	}
	if got != dst {
		t.Fatal("matching geometry did not reuse the destination array")
	}
	for i := 0; i < want.Geometry().TotalCells(); i++ {
		if got.Margin(i) != want.Margin(i) || got.Wear(i) != want.Wear(i) {
			t.Fatalf("cell %d: reused decode (%v, %v) != fresh decode (%v, %v)",
				i, got.Margin(i), got.Wear(i), want.Margin(i), want.Wear(i))
		}
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := UnmarshalArrayInto(dst, data); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("warm UnmarshalArrayInto allocates %v times per run, want 0", n)
	}
	// Mismatched geometry must fall back to a fresh allocation.
	other, err := NewArray(Geometry{Banks: 1, SegmentsPerBank: 2, SegmentBytes: 64, WordBytes: 2})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := UnmarshalArrayInto(other, data)
	if err != nil {
		t.Fatal(err)
	}
	if fresh == other {
		t.Fatal("mismatched geometry reused the destination array")
	}
	if fresh.Geometry() != want.Geometry() {
		t.Fatalf("fallback geometry %+v, want %+v", fresh.Geometry(), want.Geometry())
	}
}

// TestArrayReset pins Reset against NewArray.
func TestArrayReset(t *testing.T) {
	a := newSmallArray(t)
	a.SetMargin(3, -1)
	a.AddWear(3, 9)
	a.Reset()
	fresh := newSmallArray(t)
	for i := 0; i < a.Geometry().TotalCells(); i++ {
		if a.Margin(i) != fresh.Margin(i) || a.Wear(i) != fresh.Wear(i) {
			t.Fatalf("cell %d after Reset: (%v, %v), want fresh (%v, %v)",
				i, a.Margin(i), a.Wear(i), fresh.Margin(i), fresh.Wear(i))
		}
	}
}
