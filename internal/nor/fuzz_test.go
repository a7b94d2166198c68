package nor

import "testing"

// FuzzUnmarshalArray feeds arbitrary bytes to the array deserializer: it
// must never panic, and anything it accepts must re-serialize and reload
// to equal state.
func FuzzUnmarshalArray(f *testing.F) {
	a, err := NewArray(Small())
	if err != nil {
		f.Fatal(err)
	}
	a.SetMargin(3, -1e39)
	a.AddWear(3, 1000)
	good, err := a.AppendBinary(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte("NORA"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		arr, err := UnmarshalArrayInto(nil, data)
		if err != nil {
			return
		}
		re, err := arr.AppendBinary(nil)
		if err != nil {
			t.Fatalf("accepted array failed to re-marshal: %v", err)
		}
		back, err := UnmarshalArrayInto(nil, re)
		if err != nil {
			t.Fatalf("re-marshaled array failed to load: %v", err)
		}
		if back.Geometry() != arr.Geometry() {
			t.Fatal("geometry drifted through round trip")
		}
	})
}
