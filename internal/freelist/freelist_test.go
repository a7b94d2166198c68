package freelist

import "testing"

// TestFreeListBound: a free list hands back what was put, newest first,
// keeps no more idle values than its largest reserve, and makes a fresh
// value when it is empty.
func TestFreeListBound(t *testing.T) {
	made := 0
	f := New(func() *int { made++; return new(int) }, 0)
	f.Reserve(2)
	f.Reserve(1) // a smaller worker count does not shrink the bound
	a, b, c := new(int), new(int), new(int)
	f.Put(a)
	f.Put(b)
	f.Put(c) // over the bound: dropped
	if got := f.Get(); got != b {
		t.Fatal("get did not return the newest idle value")
	}
	if got := f.Get(); got != a {
		t.Fatal("get did not return the older idle value")
	}
	if f.Get(); made != 1 {
		t.Fatalf("an empty list made %d values, want 1", made)
	}
}
