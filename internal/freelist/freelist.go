// Package freelist provides a bounded stack of reusable scratch values
// that, unlike a sync.Pool, keeps what it holds across garbage
// collections.
package freelist

import "sync"

// List is a bounded stack of reusable scratch values, safe for
// concurrent use. It holds scratch that is costly to rebuild (a chip
// loader's cell arrays, request bodies, an extraction's vote counters),
// which a sync.Pool would not keep: the garbage collector empties a
// pool within two cycles, so under load every GC would drop that
// scratch and the next users would allocate it all again. A List keeps
// what it holds until it is reused. Its bound caps how many idle values
// it keeps; Reserve raises it to the number of concurrent users, so
// after a GC each still finds one.
type List[T any] struct {
	fresh func() *T // makes a value when the list is empty

	mu    sync.Mutex
	idle  []*T
	limit int
}

// New returns a list that makes values with fresh and keeps up to limit
// idle ones.
func New[T any](fresh func() *T, limit int) *List[T] {
	return &List[T]{fresh: fresh, limit: limit}
}

// Get pops an idle value, or makes one.
func (f *List[T]) Get() *T {
	f.mu.Lock()
	if n := len(f.idle); n > 0 {
		x := f.idle[n-1]
		f.idle[n-1] = nil
		f.idle = f.idle[:n-1]
		f.mu.Unlock()
		return x
	}
	f.mu.Unlock()
	return f.fresh()
}

// Put returns x to the list, or drops it for the collector when the
// list already holds its bound.
func (f *List[T]) Put(x *T) {
	f.mu.Lock()
	if len(f.idle) < f.limit {
		f.idle = append(f.idle, x)
	}
	f.mu.Unlock()
}

// Reserve raises the list's bound to at least n idle values.
func (f *List[T]) Reserve(n int) {
	f.mu.Lock()
	f.limit = max(f.limit, n)
	f.mu.Unlock()
}
