package service

import "sync"

// freeList is a bounded stack of reusable scratch values, shared by
// every Server in the process. It holds the scratch that runs to
// megabytes (chip loaders' cell arrays, request bodies), which a
// sync.Pool would not keep: the garbage collector empties a pool within
// two cycles, so under load every GC would drop that scratch and the
// next requests would allocate it all again. A free list keeps what it
// holds until it is reused. Its bound caps how many idle values it
// keeps; New raises the bound to the Server's worker count, so after a
// GC each worker still finds one.
type freeList[T any] struct {
	fresh func() *T // makes a value when the list is empty

	mu    sync.Mutex
	idle  []*T
	limit int
}

// get pops an idle value, or makes one.
func (f *freeList[T]) get() *T {
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

// put returns x to the list, or drops it for the collector when the
// list already holds its bound.
func (f *freeList[T]) put(x *T) {
	f.mu.Lock()
	if len(f.idle) < f.limit {
		f.idle = append(f.idle, x)
	}
	f.mu.Unlock()
}

// reserve raises the list's bound to at least n idle values.
func (f *freeList[T]) reserve(n int) {
	f.mu.Lock()
	f.limit = max(f.limit, n)
	f.mu.Unlock()
}
