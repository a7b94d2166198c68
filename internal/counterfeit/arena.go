package counterfeit

import (
	"sync"

	"github.com/flashmark/flashmark/internal/device"
)

// deviceArena recycles device instances across a population run. A
// population fabricates thousands of chips of the same product family,
// and constructing each one from scratch (cell array, physics model,
// controller scratch) dominates the allocation profile. Backends that
// implement device.Refabricator can instead be reset in place to the
// exact state a fresh fabrication with the new seed would produce, so
// the arena hands verified devices back to the next job.
//
// The arena is correct by the Refabricator contract: Refabricate(seed)
// must be indistinguishable from fab(seed), and it is only ever
// asserted on the outermost value — decorated devices (fault
// injectors, tracers) simply are not pooled.
type deviceArena struct {
	fab  device.Fab
	pool sync.Pool
}

func newDeviceArena(fab device.Fab) *deviceArena {
	return &deviceArena{fab: fab}
}

// Fab is a device.Fab that prefers resetting a recycled instance over
// constructing a new one.
func (a *deviceArena) Fab(seed uint64) (device.Device, error) {
	if v := a.pool.Get(); v != nil {
		dev := v.(device.Device)
		if rf, ok := dev.(device.Refabricator); ok {
			if err := rf.Refabricate(seed); err == nil {
				return dev, nil
			}
			// A failed reset leaves the instance in an unknown state:
			// drop it and fall through to a fresh fabrication.
		}
	}
	return a.fab(seed)
}

// Recycle returns a device whose chip is fully verified. Only outermost
// values implementing device.Refabricator are pooled; everything else
// is left to the garbage collector.
func (a *deviceArena) Recycle(dev device.Device) {
	if a == nil {
		return
	}
	if _, ok := dev.(device.Refabricator); ok {
		a.pool.Put(dev)
	}
}
