package nand

import "github.com/flashmark/flashmark/internal/floatgate"

// SetReferencePhysics sets the physics path every device built from now
// on runs, the per-cell reference loops when on, and returns a func
// that restores the previous default. The NAND-study oracle in
// physics_equiv_test.go uses it to reach devices that experiment builds
// internally.
func SetReferencePhysics(on bool) (restore func()) {
	prev := referencePhysics
	referencePhysics = on
	return func() { referencePhysics = prev }
}

// DeferStats sums the work of the deferral engines of every block of
// the adapter's device since it was built or loaded.
func DeferStats(a *Adapter) floatgate.DeferStats {
	var s floatgate.DeferStats
	for b := range a.d.deferred {
		st := a.d.deferred[b].Stats()
		s.Deferred += st.Deferred
		s.Quantiles += st.Quantiles
		s.Bases += st.Bases
		s.WindowReads += st.WindowReads
	}
	return s
}
