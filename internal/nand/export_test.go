package nand

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
