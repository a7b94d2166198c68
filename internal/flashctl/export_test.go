package flashctl

// SetReferencePhysics sets the physics path New gives every controller
// it builds from now on, the per-cell reference path when on, and
// returns a func that restores the previous default. The whole-stack
// oracles in physics_equiv_test.go use it to reach controllers that
// experiment and counterfeit build internally.
func SetReferencePhysics(on bool) (restore func()) {
	prev := referencePhysics
	referencePhysics = on
	return func() { referencePhysics = prev }
}
