// Package ode provides the integration driver used to simulate
// self-organizing logic circuits: the Stepper interface and the driver
// that integrates until a caller-supplied stopping condition fires, with
// a step-size ramp up to the stepper's stability bound and retry on
// failed or non-finite steps. The one production stepper, the IMEX scheme
// on the capacitive form, lives in the circuit package; the driver tests
// substitute fake steppers.
package ode

import "repro/internal/la"

// Stepper advances the state by one step of size h.
type Stepper interface {
	// Step advances x in place from time t by h, or returns an error on
	// failure.
	Step(t, h float64, x la.Vector) error
	// MaxStableStep returns the step-size ceiling of the stepper's
	// explicit part, or 0 for none. The Driver starts at H and grows h
	// toward it (see Driver.Run).
	MaxStableStep() float64
}
