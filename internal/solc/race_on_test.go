//go:build race

package solc_test

// raceEnabled reports a build with the race detector, which runs the
// integrator about 15× slower.
const raceEnabled = true
