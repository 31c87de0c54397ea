package dmm

import (
	"repro/internal/boolcirc"
	"repro/internal/circuit"
	"repro/internal/solc"
)

// SOLCSolver is the machine's native inverse-protocol backend: it compiles
// the boolean system onto a self-organizing logic circuit and races
// restart attempts on the parallel pool of internal/solc. The zero value
// solves with circuit.Default parameters and solc.DefaultOptions
// settings.
type SOLCSolver struct {
	// Params are the electrical parameters (circuit.Default() if zero).
	Params circuit.Params
	// Options tune the integration, including Parallelism, Deadline and
	// the winner policy (solc.DefaultOptions() if zero).
	Options solc.Options
}

// SolveInverse implements Solver.
func (s SOLCSolver) SolveInverse(c *boolcirc.Circuit, pins map[boolcirc.Signal]bool) (boolcirc.Assignment, bool, error) {
	p := s.Params
	if p.Vc == 0 {
		p = circuit.Default()
	}
	opts := s.Options
	if opts.TEnd == 0 && opts.MaxAttempts == 0 {
		opts = solc.DefaultOptions()
		opts.Parallelism = s.Options.Parallelism
		opts.Policy = s.Options.Policy
		opts.Deadline = s.Options.Deadline
		opts.Telemetry = s.Options.Telemetry
	}
	res, err := solc.Compile(c, pins, p).Solve(opts)
	if err != nil {
		return nil, false, err
	}
	if !res.Solved {
		return nil, false, nil
	}
	return res.Assignment, true, nil
}

var _ Solver = SOLCSolver{}
