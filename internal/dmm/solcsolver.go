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
	// the winner policy. Each of H, HMax, TEnd, MaxAttempts and Seed left
	// at zero takes its solc.DefaultOptions() value; every other field
	// is used as given.
	Options solc.Options
}

// SolveInverse implements Solver.
func (s SOLCSolver) SolveInverse(c *boolcirc.Circuit, pins map[boolcirc.Signal]bool) (boolcirc.Assignment, bool, error) {
	p := s.Params
	if p.Vc == 0 {
		p = circuit.Default()
	}
	// Solve fills H, HMax and TEnd with solc.DefaultOptions' values; its
	// own MaxAttempts and Seed fills differ from them, so those two are
	// filled here.
	opts, d := s.Options, solc.DefaultOptions()
	if opts.MaxAttempts == 0 {
		opts.MaxAttempts = d.MaxAttempts
	}
	if opts.Seed == 0 {
		opts.Seed = d.Seed
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
