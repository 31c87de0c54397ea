// Package fpnorm holds the floating-point helpers the determinism
// analyzers share:
//
//   - IsSolverPkg names the packages under the Seed+k determinism
//     contract (detflow guards them against nondeterminism sources,
//     fparith against FMA-fusion hazards).
//   - FuseSites classifies the FMA-fusable `a*b ± c` sites of one
//     function, chasing products through plain local copies, for
//     fparith.
package fpnorm

import "strings"

// solverPkgs are the import-path segments of the packages under the
// Seed+k determinism contract. Both analyzers that consult it guard the
// same invariant — the trajectory is a pure function of Seed+attempt —
// from different directions.
var solverPkgs = []string{
	"internal/circuit",
	"internal/la",
	"internal/ode",
	"internal/solc",
	"internal/memristor",
	"internal/device",
	"internal/solg",
}

// IsSolverPkg reports whether the import path belongs to a package under
// the determinism contract.
func IsSolverPkg(path string) bool {
	for _, seg := range solverPkgs {
		if strings.HasSuffix(path, seg) || strings.Contains(path, seg+"/") {
			return true
		}
	}
	return false
}
