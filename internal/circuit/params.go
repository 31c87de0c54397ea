// Package circuit assembles self-organizing logic gates, voltage-controlled
// differential current generators and input sources into the global ODE of
// the paper (Eqs. 21-24), integrated by the IMEX stepper (imex.go).
//
// Substitution note (see DESIGN.md): the paper places the parasitic
// capacitance C in parallel with each memristor and eliminates the
// resistive nodes by modified-nodal-analysis order reduction; we place C
// from every circuit node to ground and keep node voltages as states. The
// equilibrium set is identical — at equilibrium no capacitor carries
// current, and Eqs. (63)-(67) do not involve C — while the assembly stays a
// plain explicit ODE.
package circuit

import (
	"repro/internal/device"
	"repro/internal/memristor"
)

// Params collects the electrical parameters of a SOLC.
type Params struct {
	// Vc is the logic reference voltage (logic 1 ↔ +Vc, logic 0 ↔ -Vc).
	Vc float64
	// C is the node-to-ground parasitic capacitance setting the RC
	// relaxation scale of the voltage subsystem.
	C float64
	// R is the DCM resistor-branch resistance (the paper fixes R = Roff).
	R float64
	// Mem is the memristor device model shared by all DCM branches.
	Mem memristor.Model
	// DCG is the VCDCG parameter set shared by all generators.
	DCG device.VCDCG
	// TRise is the input-generator ramp time.
	TRise float64
	// OmitVCDCG builds the circuit without voltage-controlled differential
	// current generators — the Sec. V-D ablation, which re-admits the
	// spurious v = 0 equilibria the VCDCGs exist to remove.
	OmitVCDCG bool
}

// Paper returns the Table II parameter set. It is numerically stiff
// (C = 1e-9 against O(1) conductances) and intended for the implicit
// integrator or very small steps; Default is the robust preset.
func Paper() Params {
	return Params{
		Vc:    1,
		C:     1e-9,
		R:     1, // = Roff
		Mem:   memristor.Default(),
		DCG:   device.DefaultVCDCG(),
		TRise: 1,
	}
}

// Default returns a numerically robust preset: the same topology and
// equilibrium structure as Paper, with the node capacitance raised so the
// voltage relaxation scale is comparable to the memristor switching scale
// (the paper's condition τ_C ≪ τ_M is relaxed to τ_C ≲ τ_M, which
// preserves the equilibria exactly and keeps the integration
// efficient). The memristor keeps Table II's hard window and threshold
// (k = ∞, Vt = 0). Default applies three changes, all documented in
// DESIGN.md and measured in EXPERIMENTS.md:
//
//  1. Smooth VCDCG windows (δs = 0.2, δi > 0 instead of δs = δi = 0):
//     the ρ and current windows use the paper's own θ̃₁ (Prop. VI.3), so
//     the VCDCG's slow-state update stays C¹ where Table II switches.
//  2. Slower memristors (α = 0.5 instead of 60), restoring the paper's
//     own timescale hierarchy γ⁻¹ ≪ τ_M ≪ τ_DCG (Sec. VI-H conditions
//     1-3), which Table II's α = 60 violates by four orders of magnitude.
//  3. A live VCDCG retreat mechanism: ks = ki = 5 instead of 1e-7 (at
//     1e-7 the bistable s cannot transition within any feasible
//     simulation horizon, so the Sec. VI-H exploration "kicks" never
//     fire), and imin raised to 0.5 so a retreat completes in ~0.06 time
//     units at γ = 60.
//
// The equilibrium structure (Theorems VI.10-VI.11) is unchanged by all
// three: equilibria still require every gate satisfied, i_DCG = 0 and
// |v| = vc.
func Default() Params {
	p := Paper()
	p.C = 2e-2 // used only by the capacitive engine
	p.Mem.Alpha = 0.5
	p.DCG.Ks, p.DCG.Ki = 5, 5
	p.DCG.IMin = 0.5
	p.DCG.DeltaS = 0.2
	p.DCG.DeltaIMin = 0.25 // ~imin²
	p.DCG.DeltaIMax = 40   // ~0.1·imax²
	return p
}
