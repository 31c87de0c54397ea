package circuit

import (
	"math"

	"repro/internal/device"
	"repro/internal/la"
	"repro/internal/memristor"
)

// ReferenceSlowStep recomputes, from the public device methods, the
// slow-state phase of the IMEX step st just took from the state pre: each
// memristor as Clamp(x + h·DxDt(x, σ·d)), the VCDCGs through
// FsOffset/DiDt/Fs with a finite current beyond ±IBoundFactor·IMax
// clamped to that bound, and the dissipation tally over every DCM
// branch (memristors g·d², then resistors d²/R), reading the branches
// from the gates' solg parameter sets (refBranches). It reads the step's
// solved voltages from st and returns the full next state (voltages
// committed) with the energy increment h·Σ power the step must have
// added.
func ReferenceSlowStep(st *IMEXStepper, h float64, pre la.Vector) (la.Vector, float64) {
	c := st.c
	p := &c.Params
	next := pre.Clone()
	var power float64
	mem, res := c.refBranches()
	for j, br := range mem {
		d := st.nodeV[br.node] - br.level(st.nodeV)
		xi := pre[c.xOff()+j]
		power += float64(p.Mem.G(xi) * d * d)
		next[c.xOff()+j] = memristor.Clamp(xi + float64(h*p.Mem.DxDt(xi, br.sigma*d)))
	}
	invR := 1 / p.R
	for _, br := range res {
		d := st.nodeV[br.node] - br.level(st.nodeV)
		power += float64(d * d * invR)
	}
	offset := p.DCG.FsOffset(pre[c.iOff() : c.iOff()+c.nd])
	iBound := device.IBoundFactor * p.DCG.IMax
	for k, node := range c.dcgNodes {
		i, s := pre[c.iOff()+k], pre[c.sOff()+k]
		in := i + float64(h*p.DCG.DiDt(st.nodeV[node], i, s))
		if in > iBound && !math.IsInf(in, 1) {
			in = iBound
		} else if in < -iBound && !math.IsInf(in, -1) {
			in = -iBound
		}
		next[c.iOff()+k] = in
		next[c.sOff()+k] = s + float64(h*p.DCG.Fs(s, offset))
	}
	copy(next[c.vOff():c.vOff()+c.nv], st.vNew)
	return next, float64(h * power)
}

// SlowInputs holds the inputs one IMEX step fed to the slow-state
// kernels, in device order.
type SlowInputs struct {
	Sigma, X, D, G []float64 // per memristor: polarity, state, drop, conductance
	V, I, S        []float64 // per VCDCG: terminal voltage, current, control
}

// SlowStepInputs returns the slow-state kernel inputs of the IMEX step st
// just took from the state pre.
func SlowStepInputs(st *IMEXStepper, pre la.Vector) SlowInputs {
	c := st.c
	mem, _ := c.refBranches()
	in := SlowInputs{
		X: append([]float64(nil), pre[c.xOff():c.xOff()+c.nm]...),
		G: append([]float64(nil), st.g[:c.nm]...),
		I: append([]float64(nil), pre[c.iOff():c.iOff()+c.nd]...),
		S: append([]float64(nil), pre[c.sOff():c.sOff()+c.nd]...),
	}
	for _, br := range mem {
		in.Sigma = append(in.Sigma, br.sigma)
		in.D = append(in.D, st.nodeV[br.node]-br.level(st.nodeV))
	}
	for _, node := range c.dcgNodes {
		in.V = append(in.V, st.nodeV[node])
	}
	return in
}
