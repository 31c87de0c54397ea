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
// branch (memristors g·d², then resistors d²/R). It reads the step's
// solved voltages from st and returns the full next state (voltages
// committed) with the energy increment h·Σ power the step must have
// added.
func ReferenceSlowStep(st *IMEXStepper, h float64, pre la.Vector) (la.Vector, float64) {
	c := st.c
	p := &c.Params
	next := pre.Clone()
	var power float64
	mb := &c.memBr
	for j := 0; j < mb.len(); j++ {
		d := st.nodeV[mb.node[j]] - mb.level(j, st.nodeV)
		xi := pre[c.xOff()+j]
		power += float64(p.Mem.G(xi) * d * d)
		next[c.xOff()+j] = memristor.Clamp(xi + float64(h*p.Mem.DxDt(xi, mb.sigma[j]*d)))
	}
	rb := &c.resBr
	invR := 1 / p.R
	for j := 0; j < rb.len(); j++ {
		d := st.nodeV[rb.node[j]] - rb.level(j, st.nodeV)
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
	mb := &c.memBr
	in := SlowInputs{
		Sigma: append([]float64(nil), mb.sigma...),
		X:     append([]float64(nil), pre[c.xOff():c.xOff()+c.nm]...),
		G:     append([]float64(nil), st.g[:c.nm]...),
		I:     append([]float64(nil), pre[c.iOff():c.iOff()+c.nd]...),
		S:     append([]float64(nil), pre[c.sOff():c.sOff()+c.nd]...),
	}
	for j := 0; j < mb.len(); j++ {
		in.D = append(in.D, st.nodeV[mb.node[j]]-mb.level(j, st.nodeV))
	}
	for _, node := range c.dcgNodes {
		in.V = append(in.V, st.nodeV[node])
	}
	return in
}
