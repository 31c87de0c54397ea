package device

// RampSource is a DC voltage generator whose output rises smoothly from 0
// to Target over TRise (the paper switches the input generators on
// gradually; Sec. VII-A uses a ramp time growing with the problem size,
// "although not necessary").
type RampSource struct {
	Target float64
	TRise  float64
}

// V returns the source voltage at time t. The profile is the C¹ smoothstep
// 3u² - 2u³ on [0, TRise] so the initial transient injects no slope
// discontinuity into the integration.
func (s RampSource) V(t float64) float64 {
	if s.TRise <= 0 || t >= s.TRise {
		return s.Target
	}
	if t <= 0 {
		return 0
	}
	u := t / s.TRise
	return s.Target * (float64(3*u*u) - float64(2*u*u*u))
}
