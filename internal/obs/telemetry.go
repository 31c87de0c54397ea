package obs

// DefaultPhysicsEvery is the default decimation cadence of the physics
// probe: one circuit-state sample every this many accepted steps.
const DefaultPhysicsEvery = 256

// Telemetry bundles the registry, the event tracer and the named
// instruments of one solver run. All instruments are safe for concurrent
// use by racing portfolio attempts; a nil *Telemetry disables the layer
// (the hot-path hooks are nil-receiver safe).
type Telemetry struct {
	Registry *Registry
	// Tracer receives attempt-lifecycle events; nil disables tracing
	// while keeping the metrics.
	Tracer *Tracer
	// PhysicsEvery is the physics-probe decimation cadence in accepted
	// steps (DefaultPhysicsEvery when 0).
	PhysicsEvery int

	// Spans is the phase-span profiler; nil disables span profiling
	// (the hot-path laps are nil-receiver safe).
	Spans *Spans
	// Flight is the divergence flight recorder; nil disables it.
	Flight *FlightSet
	// Conv aggregates convergence times across solved attempts
	// (always present so the summary can report quantiles/CCDF).
	Conv *ConvStats

	// Attempt lifecycle.
	AttemptsLaunched  *Counter
	AttemptsConverged *Counter
	AttemptsCancelled *Counter
	AttemptsDiverged  *Counter

	// Integration. Steps and Rejected count live, through the driver's
	// StepObs; FEvals and Refactors take each attempt's stepper count
	// once, when the attempt ends (the IMEX step is one of each).
	Steps     *Counter
	Rejected  *Counter
	FEvals    *Counter
	Refactors *Counter
	// FactorHits and Refines have no producer (the IMEX step refactors
	// every step and refines never); they stay registered (always 0)
	// for readers of the factor.cache_hits and factor.refines metrics.
	FactorHits *Counter
	Refines    *Counter

	// Distributions.
	StepSize    *Histogram // accepted step size h
	ConvTime    *Histogram // dynamical time to convergence per solved attempt
	AttemptWall *Histogram // wall seconds per finished attempt
	MemState    *Histogram // memristor internal state x ∈ [0,1]

	// Physics gauges (last sample wins; Energy accumulates).
	SatFrac *Gauge // fraction of node voltages saturated at ±vc
	MaxDvDt *Gauge // max |dv/dt| — distance-to-equilibrium proxy
	MaxDxDt *Gauge // max |dx/dt| over the full state
	Energy  *Gauge // dissipated energy ∫ Σ g·d² dt
}

// NewTelemetry returns a telemetry bundle with every instrument
// registered under its canonical name.
func NewTelemetry() *Telemetry {
	r := NewRegistry()
	return &Telemetry{
		Registry:          r,
		PhysicsEvery:      DefaultPhysicsEvery,
		Conv:              NewConvStats(),
		AttemptsLaunched:  r.Counter("attempts.launched"),
		AttemptsConverged: r.Counter("attempts.converged"),
		AttemptsCancelled: r.Counter("attempts.cancelled"),
		AttemptsDiverged:  r.Counter("attempts.diverged"),
		Steps:             r.Counter("steps.accepted"),
		Rejected:          r.Counter("steps.rejected"),
		FEvals:            r.Counter("fevals"),
		Refactors:         r.Counter("refactors"),
		FactorHits:        r.Counter("factor.cache_hits"),
		Refines:           r.Counter("factor.refines"),
		StepSize:          r.Histogram("step.size", ExpBuckets(1e-7, 10, 8)),
		ConvTime:          r.Histogram("attempt.conv_time", ExpBuckets(0.5, 2, 12)),
		AttemptWall:       r.Histogram("attempt.wall_seconds", ExpBuckets(1e-3, 2, 16)),
		MemState:          r.Histogram("physics.mem_state", LinearBuckets(0.1, 0.1, 10)),
		SatFrac:           r.Gauge("physics.saturated_frac"),
		MaxDvDt:           r.Gauge("physics.max_dvdt"),
		MaxDxDt:           r.Gauge("physics.max_dxdt"),
		Energy:            r.Gauge("physics.energy"),
	}
}

// StepObs is the per-step hook set handed to the ODE driver, the one
// authority on step acceptance. Every method is nil-receiver safe so
// instrumented code paths need no telemetry-enabled branch, and every
// method is allocation-free.
type StepObs struct {
	steps    *Counter
	rejected *Counter
	stepSize *Histogram
	spans    *Spans
	flight   *Flight
}

// StepObsFor returns a hook set feeding the given attempt flight ring
// alongside the run-wide instruments (nil for a nil telemetry; a nil
// flight is fine and leaves only the recorder disabled).
func (tl *Telemetry) StepObsFor(fl *Flight) *StepObs {
	if tl == nil {
		return nil
	}
	return &StepObs{
		steps:    tl.Steps,
		rejected: tl.Rejected,
		stepSize: tl.StepSize,
		spans:    tl.Spans,
		flight:   fl,
	}
}

// Accept records one accepted step of size h.
//
//dmmvet:hotpath
func (o *StepObs) Accept(h float64) {
	if o == nil {
		return
	}
	o.steps.Inc()
	o.stepSize.Observe(h)
	o.flight.Record(h)
}

// Reject records one rejected or retried step.
//
//dmmvet:hotpath
func (o *StepObs) Reject() {
	if o == nil {
		return
	}
	o.rejected.Inc()
}

// SpanBegin opens a phase-span interval (0 without span profiling); it
// lets code outside the stepper — the ODE driver's accept/reject
// bookkeeping — lap against the run's Spans without holding it.
//
//dmmvet:hotpath
func (o *StepObs) SpanBegin() int64 {
	if o == nil {
		return 0
	}
	return o.spans.Begin()
}

// SpanEnd charges the interval opened by SpanBegin to phase p.
//
//dmmvet:hotpath
func (o *StepObs) SpanEnd(p Phase, tok int64) {
	if o == nil {
		return
	}
	o.spans.End(p, tok)
}

// FlightFor returns a fresh flight ring for the given attempt index, or
// nil when the telemetry bundle (or its flight recorder) is disabled —
// callers thread the result unconditionally.
func (tl *Telemetry) FlightFor(attempt int) *Flight {
	if tl == nil {
		return nil
	}
	return tl.Flight.Attempt(attempt)
}

// Emit forwards an event to the tracer, if any.
func (tl *Telemetry) Emit(e Event) {
	if tl == nil || tl.Tracer == nil {
		return
	}
	tl.Tracer.Emit(e)
}

// EmitSnapshot takes a registry snapshot, emits it as the final metrics
// event when tracing, and returns it.
func (tl *Telemetry) EmitSnapshot() *Snapshot {
	if tl == nil {
		return nil
	}
	s := tl.Registry.Snapshot()
	s.Spans = tl.Spans.Snapshot()
	s.Conv = tl.Conv.Snapshot()
	if tl.Tracer != nil {
		tl.Tracer.Emit(Event{Ev: EvMetrics, Attempt: -1, Metrics: s})
	}
	return s
}

// RecordPhysics folds one decimated physics sample into the gauges and
// the memristor-state histogram. memHist holds per-bucket occupation
// counts over [0,1]; they are folded in at bucket midpoints.
//
//dmmvet:hotpath
func (tl *Telemetry) RecordPhysics(satFrac, maxDvDt, maxDxDt float64, memHist []int32) {
	if tl == nil {
		return
	}
	tl.SatFrac.Set(satFrac)
	tl.MaxDvDt.Set(maxDvDt)
	tl.MaxDxDt.Set(maxDxDt)
	nb := len(memHist)
	for i, n := range memHist {
		if n > 0 {
			tl.MemState.ObserveN((float64(i)+0.5)/float64(nb), int64(n))
		}
	}
}
