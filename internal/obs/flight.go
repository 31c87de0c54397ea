package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Flight sizing defaults: each attempt keeps the most recent
// DefaultFlightCap accepted-step records, and a FlightSet retains the
// rings of the DefaultFlightKeep most recently launched attempts for
// /debug/flight.
const (
	DefaultFlightCap  = 512
	DefaultFlightKeep = 16
)

// flightFields is the per-record word count of the ring storage.
const flightFields = 5

// FlightRecord is one accepted integration step in an attempt's flight
// ring: the post-mortem trajectory sample dumped as JSONL on divergence
// or cancellation.
type FlightRecord struct {
	// Attempt is the restart attempt index that produced the record.
	Attempt int `json:"attempt"`
	// Step counts accepted steps within the attempt (1-based).
	Step int64 `json:"step"`
	// T is the dynamical time reached by the step (accumulated from the
	// accepted step sizes; attempts integrate from t=0).
	T float64 `json:"t"`
	// H is the accepted step size.
	H float64 `json:"h"`
	// MaxDvDt is the last decimated physics-probe max |dv/dt| sample
	// (0 until the first sample).
	MaxDvDt float64 `json:"max_dvdt"`
	// SatFrac is the last decimated saturation-fraction sample.
	SatFrac float64 `json:"sat_frac"`
}

// Flight is one attempt's bounded flight ring: a lock-free single-writer
// ring buffer of the most recent accepted-step records. The integration
// goroutine is the only writer (Record, Physics); concurrent readers (the
// /debug/flight endpoint) snapshot slots under a per-slot seqlock — every
// stored word lives in a typed atomic, so reads are race-free and a torn
// slot is detected by its sequence word and skipped. A nil *Flight disables recording; every method is
// nil-receiver safe and the write path allocates nothing.
type Flight struct {
	attempt int
	mask    int             // ring capacity - 1 (capacity is a power of two)
	head    atomic.Int64    // records ever written; head & mask is the next slot
	seq     []atomic.Uint64 // per-slot seqlock word (odd while the slot is being written)
	data    []atomic.Uint64 // flightFields words per slot

	// Single-writer accumulation state between Record commits. These
	// plain fields are only ever touched by the attempt's integration
	// goroutine.
	t        float64
	step     int64
	lastDvDt float64
	lastSat  float64
}

// newFlight returns a ring of capacity ≥ cap rounded up to a power of
// two.
func newFlight(attempt, capRecords int) *Flight {
	n := 1
	for n < capRecords {
		n <<= 1
	}
	return &Flight{
		attempt: attempt,
		mask:    n - 1,
		seq:     make([]atomic.Uint64, n),
		data:    make([]atomic.Uint64, n*flightFields),
	}
}

// Physics notes the latest decimated physics-probe sample; it rides on
// every following record until the next sample.
//
//dmmvet:hotpath
func (f *Flight) Physics(satFrac, maxDvDt float64) {
	if f == nil {
		return
	}
	f.lastSat = satFrac
	f.lastDvDt = maxDvDt
}

// Record commits one accepted step of size h: it advances the attempt's
// dynamical time and publishes the record into the ring under the slot's
// seqlock.
//
//dmmvet:hotpath
func (f *Flight) Record(h float64) {
	if f == nil {
		return
	}
	f.t += h
	f.step++
	slot := int(f.head.Load()) & f.mask
	f.seq[slot].Add(1) // odd: writers in the slot
	d := f.data[slot*flightFields : (slot+1)*flightFields]
	d[0].Store(uint64(f.step))
	d[1].Store(math.Float64bits(f.t))
	d[2].Store(math.Float64bits(h))
	d[3].Store(math.Float64bits(f.lastDvDt))
	d[4].Store(math.Float64bits(f.lastSat))
	f.seq[slot].Add(1) // even again: slot stable
	f.head.Add(1)
}

// Len returns the number of records currently held (≤ capacity).
func (f *Flight) Len() int {
	if f == nil {
		return 0
	}
	n := f.head.Load()
	if c := int64(f.mask + 1); n > c {
		n = c
	}
	return int(n)
}

// Records snapshots the ring's current contents, oldest first. It is
// safe against a concurrently stepping writer: slots caught mid-write
// are skipped, and records are re-sorted by step so a wrap during the
// scan cannot reorder the dump.
func (f *Flight) Records() []FlightRecord {
	if f == nil {
		return nil
	}
	head := f.head.Load()
	lo := head - int64(f.mask+1)
	if lo < 0 {
		lo = 0
	}
	out := make([]FlightRecord, 0, head-lo)
	var d [flightFields]uint64
	for i := lo; i < head; i++ {
		slot := int(i) & f.mask
		ok := false
		for try := 0; try < 4 && !ok; try++ {
			s1 := f.seq[slot].Load()
			if s1&1 != 0 {
				continue
			}
			for j := range d {
				d[j] = f.data[slot*flightFields+j].Load()
			}
			ok = f.seq[slot].Load() == s1
		}
		if !ok {
			continue
		}
		out = append(out, FlightRecord{
			Attempt: f.attempt,
			Step:    int64(d[0]),
			T:       math.Float64frombits(d[1]),
			H:       math.Float64frombits(d[2]),
			MaxDvDt: math.Float64frombits(d[3]),
			SatFrac: math.Float64frombits(d[4]),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Step < out[j].Step })
	// A wrap during the scan can surface the same step twice; keep the
	// first of each.
	dedup := out[:0]
	var prev int64 = -1
	for _, r := range out {
		if r.Step != prev {
			dedup = append(dedup, r)
			prev = r.Step
		}
	}
	return dedup
}

// FlightSet owns the flight rings of one run: it hands a fresh ring to
// every launched attempt, retains the most recent rings for
// /debug/flight, and dumps retired rings as JSONL onto the configured
// sink when an attempt diverges or is cancelled.
type FlightSet struct {
	mu      sync.Mutex
	cap     int
	keep    int
	rings   []*Flight // most recently launched last
	sink    io.Writer // JSONL dump target; nil keeps rings in memory only
	sinkErr error
	dumped  int
}

// NewFlightSet returns a flight-recorder set keeping `keep` recent
// attempt rings of `capRecords` records each (defaults apply when ≤ 0).
// sink, when non-nil, receives the JSONL dump of every retired-with-dump
// ring.
func NewFlightSet(capRecords, keep int, sink io.Writer) *FlightSet {
	if capRecords <= 0 {
		capRecords = DefaultFlightCap
	}
	if keep <= 0 {
		keep = DefaultFlightKeep
	}
	return &FlightSet{cap: capRecords, keep: keep, sink: sink}
}

// Attempt registers and returns a fresh ring for the given attempt
// index (nil from a nil set, so callers thread it unconditionally).
func (fs *FlightSet) Attempt(attempt int) *Flight {
	if fs == nil {
		return nil
	}
	f := newFlight(attempt, fs.cap)
	fs.mu.Lock()
	fs.rings = append(fs.rings, f)
	if len(fs.rings) > fs.keep {
		fs.rings = append(fs.rings[:0], fs.rings[len(fs.rings)-fs.keep:]...)
	}
	fs.mu.Unlock()
	return f
}

// Retire ends an attempt's recording. With dump set (divergence and
// cancellation post-mortems) the ring's records are written as JSONL to
// the sink; the ring stays retained for /debug/flight either way. Write
// errors are sticky and reported by Err.
func (fs *FlightSet) Retire(f *Flight, dump bool) {
	if fs == nil || f == nil || !dump {
		return
	}
	recs := f.Records()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.sink == nil {
		return
	}
	enc := json.NewEncoder(fs.sink)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			if fs.sinkErr == nil {
				fs.sinkErr = err
			}
			return
		}
		fs.dumped++
	}
}

// Dumped returns the number of records written to the sink so far.
func (fs *FlightSet) Dumped() int {
	if fs == nil {
		return 0
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.dumped
}

// Err returns the first sink write error, if any.
func (fs *FlightSet) Err() error {
	if fs == nil {
		return nil
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.sinkErr
}

// WriteJSONL writes every retained ring's current records as JSON lines
// (the /debug/flight payload), oldest attempt first.
func (fs *FlightSet) WriteJSONL(w io.Writer) error {
	if fs == nil {
		return nil
	}
	fs.mu.Lock()
	rings := append([]*Flight(nil), fs.rings...)
	fs.mu.Unlock()
	enc := json.NewEncoder(w)
	for _, f := range rings {
		recs := f.Records()
		for i := range recs {
			if err := enc.Encode(&recs[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// ValidateFlightJSONL checks a flight-recorder dump against the record
// schema: every line is a well-formed FlightRecord with no unknown
// fields, step sizes are positive, times are positive and nondecreasing
// per attempt, and step counters are strictly increasing per attempt.
// The stream may interleave multiple
// attempts (each ring dumps contiguously, but a run retires many).
func ValidateFlightJSONL(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	line := 0
	lastStep := make(map[int]int64)
	lastT := make(map[int]float64)
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			return fmt.Errorf("obs: flight line %d: empty line", line)
		}
		dec := json.NewDecoder(strings.NewReader(text))
		dec.DisallowUnknownFields()
		var rec FlightRecord
		if err := dec.Decode(&rec); err != nil {
			return fmt.Errorf("obs: flight line %d: %w", line, err)
		}
		if rec.Attempt < 0 {
			return fmt.Errorf("obs: flight line %d: negative attempt index", line)
		}
		if rec.Step < 1 {
			return fmt.Errorf("obs: flight line %d: step must be ≥ 1, got %d", line, rec.Step)
		}
		if !(rec.H > 0) {
			return fmt.Errorf("obs: flight line %d: step size must be positive, got %g", line, rec.H)
		}
		if !(rec.T > 0) {
			return fmt.Errorf("obs: flight line %d: time must be positive, got %g", line, rec.T)
		}
		if prev, ok := lastStep[rec.Attempt]; ok {
			if rec.Step <= prev {
				return fmt.Errorf("obs: flight line %d: attempt %d step %d not increasing (prev %d)", line, rec.Attempt, rec.Step, prev)
			}
			if rec.T < lastT[rec.Attempt] {
				return fmt.Errorf("obs: flight line %d: attempt %d time %g decreased (prev %g)", line, rec.Attempt, rec.T, lastT[rec.Attempt])
			}
		}
		lastStep[rec.Attempt] = rec.Step
		lastT[rec.Attempt] = rec.T
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("obs: flight: %w", err)
	}
	if line == 0 {
		return fmt.Errorf("obs: empty flight stream")
	}
	return nil
}
