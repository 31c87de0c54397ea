package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
)

// flightCap is the record capacity of every attempt's flight ring: the
// most recent accepted steps an attempt keeps for its post-mortem dump.
const flightCap = 512

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

// Flight is one attempt's bounded flight ring: a single-writer ring of
// the most recent accepted-step records. The attempt's integration
// goroutine writes it (Physics, Record) and, once the attempt ends, reads
// it back through FlightSet.Retire, so the ring needs no synchronisation.
// A nil *Flight disables recording; every method is nil-receiver safe and
// the write path allocates nothing.
type Flight struct {
	attempt  int
	mask     int   // ring capacity - 1 (capacity is a power of two)
	head     int64 // records ever written; head & mask is the next slot
	recs     []FlightRecord
	t        float64 // dynamical time reached by the last record
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
	return &Flight{attempt: attempt, mask: n - 1, recs: make([]FlightRecord, n)}
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
// dynamical time and writes the record into the ring.
//
//dmmvet:hotpath
func (f *Flight) Record(h float64) {
	if f == nil {
		return
	}
	f.t += h
	f.recs[int(f.head)&f.mask] = FlightRecord{
		Attempt: f.attempt,
		Step:    f.head + 1,
		T:       f.t,
		H:       h,
		MaxDvDt: f.lastDvDt,
		SatFrac: f.lastSat,
	}
	f.head++
}

// Len returns the number of records currently held (≤ capacity).
func (f *Flight) Len() int {
	if f == nil {
		return 0
	}
	return int(min(f.head, int64(f.mask+1)))
}

// Records copies the ring's current contents, oldest first.
func (f *Flight) Records() []FlightRecord {
	if f == nil {
		return nil
	}
	out := make([]FlightRecord, 0, f.Len())
	for i := f.head - int64(f.Len()); i < f.head; i++ {
		out = append(out, f.recs[int(i)&f.mask])
	}
	return out
}

// FlightSet owns the flight rings of one run: it hands a fresh ring to
// every launched attempt and dumps a retired ring as JSONL onto the
// configured sink when its attempt diverges or is cancelled. Racing
// attempts retire concurrently, so the sink and its tallies are guarded.
type FlightSet struct {
	mu      sync.Mutex
	sink    io.Writer // JSONL dump target; nil records without dumping
	sinkErr error
	dumped  int
}

// NewFlightSet returns a flight-recorder set whose rings keep the last
// flightCap accepted steps of each attempt. sink, when non-nil, receives
// the JSONL dump of every retired-with-dump ring.
func NewFlightSet(sink io.Writer) *FlightSet {
	return &FlightSet{sink: sink}
}

// Attempt returns a fresh ring for the given attempt index (nil from a
// nil set, so callers thread it unconditionally).
func (fs *FlightSet) Attempt(attempt int) *Flight {
	if fs == nil {
		return nil
	}
	return newFlight(attempt, flightCap)
}

// Retire ends an attempt's recording on the attempt's own goroutine.
// With dump set (divergence and cancellation post-mortems) the ring's
// records are written as JSONL to the sink. Write errors are sticky and
// reported by Err.
func (fs *FlightSet) Retire(f *Flight, dump bool) {
	if fs == nil || f == nil || !dump || fs.sink == nil {
		return
	}
	recs := f.Records()
	fs.mu.Lock()
	defer fs.mu.Unlock()
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
