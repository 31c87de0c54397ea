package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestFlightNilSafe(t *testing.T) {
	var f *Flight
	f.Physics(0.5, 2.0)
	f.Record(1e-3)
	if f.Len() != 0 || f.Records() != nil {
		t.Fatal("nil Flight must report empty")
	}
	var fs *FlightSet
	if fs.Attempt(0) != nil {
		t.Fatal("nil FlightSet must hand out nil rings")
	}
	fs.Retire(nil, true)
	if fs.Dumped() != 0 || fs.Err() != nil {
		t.Fatal("nil FlightSet must be inert")
	}
}

func TestFlightRecordFields(t *testing.T) {
	f := newFlight(3, 8)
	f.Physics(0.25, 7.5)
	f.Record(0.5)
	f.Record(2.0)

	recs := f.Records()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	r0 := recs[0]
	if r0.Attempt != 3 || r0.Step != 1 || r0.T != 0.5 || r0.H != 0.5 {
		t.Fatalf("record 0 = %+v", r0)
	}
	if r0.SatFrac != 0.25 || r0.MaxDvDt != 7.5 {
		t.Fatalf("record 0 physics = %+v", r0)
	}
	r1 := recs[1]
	if r1.Step != 2 || r1.T != 2.5 || r1.H != 2.0 {
		t.Fatalf("record 1 = %+v, want step 2, t 2.5, h 2", r1)
	}
	if r1.SatFrac != 0.25 {
		t.Fatalf("physics sample must ride on following records: %+v", r1)
	}
}

func TestFlightRingWrap(t *testing.T) {
	f := newFlight(0, 4)
	for i := 0; i < 11; i++ {
		f.Record(1e-3)
	}
	if f.Len() != 4 {
		t.Fatalf("Len = %d, want capacity 4", f.Len())
	}
	recs := f.Records()
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	for i, r := range recs {
		want := int64(8 + i) // most recent 4 of 11
		if r.Step != want {
			t.Fatalf("record %d step = %d, want %d", i, r.Step, want)
		}
	}
}

func TestFlightWriteZeroAlloc(t *testing.T) {
	f := newFlight(0, flightCap)
	allocs := testing.AllocsPerRun(1000, func() {
		f.Physics(0.5, 1)
		f.Record(1e-3)
	})
	if allocs != 0 {
		t.Fatalf("flight write path allocates %.1f/op, want 0", allocs)
	}
}

// TestFlightSetRetainAndDump checks that Retire dumps a ring only when
// asked (divergence, cancellation) and that the dump passes the schema.
func TestFlightSetRetainAndDump(t *testing.T) {
	var sink bytes.Buffer
	fs := NewFlightSet(&sink)

	f1 := fs.Attempt(1)
	f2 := fs.Attempt(2)
	for i, f := range []*Flight{f1, f2} {
		for s := 0; s <= i+1; s++ {
			f.Record(1e-3)
		}
	}

	fs.Retire(f1, false) // solved: no dump
	if fs.Dumped() != 0 || sink.Len() != 0 {
		t.Fatal("solved retirement must not dump")
	}
	fs.Retire(f2, true) // diverged: dump 3 records
	if fs.Dumped() != 3 {
		t.Fatalf("dumped = %d, want 3", fs.Dumped())
	}
	if err := fs.Err(); err != nil {
		t.Fatal(err)
	}
	if err := ValidateFlightJSONL(&sink); err != nil {
		t.Fatalf("dump fails schema validation: %v", err)
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, bytes.ErrTooLarge
	}
	w.n--
	return len(p), nil
}

func TestFlightSetSinkErrorSticky(t *testing.T) {
	fs := NewFlightSet(&failWriter{n: 1})
	f := fs.Attempt(0)
	f.Record(1e-3)
	f.Record(1e-3)
	fs.Retire(f, true)
	if fs.Err() == nil {
		t.Fatal("sink error must be reported")
	}
	if fs.Dumped() != 1 {
		t.Fatalf("dumped = %d, want 1 (the line before the failure)", fs.Dumped())
	}
}

func TestValidateFlightJSONL(t *testing.T) {
	good := `{"attempt":0,"step":1,"t":0.001,"h":0.001,"max_dvdt":0,"sat_frac":0}
{"attempt":1,"step":1,"t":0.002,"h":0.002,"max_dvdt":3,"sat_frac":0.5}
{"attempt":0,"step":2,"t":0.002,"h":0.001,"max_dvdt":0,"sat_frac":0}
`
	if err := ValidateFlightJSONL(strings.NewReader(good)); err != nil {
		t.Fatalf("good interleaved stream rejected: %v", err)
	}
	bad := map[string]string{
		"empty stream":  "",
		"unknown field": `{"attempt":0,"step":1,"t":1,"h":1,"bogus":1}` + "\n",
		"zero step":     `{"attempt":0,"step":0,"t":1,"h":1}` + "\n",
		"negative h":    `{"attempt":0,"step":1,"t":1,"h":-1}` + "\n",
		"zero t":        `{"attempt":0,"step":1,"t":0,"h":1}` + "\n",
		"step not increasing": `{"attempt":0,"step":2,"t":1,"h":1}` + "\n" +
			`{"attempt":0,"step":2,"t":2,"h":1}` + "\n",
		"time decreasing": `{"attempt":0,"step":1,"t":5,"h":1}` + "\n" +
			`{"attempt":0,"step":2,"t":4,"h":1}` + "\n",
		"retired refines field": `{"attempt":0,"step":1,"t":1,"h":1,"refines":0}` + "\n",
	}
	for name, stream := range bad {
		if err := ValidateFlightJSONL(strings.NewReader(stream)); err == nil {
			t.Fatalf("%s: invalid stream accepted", name)
		}
	}
}
