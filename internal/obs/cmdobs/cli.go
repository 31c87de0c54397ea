// Package cmdobs is the command-line half of the telemetry layer: the
// observability flags the four cmds share (-telemetry, -metrics-dump,
// -cpuprofile, -memprofile, -listen, -spans, -flight) and the -listen
// exposition server. It lives apart from package obs, which holds the
// instruments themselves, so that only the cmds link flag, runtime/pprof
// and net/http: every other program that links the solver (the
// benchmark, the examples, the test binaries) carries none of them.
package cmdobs

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/obs"
)

// CmdObs is the shared observability surface of the cmds: the
// -telemetry/-metrics-dump flags plus the -cpuprofile/-memprofile pair
// that used to be wired by hand in dmm-bench only.
//
// Lifecycle: BindFlags before flag.Parse, Start after it, then a deferred
// Finish once the run's outcome is decided. The cmds therefore funnel
// through a run() function with a single exit so the deferred Finish
// always fires before os.Exit.
type CmdObs struct {
	prog string

	telemetryPath string
	validate      bool
	metricsDump   bool
	cpuProfile    string
	memProfile    string
	listenAddr    string
	spans         bool
	flightPath    string

	// Telemetry is non-nil between Start and Finish whenever any
	// telemetry flag was given; pass it to solc.Options / core.Config.
	Telemetry *obs.Telemetry

	cpuFile    *os.File
	traceFile  *os.File
	flightFile *os.File
	server     *Server
}

// BindFlags registers the shared observability flags on fs and returns
// the unstarted CmdObs. prog names the command in error messages.
func BindFlags(prog string, fs *flag.FlagSet) *CmdObs {
	co := &CmdObs{prog: prog}
	fs.StringVar(&co.telemetryPath, "telemetry", "", "write attempt-lifecycle JSONL events and a final metrics snapshot to this file")
	fs.BoolVar(&co.validate, "telemetry-validate", false, "re-read the -telemetry file after the run and validate it against the event schema")
	fs.BoolVar(&co.metricsDump, "metrics-dump", false, "print the final metrics snapshot as indented JSON")
	fs.StringVar(&co.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&co.memProfile, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&co.listenAddr, "listen", "", "serve /metrics, /healthz, /debug/phases and /debug/flight on this address for the duration of the run")
	fs.BoolVar(&co.spans, "spans", false, "profile the IMEX step hot loop by phase and print the breakdown table (included in -metrics-dump JSON)")
	fs.StringVar(&co.flightPath, "flight", "", "record per-attempt flight rings and dump diverged/cancelled attempts as JSONL to this file")
	return co
}

// Enabled reports whether any telemetry output was requested (profiles
// alone do not count; they need no Telemetry instance).
func (co *CmdObs) Enabled() bool {
	return co.telemetryPath != "" || co.metricsDump || co.listenAddr != "" || co.spans || co.flightPath != ""
}

// Start opens the profile and telemetry outputs. On success co.Telemetry
// carries the run's instruments (nil when no telemetry flag was given).
func (co *CmdObs) Start() error {
	if co.cpuProfile != "" {
		f, err := os.Create(co.cpuProfile)
		if err != nil {
			return fmt.Errorf("%s: %w", co.prog, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("%s: %w", co.prog, err)
		}
		co.cpuFile = f
	}
	if co.Enabled() {
		co.Telemetry = obs.NewTelemetry()
		if co.telemetryPath != "" {
			f, err := os.Create(co.telemetryPath)
			if err != nil {
				co.stopCPU()
				return fmt.Errorf("%s: %w", co.prog, err)
			}
			co.traceFile = f
			co.Telemetry.Tracer = obs.NewTracer(f)
		}
		if co.spans {
			co.Telemetry.Spans = obs.NewSpans()
		}
		if co.flightPath != "" {
			f, err := os.Create(co.flightPath)
			if err != nil {
				co.close()
				return fmt.Errorf("%s: %w", co.prog, err)
			}
			co.flightFile = f
			co.Telemetry.Flight = obs.NewFlightSet(0, 0, f)
		} else if co.listenAddr != "" {
			// No dump sink, but keep rings in memory so /debug/flight
			// has post-mortem trajectories to serve.
			co.Telemetry.Flight = obs.NewFlightSet(0, 0, nil)
		}
		if co.listenAddr != "" {
			srv, err := Serve(co.listenAddr, co.Telemetry)
			if err != nil {
				co.close()
				return fmt.Errorf("%s: %w", co.prog, err)
			}
			co.server = srv
			fmt.Fprintf(os.Stderr, "%s: serving telemetry on http://%s\n", co.prog, srv.Addr())
		}
	}
	return nil
}

// close releases Start's partial state after a mid-Start failure.
func (co *CmdObs) close() {
	co.stopCPU()
	if co.traceFile != nil {
		co.traceFile.Close()
		co.traceFile = nil
	}
	if co.flightFile != nil {
		co.flightFile.Close()
		co.flightFile = nil
	}
}

func (co *CmdObs) stopCPU() {
	if co.cpuFile != nil {
		pprof.StopCPUProfile()
		co.cpuFile.Close()
		co.cpuFile = nil
	}
}

// Finish closes out the run: stops the CPU profile, writes the heap
// profile, emits the final metrics snapshot into the trace, prints the
// -metrics-dump JSON and the summary table to w, and optionally
// re-validates the written JSONL. Safe to call when Start never ran or
// failed.
func (co *CmdObs) Finish(w io.Writer) error {
	co.stopCPU()
	var firstErr error
	if co.memProfile != "" {
		if err := writeHeapProfile(co.memProfile); err != nil {
			firstErr = fmt.Errorf("%s: %w", co.prog, err)
		}
	}
	if co.server != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := co.server.Shutdown(ctx); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: listen: %w", co.prog, err)
		}
		cancel()
		co.server = nil
	}
	if co.Telemetry != nil {
		snap := co.Telemetry.EmitSnapshot()
		if tr := co.Telemetry.Tracer; tr != nil {
			if err := tr.Flush(); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("%s: telemetry: %w", co.prog, err)
			}
		}
		if co.traceFile != nil {
			if err := co.traceFile.Close(); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("%s: telemetry: %w", co.prog, err)
			}
			co.traceFile = nil
		}
		if co.metricsDump {
			out, err := snap.MarshalJSONIndent()
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", co.prog, err)
			} else {
				fmt.Fprintf(w, "%s\n", out)
			}
		}
		if err := snap.WriteSummary(w); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", co.prog, err)
		}
		if snap.Spans != nil {
			if err := snap.Spans.WriteTable(w); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", co.prog, err)
			}
		}
		if snap.Conv != nil {
			if err := snap.Conv.WriteSummary(w); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", co.prog, err)
			}
		}
		if fs := co.Telemetry.Flight; fs != nil {
			if err := fs.Err(); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("%s: flight: %w", co.prog, err)
			}
			if co.flightFile != nil {
				if n := fs.Dumped(); n > 0 {
					fmt.Fprintf(w, "flight recorder: %d records dumped to %s\n", n, co.flightPath)
				}
				if err := co.flightFile.Close(); err != nil && firstErr == nil {
					firstErr = fmt.Errorf("%s: flight: %w", co.prog, err)
				}
				co.flightFile = nil
			}
		}
		if co.validate && co.telemetryPath != "" {
			if err := co.validateFile(); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", co.prog, err)
			} else if err == nil {
				fmt.Fprintf(w, "telemetry: %s validates against the event schema\n", co.telemetryPath)
			}
		}
		co.Telemetry = nil
	}
	return firstErr
}

func (co *CmdObs) validateFile() error {
	f, err := os.Open(co.telemetryPath)
	if err != nil {
		return err
	}
	defer f.Close()
	return obs.ValidateJSONL(f)
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}
