package cmdobs

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/par"
)

// Server is the live exposition surface of one telemetry bundle: the
// stdlib HTTP server behind the -listen flag. It serves
//
//	/metrics       Prometheus text format (0.0.4) from Registry.Snapshot
//	/healthz       200 "ok", or 503 "draining" once Shutdown has begun
//	/debug/phases  the phase-span breakdown as indented JSON
//	/debug/flight  retained flight-recorder rings as JSONL
//
// Scrapes race the stepping hot loop by design: every instrument is
// atomic, so snapshots need no stop-the-world.
type Server struct {
	tl       *obs.Telemetry
	srv      *http.Server
	lis      net.Listener
	draining atomic.Bool
	done     chan struct{} // closed when the serve goroutine returns
}

// Serve starts the exposition server on addr (host:port; :0 picks a free
// port — see Addr). The accept loop runs on a par.Go goroutine; callers
// own its termination through Shutdown.
func Serve(addr string, tl *obs.Telemetry) (*Server, error) {
	if tl == nil {
		return nil, fmt.Errorf("cmdobs: Serve requires a telemetry bundle")
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cmdobs: listen %s: %w", addr, err)
	}
	s := &Server{tl: tl, lis: lis, done: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/debug/phases", s.handlePhases)
	mux.HandleFunc("/debug/flight", s.handleFlight)
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	par.Go(func() {
		defer close(s.done)
		// ErrServerClosed is the orderly Shutdown signal; anything else
		// is surfaced through the health endpoint being unreachable.
		_ = s.srv.Serve(lis)
	})
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Shutdown drains the server gracefully: /healthz flips to 503 first so
// load balancers stop routing, then in-flight requests complete (bounded
// by ctx), and the accept goroutine is joined before returning.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	err := s.srv.Shutdown(ctx)
	<-s.done
	return err
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.tl.Registry.Snapshot().WritePrometheus(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (s *Server) handlePhases(w http.ResponseWriter, _ *http.Request) {
	snap := s.tl.Spans.Snapshot()
	if snap == nil {
		http.Error(w, "span profiling not enabled", http.StatusNotFound)
		return
	}
	b, err := snap.MarshalJSONIndent()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
	io.WriteString(w, "\n")
}

func (s *Server) handleFlight(w http.ResponseWriter, _ *http.Request) {
	if s.tl.Flight == nil {
		http.Error(w, "flight recorder not enabled", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	_ = s.tl.Flight.WriteJSONL(w)
}
