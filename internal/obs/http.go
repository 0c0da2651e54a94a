package obs

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"time"
)

// Health is the /healthz document: build identity, uptime, and whatever
// readiness the binary reports. It is JSON so dashboards and the smoke
// target can assert on fields instead of scraping text.
type Health struct {
	Status    string  `json:"status"` // "ok" while the process serves
	Binary    string  `json:"binary"`
	PID       int     `json:"pid"`
	GoVersion string  `json:"go_version"`
	Procs     int     `json:"gomaxprocs"`
	StartedAt string  `json:"started_at"` // RFC 3339
	UptimeSec float64 `json:"uptime_seconds"`
	Ready     bool    `json:"ready"`
}

// Server is the observability endpoint of one binary: /metrics (the
// registry's Prometheus rendering), /healthz (JSON), /debug/pprof/* (CPU
// and memory profiling mid-sweep), and /debug/vars (expvar).
type Server struct {
	reg     *Registry
	binary  string
	started time.Time
	ready   func() bool
	ln      net.Listener
	srv     *http.Server
}

// Serve starts the observability server on addr (e.g. ":9090" or
// "127.0.0.1:0"). It binds synchronously — so the caller can report the
// resolved address, and ":0" works for tests and parallel CI — then
// serves in a background goroutine until Close. ready, when non-nil, is
// sampled by /healthz; a nil ready always reports true.
func Serve(addr, binary string, reg *Registry, ready func() bool) (*Server, error) {
	return ServeWith(addr, binary, reg, ready, nil)
}

// ServeWith is Serve with extra routes: mount, when non-nil, is called
// with the mux before the server starts, so a binary can hang its own
// API beside /metrics, /healthz and /debug/pprof on one listener (how
// cmd/partreed mounts /v1/*). Mounted patterns must not collide with the
// built-in ones.
func ServeWith(addr, binary string, reg *Registry, ready func() bool, mount func(*http.ServeMux)) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &Server{reg: reg, binary: binary, started: time.Now(), ready: ready, ln: ln}
	mux := http.NewServeMux()
	if mount != nil {
		mount(mux)
	}
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(ln)
	return s, nil
}

// SetLogger installs the process's default slog logger the way every
// binary does: text lines to w at the -v level, each tagged bin=binary
// (the name /healthz reports).
func SetLogger(w io.Writer, binary, level string) error {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return fmt.Errorf("bad -v level %q (valid: debug, info, warn, error)", level)
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: lvl})).With("bin", binary))
	return nil
}

// Addr returns the resolved listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns "http://host:port" for the resolved address.
func (s *Server) URL() string {
	host, port, _ := net.SplitHostPort(s.Addr())
	if host == "" || host == "::" || host == "0.0.0.0" {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}

// Close stops the listener and in-flight handlers.
func (s *Server) Close() error { return s.srv.Close() }

// Shutdown stops the listener but lets in-flight handlers finish writing
// (bounded by ctx) — what a graceful drain wants, where Close cuts them.
func (s *Server) Shutdown(ctx context.Context) error { return s.srv.Shutdown(ctx) }

// Health snapshots the /healthz document.
func (s *Server) Health() Health {
	ready := true
	if s.ready != nil {
		ready = s.ready()
	}
	return Health{
		Status:    "ok",
		Binary:    s.binary,
		PID:       os.Getpid(),
		GoVersion: runtime.Version(),
		Procs:     runtime.GOMAXPROCS(0),
		StartedAt: s.started.UTC().Format(time.RFC3339),
		UptimeSec: time.Since(s.started).Seconds(),
		Ready:     ready,
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Health())
}
