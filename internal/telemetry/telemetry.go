// Package telemetry is the wall-clock observability plane: live metrics
// exposition, an admin HTTP server, sweep progress/ETA tracking, process
// metrics, structured logging setup, and versioned benchmark-trajectory
// artifacts. It is the operational counterpart to internal/obs, which is
// the *sim-time* plane.
//
// The two planes obey one rule each:
//
//   - The sim-time plane (internal/obs) may only observe virtual time, so
//     same-seed runs stay byte-identical. It must never import this
//     package — the simdeterminism analyzer enforces that direction.
//
//   - The wall-clock plane (this package) may read the host clock freely,
//     but must never feed anything back into simulation behaviour or into
//     sim-time artifacts. Everything here is strictly additive and off by
//     default: a run with the admin server enabled produces byte-identical
//     sweep CSVs, traces and reports to a run without it.
//
// The bridge between the planes is data, not control: obs.Registry
// snapshots ([]obs.Metric) flow from per-run sim registries into the Live
// aggregate, which the admin server exposes in Prometheus text format.
package telemetry

import (
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"tcpsig/internal/obs"
)

// Server is the opt-in admin HTTP server. It serves:
//
//	/metrics        Prometheus text-format exposition of Metrics()
//	/healthz        liveness probe ("ok" while the process runs)
//	/progress       JSON sweep progress (chunks, runs, rate, ETA)
//	/debug/pprof/*  the standard runtime profiling endpoints
//
// All fields are optional; a zero Server still serves /healthz and pprof.
type Server struct {
	// Metrics returns the metric snapshot to expose. Compose several
	// sources with CombinedMetrics. Nil serves an empty exposition.
	Metrics func() []obs.Metric

	// Progress, when non-nil, backs the /progress endpoint.
	Progress *Progress

	srv *http.Server
	ln  net.Listener
}

// Start listens on addr (host:port; ":0" picks a free port) and serves in
// a background goroutine. It returns the bound address, so callers can
// log — and tests can dial — the actual port.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("telemetry: admin listen %s: %w", addr, err)
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := s.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			slog.Warn("telemetry: admin server stopped", "err", err)
		}
	}()
	return ln.Addr().String(), nil
}

// Close stops the listener and any in-flight handlers.
func (s *Server) Close() error {
	if s == nil || s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

// handler builds the admin mux. Exposed via Handler for httptest use.
func (s *Server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "tcpsig admin\n\n/metrics\n/healthz\n/progress\n/debug/pprof/\n")
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		var ms []obs.Metric
		if s.Metrics != nil {
			ms = s.Metrics()
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, ms)
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		s.Progress.WriteJSON(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Handler returns the admin HTTP handler without binding a port, for
// tests that drive it through net/http/httptest.
func (s *Server) Handler() http.Handler { return s.handler() }

// CombinedMetrics concatenates several snapshot sources into one, in
// order. Nil sources are skipped.
func CombinedMetrics(srcs ...func() []obs.Metric) func() []obs.Metric {
	return func() []obs.Metric {
		var out []obs.Metric
		for _, src := range srcs {
			if src != nil {
				out = append(out, src()...)
			}
		}
		return out
	}
}
