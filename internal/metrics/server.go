package metrics

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"time"
)

// Server exposes a process's observability surface over HTTP:
//
//   - /metrics  — Prometheus text exposition (version 0.0.4): every
//     registered collector, plus built-in Go runtime gauges;
//   - /statusz  — a JSON status document from the registered status
//     function (an empty object until one is set);
//   - /debug/pprof/ — the standard net/http/pprof handlers.
//
// The server always runs in the real-time domain (kernel sockets do not
// consult the simulated clock); it observes virtual-time workloads from
// the outside, which is safe because collectors only read atomics and
// mutex-guarded snapshots.
type Server struct {
	addr string
	mux  *http.ServeMux
	srv  *http.Server
	lis  net.Listener

	mu         sync.Mutex
	collectors []func(io.Writer)
	status     func() any
}

// NewServer returns an unstarted server that will listen on addr
// (e.g. ":8080"). Runtime metrics are pre-registered.
func NewServer(addr string) *Server {
	s := &Server{addr: addr, mux: http.NewServeMux()}
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/statusz", s.handleStatusz)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.AddCollector(WriteRuntimeMetrics)
	return s
}

// AddCollector registers a function that writes zero or more metrics in
// Prometheus text format; every /metrics scrape invokes all collectors in
// registration order.
func (s *Server) AddCollector(c func(io.Writer)) {
	s.mu.Lock()
	s.collectors = append(s.collectors, c)
	s.mu.Unlock()
}

// SetStatus registers the function whose result /statusz serves as JSON.
func (s *Server) SetStatus(f func() any) {
	s.mu.Lock()
	s.status = f
	s.mu.Unlock()
}

// Handler returns the server's routing handler, for tests and embedding.
func (s *Server) Handler() http.Handler { return s.mux }

// Start binds the listen address and begins serving in the background.
func (s *Server) Start() error {
	lis, err := net.Listen("tcp", s.addr)
	if err != nil {
		return fmt.Errorf("metrics: listen %s: %w", s.addr, err)
	}
	s.lis = lis
	s.srv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 5 * time.Second}
	go s.srv.Serve(lis) //nolint:errcheck // Serve always returns non-nil on Shutdown
	return nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string {
	if s.lis == nil {
		return s.addr
	}
	return s.lis.Addr().String()
}

// Shutdown gracefully stops the server: in-flight scrapes complete, new
// connections are refused.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Shutdown(ctx)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	collectors := make([]func(io.Writer), len(s.collectors))
	copy(collectors, s.collectors)
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	for _, c := range collectors {
		c(w)
	}
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	status := s.status
	s.mu.Unlock()
	var doc any = struct{}{}
	if status != nil {
		doc = status()
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// WriteRuntimeMetrics emits Go runtime gauges (goroutines, heap, GC) in
// Prometheus text format. Registered on every server by default.
func WriteRuntimeMetrics(w io.Writer) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(w, "# TYPE go_goroutines gauge\ngo_goroutines %d\n", runtime.NumGoroutine())
	fmt.Fprintf(w, "# TYPE go_heap_alloc_bytes gauge\ngo_heap_alloc_bytes %d\n", ms.HeapAlloc)
	fmt.Fprintf(w, "# TYPE go_heap_objects gauge\ngo_heap_objects %d\n", ms.HeapObjects)
	fmt.Fprintf(w, "# TYPE go_gc_cycles_total counter\ngo_gc_cycles_total %d\n", ms.NumGC)
}
