package telemetry

import (
	"context"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// MetricsServer is the operational HTTP endpoint of one process: it
// serves the registry at /metrics (Prometheus text format) and the
// net/http/pprof profiling suite at /debug/pprof/.
type MetricsServer struct {
	ln  net.Listener
	srv *http.Server
}

// Mount attaches an extra handler to the operational endpoint, e.g.
// the tracing debug surface at /debug/trace/.
type Mount struct {
	// Pattern is an http.ServeMux pattern ("/debug/trace/").
	Pattern string
	Handler http.Handler
}

// Serve starts the operational endpoint on addr (e.g. ":9090" or
// "127.0.0.1:0") for the given registry, plus any extra mounts. It
// returns once the listener is bound.
func Serve(addr string, reg *Registry, mounts ...Mount) (*MetricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for _, m := range mounts {
		if m.Handler != nil {
			mux.Handle(m.Pattern, m.Handler)
		}
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	ms := &MetricsServer{ln: ln, srv: srv}
	go srv.Serve(ln)
	return ms, nil
}

// Addr returns the bound address.
func (m *MetricsServer) Addr() net.Addr { return m.ln.Addr() }

// Close shuts the endpoint down, waiting briefly for in-flight
// scrapes.
func (m *MetricsServer) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return m.srv.Shutdown(ctx)
}
