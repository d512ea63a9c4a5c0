package obs

import (
	"fmt"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"time"
)

// HTTPServer is the opt-in observability endpoint: it serves the
// Prometheus text exposition at /metrics and the Chrome trace_event
// JSON at /trace. Close shuts the listener and every active connection
// down and waits for the serve goroutine to exit, so servers that
// enable metrics leak nothing on shutdown.
type HTTPServer struct {
	ln   net.Listener
	srv  *http.Server
	done chan struct{}
}

// ServeScope starts the observability endpoint for scope on addr (use
// "127.0.0.1:0" to pick a free port). With pprof set it also mounts the
// net/http/pprof profiling handlers under /debug/pprof/, so a node's
// CPU, heap, mutex and goroutine profiles are reachable through the
// same mux as its metrics; profiles leak stack data, so they are
// opt-in.
func ServeScope(addr string, scope *Scope, pprof bool) (*HTTPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, `<html><body><h1>dpn observability</h1>`+
			`<p><a href="/metrics">/metrics</a> Prometheus text exposition</p>`+
			`<p><a href="/trace">/trace</a> Chrome trace_event JSON (load in chrome://tracing or Perfetto)</p>`)
		if pprof {
			fmt.Fprint(w, `<p><a href="/debug/pprof/">/debug/pprof/</a> Go runtime profiles</p>`)
		}
		fmt.Fprint(w, `</body></html>`)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := scope.WriteProm(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="dpn-trace.json"`)
		if err := scope.WriteTrace(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	if pprof {
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	}
	s := &HTTPServer{
		ln:   ln,
		srv:  &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln)
	}()
	return s, nil
}

// Addr returns the endpoint's listen address.
func (s *HTTPServer) Addr() string { return s.ln.Addr().String() }

// Close stops the listener, closes active connections, and waits for
// the serve goroutine to exit.
func (s *HTTPServer) Close() error {
	if s == nil {
		return nil
	}
	err := s.srv.Close()
	<-s.done
	return err
}
