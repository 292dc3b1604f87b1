package obs

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// NewMux builds the live-introspection HTTP handler both CLIs serve
// under -metrics-addr:
//
//	/metrics            Prometheus text exposition of the registry
//	/healthz            liveness probe ("ok")
//	/debug/vars         expvar JSON (includes the registry when Published)
//	/debug/pprof        the standard pprof profile suite
//	/debug/traces       flight-recorder index (text table, one trace per line)
//	/debug/traces/<id>  one trace as Chrome trace-event JSON (Perfetto-loadable)
//
// rec may be nil: the trace endpoints then report that no recorder is
// attached.
func NewMux(reg *Registry, rec *FlightRecorder) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if rec == nil {
			fmt.Fprintln(w, "no flight recorder attached (enable tracing)")
			return
		}
		st := rec.Stats()
		fmt.Fprintf(w, "flight recorder: %d traces, %d bytes (added=%d kept=%d sampled=%d rejected=%d evicted=%d)\n",
			st.Traces, st.Bytes, st.Added, st.Kept, st.Sampled, st.Rejected, st.Evicted)
		fmt.Fprintf(w, "%-24s %12s %8s %8s  %s\n", "id", "duration", "spans", "bytes", "export")
		for _, t := range rec.Traces() {
			fmt.Fprintf(w, "%-24s %12s %8d %8d  /debug/traces/%s\n",
				t.ID(), t.Duration(), t.NumSpans(), t.Bytes(), t.ID())
		}
	})
	mux.HandleFunc("/debug/traces/{id}", func(w http.ResponseWriter, r *http.Request) {
		if rec == nil {
			http.Error(w, "no flight recorder attached", http.StatusNotFound)
			return
		}
		t := rec.Get(r.PathValue("id"))
		if t == nil {
			http.Error(w, "trace not found (evicted or never recorded)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = t.WriteChromeJSON(w)
	})
	return mux
}

// Serve starts the introspection server on addr (host:port; port 0
// picks a free port) in a background goroutine. It returns the bound
// address and a shutdown function. The server lives until shutdown is
// called or the process exits — profiling a long run needs no
// coordination with the search. rec may be nil (no trace endpoints).
func Serve(addr string, reg *Registry, rec *FlightRecorder) (boundAddr string, shutdown func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obs: metrics listener: %w", err)
	}
	srv := &http.Server{Handler: NewMux(reg, rec), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), func() { _ = srv.Close() }, nil
}
