package obs

import (
	"context"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Debug HTTP listener: an opt-in sidecar endpoint (psml-server
// -debug-addr) serving the metrics registry, a liveness probe, and the
// stdlib profiler. It binds its own mux — never http.DefaultServeMux —
// so importing this package cannot leak pprof onto an application
// listener.

// debugMux returns a mux serving:
//
//	/metrics        – reg in the Prometheus text exposition format
//	/healthz        – 200 "ok" (503 with the error text when health fails)
//	/debug/pprof/…  – the stdlib profiler (CPU, heap, goroutine, trace)
//
// health may be nil, which means always healthy.
func debugMux(reg *Registry, health func() error) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if health != nil {
			if err := health(); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServeDebug listens on addr and serves debugMux(reg, health) until ctx
// is cancelled, then shuts the server down. It returns the bound
// listener address (useful with ":0") and a channel that closes when the
// server has fully stopped. Errors after a successful bind are
// swallowed: a broken debug listener must never take the serving process
// down.
func ServeDebug(ctx context.Context, addr string, reg *Registry, health func() error) (string, <-chan struct{}, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: debugMux(reg, health)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	stop := context.AfterFunc(ctx, func() {
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(sctx)
	})
	go func() {
		<-done
		stop()
	}()
	return ln.Addr().String(), done, nil
}
