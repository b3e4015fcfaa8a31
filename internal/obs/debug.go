package obs

import (
	"expvar"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on the default mux
	"sync"
	"sync/atomic"
)

// debugAgg is the aggregator behind the process-wide "sgd_obs" expvar: the
// expvar registry is global and refuses a second Publish, so the variable is
// published once and follows the most recent ServeDebug call.
var (
	debugAgg     atomic.Pointer[Aggregator]
	publishDebug sync.Once
)

// ServeDebug starts the debug HTTP server of a binary's -debug-addr flag on
// addr, in the background and on a mux of its own: expvar at /debug/vars
// (agg exported as "sgd_obs"), net/http/pprof under /debug/pprof/, and agg's
// Prometheus snapshot at /metrics. It returns the bound address (addr may
// name port 0); the server lives for the rest of the process. Because
// nothing is registered on http.DefaultServeMux, a process may call it more
// than once.
func ServeDebug(addr string, agg *Aggregator) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	debugAgg.Store(agg)
	publishDebug.Do(func() {
		expvar.Publish("sgd_obs", expvar.Func(func() any { return debugAgg.Load().Export() }))
	})
	mux := http.NewServeMux()
	// expvar (/debug/vars) and net/http/pprof (/debug/pprof/) register
	// themselves on the default mux at init; /metrics is this server's own.
	mux.Handle("/debug/", http.DefaultServeMux)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		io.WriteString(w, agg.Snapshot())
	})
	go http.Serve(ln, mux) //nolint:errcheck // only a closed listener stops it
	return ln.Addr().String(), nil
}
