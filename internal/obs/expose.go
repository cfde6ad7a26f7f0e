package obs

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
)

// TextContentType is the Prometheus text exposition content type.
const TextContentType = "text/plain; version=0.0.4; charset=utf-8"

// WriteTo writes every registered metric in Prometheus text exposition
// format (version 0.0.4). Output is deterministic for a given set of metric
// values: families in name order, children in label-value order, so
// snapshot dumps diff cleanly. A nil registry writes nothing.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	count := func(written int, err error) error {
		n += int64(written)
		return err
	}
	for _, f := range r.sortedFamilies() {
		if f.help != "" {
			if err := count(fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))); err != nil {
				return n, err
			}
		}
		if err := count(fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)); err != nil {
			return n, err
		}
		for _, c := range f.sortedChildren() {
			var err error
			switch f.kind {
			case kindCounter:
				err = count(fmt.Fprintf(bw, "%s%s %d\n", f.name, labelString(f.labels, c.labelValues), c.counter.Value()))
			case kindGauge:
				err = count(fmt.Fprintf(bw, "%s%s %s\n", f.name, labelString(f.labels, c.labelValues), formatFloat(c.gauge.Value())))
			case kindHistogram:
				err = writeHistogram(bw, f, c, count)
			}
			if err != nil {
				return n, err
			}
		}
	}
	return n, bw.Flush()
}

// writeHistogram emits the cumulative _bucket series plus _sum and _count.
func writeHistogram(w io.Writer, f *family, c *child, count func(int, error) error) error {
	h := c.hist
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		ls := labelStringExtra(f.labels, c.labelValues, "le", formatFloat(bound))
		if err := count(fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, ls, cum)); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	ls := labelStringExtra(f.labels, c.labelValues, "le", "+Inf")
	if err := count(fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, ls, cum)); err != nil {
		return err
	}
	base := labelString(f.labels, c.labelValues)
	if err := count(fmt.Fprintf(w, "%s_sum%s %s\n", f.name, base, formatFloat(h.Sum()))); err != nil {
		return err
	}
	return count(fmt.Fprintf(w, "%s_count%s %d\n", f.name, base, h.Count()))
}

// labelString renders {a="x",b="y"} or "" when there are no labels.
func labelString(names, values []string) string {
	return labelStringExtra(names, values, "", "")
}

func labelStringExtra(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, name := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		v := ""
		if i < len(values) {
			v = values[i]
		}
		// %q covers the text format's label escapes: backslash, quote and
		// newline all come out in their \-escaped spelling.
		fmt.Fprintf(&sb, "%s=%q", name, v)
	}
	if extraName != "" {
		if len(names) > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", extraName, extraValue)
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

// formatFloat renders a float the way Prometheus expects: shortest
// round-trip representation, with +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves the registry in Prometheus text format. Metric reads are
// atomic, so scraping is safe while hot paths update concurrently.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", TextContentType)
		r.WriteTo(w)
	})
}

// Server is a running metrics endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server

	done chan struct{} // closed when the serve goroutine exits
	mu   sync.Mutex
	err  error // first background Serve error, latched
}

// ServeWith starts an HTTP server on addr exposing the registry at /metrics
// and the runtime profiles under /debug/pprof/ on one mux — the operational
// surface every long-running command mounts (bssweep behind -metrics-addr,
// the bsmon daemon on -serve-addr). Pass addr with port 0 to bind an
// ephemeral port; Addr reports the bound address. extra mounts further
// handlers on the same mux — how a service-mode daemon adds /reports and
// /healthz beside /metrics. Patterns clashing with the built-in mounts panic
// (http.ServeMux semantics), so keep extras off /metrics and /debug/pprof.
func ServeWith(addr string, r *Registry, extra map[string]http.Handler) (*Server, error) {
	if r == nil {
		r = Default
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", Handler(r))
	for pattern, h := range extra {
		mux.Handle(pattern, h)
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: mux}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		// Serve blocks for the server's lifetime; anything it returns other
		// than the orderly-shutdown sentinel is a real accept-loop failure
		// (a closed listener, fd exhaustion). Latch it instead of dropping
		// it on the floor so Err and Close can surface it.
		if err := s.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.mu.Lock()
			s.err = err
			s.mu.Unlock()
		}
	}()
	return s, nil
}

// Addr returns the bound listen address (host:port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Err reports the background serve error, if the accept loop has failed. A
// healthy (or cleanly closed) server reports nil.
func (s *Server) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close shuts the server down immediately and returns the first error the
// endpoint hit: a background serve failure if there was one, otherwise the
// shutdown error. It waits for the serve goroutine to exit, so the verdict
// is final.
func (s *Server) Close() error {
	cerr := s.srv.Close()
	<-s.done
	if err := s.Err(); err != nil {
		return err
	}
	return cerr
}
