package serve

// Per-request instrumentation. Every request through the server passes
// one middleware layer that
//
//   - assigns a request ID (honoring an incoming X-Request-Id) and
//     echoes it in the response, so a fleet router or a user can join
//     server logs with client traces;
//   - tracks the in-flight request gauge and records the request's wall
//     time into the serve.http latency histogram;
//   - classifies failures into serve.errors.4xx / serve.errors.5xx
//     counters off the written status (the claerr.HTTPStatus mapping);
//   - appends one JSONL record per request to the access log, with
//     1-in-N sampling and a slow-query threshold that always logs.
//
// Query evaluation latency is recorded separately by the handlers into
// per-kind (serve.query.<kind>) and per-session (serve.session.<name>)
// histograms, so /metricsz reports both transport-level and
// evaluation-level distributions. Deleting a session removes its
// histogram, which bounds the series to the live sessions.

import (
	"fmt"
	"net/http"
	"time"
)

// queryKinds is the closed set of query kinds; histogram names derive
// from it so a request with a made-up kind cannot mint new metrics.
var queryKinds = map[string]bool{
	"pointsto": true, "alias": true, "callgraph": true,
	"modref": true, "dependence": true, "lint": true,
}

// kindLabel collapses unknown kinds into "other" to bound metric
// cardinality against arbitrary request payloads.
func kindLabel(kind string) string {
	if queryKinds[kind] {
		return kind
	}
	return "other"
}

// observeQuery records one query evaluation into the per-kind and
// per-session latency histograms.
func (s *Server) observeQuery(sess *Session, kind string, d time.Duration) {
	ns := int64(d)
	s.o.Histogram("serve.query." + kindLabel(kind)).Observe(ns)
	s.o.Histogram(sessionHistogram(sess.Name)).Observe(ns)
}

// sessionHistogram names a session's latency histogram; deleting the
// session removes it.
func sessionHistogram(name string) string { return "serve.session." + name }

// statusWriter captures the status code and body size a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// requestID picks the request's ID: a sane incoming X-Request-Id is
// kept (so IDs survive a fleet router hop), anything else gets a fresh
// "<base>-<seq>" unique for the server's lifetime.
func (s *Server) requestID(r *http.Request, seq uint64) string {
	if id := r.Header.Get("X-Request-Id"); id != "" && len(id) <= 128 {
		return id
	}
	return fmt.Sprintf("%s-%06d", s.idBase, seq)
}

// accessRecord is one access-log line. Timing fields are the only
// non-deterministic parts; everything else round-trips through any
// JSONL tooling.
type accessRecord struct {
	Time   string `json:"ts"`
	ID     string `json:"id"`
	Method string `json:"method"`
	Path   string `json:"path"`
	Status int    `json:"status"`
	DurNS  int64  `json:"dur_ns"`
	Bytes  int64  `json:"bytes"`
	Slow   bool   `json:"slow,omitempty"`
}

// instrument wraps the route table with the per-request middleware.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seq := s.reqSeq.Add(1)
		id := s.requestID(r, seq)
		w.Header().Set("X-Request-Id", id)
		sw := &statusWriter{ResponseWriter: w}
		s.o.Gauge("serve.http.inflight").Set(s.httpInflight.Add(1))
		start := time.Now()
		next.ServeHTTP(sw, r)
		d := time.Since(start)
		s.o.Gauge("serve.http.inflight").Set(s.httpInflight.Add(-1))
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		s.o.Histogram("serve.http").Observe(int64(d))
		if class := sw.status / 100; class >= 4 {
			s.o.Counter(fmt.Sprintf("serve.errors.%dxx", class)).Inc()
		}
		s.logAccess(r, id, sw, d, seq)
	})
}

// logAccess appends the request's JSONL record when it is sampled in or
// crossed the slow-query threshold (slow requests always log).
func (s *Server) logAccess(r *http.Request, id string, sw *statusWriter, d time.Duration, seq uint64) {
	if s.access == nil {
		return
	}
	slow := s.cfg.SlowQuery > 0 && d >= s.cfg.SlowQuery
	sampled := s.cfg.LogSample <= 1 || seq%uint64(s.cfg.LogSample) == 0
	if !slow && !sampled {
		return
	}
	if slow {
		s.o.Counter("serve.slow_queries").Inc()
	}
	rec := accessRecord{
		Time:   time.Now().UTC().Format(time.RFC3339Nano),
		ID:     id,
		Method: r.Method,
		Path:   r.URL.Path,
		Status: sw.status,
		DurNS:  int64(d),
		Bytes:  sw.bytes,
		Slow:   slow,
	}
	if err := s.access.Log(rec); err != nil {
		s.o.Counter("serve.accesslog.errors").Inc()
	}
}

// handleMetricsz renders the full metric registry — counters, gauges,
// latency histograms and runtime health — in Prometheus text exposition
// format. Latency histograms are in nanoseconds.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	s.o.CaptureRuntime()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.o.WriteProm(w)
}
