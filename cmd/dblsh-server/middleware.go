package main

import (
	"context"
	"errors"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"dblsh"
	"dblsh/internal/obs"
)

// serverConfig carries the server's operational knobs: admission control,
// the default per-request deadline, and the slow-query log. The zero value
// is a fully open server — no limits, no deadline, no slow log — which is
// what the tests that aren't about operations use.
type serverConfig struct {
	// maxInflight caps concurrently executing requests on the expensive
	// endpoints (searches and mutations); 0 means unlimited. maxQueue is
	// the wait-queue budget beyond those slots: a request that finds every
	// slot busy waits if fewer than maxQueue others already are, and is
	// shed with 429 + Retry-After otherwise.
	maxInflight int
	maxQueue    int
	// defaultDeadline is applied to requests that arrive without one; the
	// existing WithContext polling turns it into cancellation inside the
	// radius ladder. 0 means none.
	defaultDeadline time.Duration
	// slowLog receives requests slower than its threshold; nil disables.
	slowLog *obs.SlowLog
}

// httpMetrics is the serving-layer metric set, registered once per server.
type httpMetrics struct {
	requests *obs.CounterVec   // by endpoint, status
	latency  *obs.HistogramVec // by endpoint
	inflight *obs.GaugeVec     // by endpoint
	shed     *obs.Counter

	queryK          *obs.Histogram
	queryCandidates *obs.Histogram
	queryNodes      *obs.Histogram
	queryFrontier   *obs.Histogram
}

func newHTTPMetrics(reg *obs.Registry) *httpMetrics {
	return &httpMetrics{
		requests: reg.CounterVec("dblsh_http_requests_total",
			"HTTP requests served, by endpoint and status code.",
			"endpoint", "status"),
		latency: reg.HistogramVec("dblsh_http_request_seconds",
			"Request latency (including admission queue wait), by endpoint.",
			obs.LatencyBuckets(), "endpoint"),
		inflight: reg.GaugeVec("dblsh_http_inflight_requests",
			"Requests currently inside the server (queued or executing), by endpoint.",
			"endpoint"),
		shed: reg.Counter("dblsh_http_shed_total",
			"Requests refused with 429 because the admission queue was at budget."),
		queryK: reg.Histogram("dblsh_query_k",
			"Requested k per search.", obs.CountBuckets()),
		queryCandidates: reg.Histogram("dblsh_query_candidates",
			"Exact distance computations per search.", obs.CountBuckets()),
		queryNodes: reg.Histogram("dblsh_query_nodes_visited",
			"R*-tree nodes examined per search, across trees, shards and rounds.",
			obs.CountBuckets()),
		queryFrontier: reg.Histogram("dblsh_query_frontier_size",
			"Items left parked in the traversal cursors when a search finished.",
			obs.CountBuckets()),
	}
}

// responseState observes what a handler did to the response — the status
// code for metrics, plus any slog attributes the handler attached for the
// slow-query log.
type responseState struct {
	http.ResponseWriter
	status int
	wrote  bool
	attrs  []slog.Attr
}

func (r *responseState) WriteHeader(code int) {
	if !r.wrote {
		r.status = code
		r.wrote = true
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *responseState) Write(b []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(b)
}

// noteAttrs attaches structured detail (query shape, work counters) to the
// request's slow-log record, if this request is being observed.
func noteAttrs(w http.ResponseWriter, attrs ...slog.Attr) {
	if rs, ok := w.(*responseState); ok {
		rs.attrs = append(rs.attrs, attrs...)
	}
}

// noteQuery records one executed search into the per-query work histograms
// and attaches its shape to the slow log.
func (s *server) noteQuery(w http.ResponseWriter, k int, st dblsh.Stats) {
	s.m.queryK.Observe(float64(k))
	s.m.queryCandidates.Observe(float64(st.Candidates))
	s.m.queryNodes.Observe(float64(st.NodesVisited))
	s.m.queryFrontier.Observe(float64(st.FrontierSize))
	noteAttrs(w,
		slog.Int("k", k),
		slog.Int("candidates", st.Candidates),
		slog.Int("rounds", st.Rounds),
		slog.Int("nodes_visited", st.NodesVisited))
}

// wrap is the per-endpoint middleware: in-flight accounting, the method
// check (405 with Allow, before admission, so a wrong method never waits
// for or takes a slot), the default deadline, admission control (when the
// endpoint is admitted), then request count, latency and slow-log
// observation of whatever the handler produced. Probe/scrape endpoints
// skip admission so liveness checks and metric scrapes keep answering
// while the serving endpoints shed load.
func (s *server) wrap(e endpoint) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		infl := s.m.inflight.With(e.path)
		infl.Inc()
		defer infl.Dec()
		rec := &responseState{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			elapsed := time.Since(start)
			s.m.requests.With(e.path, strconv.Itoa(rec.status)).Inc()
			s.m.latency.With(e.path).Observe(elapsed.Seconds())
			s.cfg.slowLog.Observe(e.path, rec.status, elapsed, rec.attrs...)
		}()

		if r.Method != e.method {
			rec.Header().Set("Allow", e.method)
			httpError(rec, http.StatusMethodNotAllowed, "use "+e.method)
			return
		}

		// The deadline starts before admission so time spent queued counts
		// against it: a request cannot wait its way past its budget.
		if d := s.cfg.defaultDeadline; d > 0 {
			if _, has := r.Context().Deadline(); !has {
				ctx, cancel := context.WithTimeout(r.Context(), d)
				defer cancel()
				r = r.WithContext(ctx)
			}
		}

		if e.admit {
			switch err := s.lim.acquire(r.Context()); {
			case errors.Is(err, errShed):
				s.m.shed.Inc()
				rec.Header().Set("Retry-After", "1")
				httpError(rec, http.StatusTooManyRequests, "server overloaded; retry later")
				return
			case err != nil:
				// Deadline or disconnect while queued.
				httpError(rec, http.StatusRequestTimeout, "expired while queued for admission: "+err.Error())
				return
			}
			defer s.lim.release()
		}
		e.h(rec, r)
	}
}
