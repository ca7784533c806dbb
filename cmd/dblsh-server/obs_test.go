package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dblsh"
	"dblsh/internal/obs"
)

// scrape fetches /metrics and returns the exposition text.
func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q, want text exposition v0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestMetricsExposition is the scrape-format golden test: after real
// traffic on a durable server, /metrics must be valid exposition text (as
// checked by the obs scrape checker) and cover the acceptance families —
// query latency by endpoint, per-query work, in-flight, WAL fsync latency
// and checkpoint duration.
func TestMetricsExposition(t *testing.T) {
	dir := t.TempDir()
	idx, err := dblsh.Open(dir, dblsh.Options{Dim: 16, K: 6, L: 3, T: 20, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { idx.Close() })
	ts := httptest.NewServer(newServer(idx, serverConfig{maxInflight: 4, maxQueue: 4}).handler())
	t.Cleanup(ts.Close)

	vec := make([]float32, 16)
	for i := 0; i < 20; i++ {
		vec[0] = float32(i)
		resp := postJSON(t, ts.URL+"/vectors", map[string]interface{}{"vector": vec})
		resp.Body.Close()
	}
	resp := postJSON(t, ts.URL+"/search", map[string]interface{}{"vector": vec, "k": 5})
	resp.Body.Close()
	resp = postJSON(t, ts.URL+"/checkpoint", nil)
	resp.Body.Close()

	out := scrape(t, ts)
	if err := obs.CheckExposition(out); err != nil {
		t.Fatalf("scrape checker rejects /metrics: %v\n%s", err, out)
	}
	for _, want := range []string{
		`dblsh_http_requests_total{endpoint="/search",status="200"} 1`,
		`dblsh_http_requests_total{endpoint="/vectors",status="200"} 20`,
		`dblsh_http_request_seconds_bucket{endpoint="/search",le="+Inf"} 1`,
		`dblsh_http_inflight_requests{endpoint="/metrics"} 1`, // the scrape itself
		`dblsh_query_k_count 1`,
		`dblsh_query_nodes_visited_count 1`,
		`dblsh_query_frontier_size_count 1`,
		`dblsh_wal_appends_total 20`,
		`dblsh_shard_insert_seconds_count 20`, // one write-lock hold per add
		`dblsh_checkpoint_seconds_count`,
		`dblsh_wal_fsync_seconds_bucket`,
		`dblsh_admission_inflight`,
		`dblsh_admission_queue_depth 0`,
		`dblsh_vectors_resident 20`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// SyncAlways fsyncs every append, and the on-demand checkpoint must
	// have been counted.
	if !strings.Contains(out, "dblsh_wal_fsyncs_total 2") && !strings.Contains(out, "dblsh_wal_fsyncs_total 20") {
		// At least the appends' fsyncs happened; exact count depends on
		// checkpoint rotation. Assert nonzero instead of a brittle value.
		if strings.Contains(out, "dblsh_wal_fsyncs_total 0\n") {
			t.Error("dblsh_wal_fsyncs_total is 0 after 20 SyncAlways appends")
		}
	}
}

// TestMethodNotAllowed is the regression test for 405 handling: GET-only
// and POST-only endpoints must set Allow and answer with the same JSON
// error shape as the rest of the API.
func TestMethodNotAllowed(t *testing.T) {
	ts, _ := testServer(t)
	cases := []struct {
		endpoint, method, allow string
	}{
		{"/healthz", http.MethodPost, http.MethodGet},
		{"/stats", http.MethodPost, http.MethodGet},
		{"/metrics", http.MethodPost, http.MethodGet},
		{"/search", http.MethodGet, http.MethodPost},
		{"/search_batch", http.MethodGet, http.MethodPost},
		{"/search_radius", http.MethodGet, http.MethodPost},
		{"/vectors", http.MethodGet, http.MethodPost},
		{"/delete", http.MethodGet, http.MethodPost},
		{"/compact", http.MethodGet, http.MethodPost},
		{"/checkpoint", http.MethodGet, http.MethodPost},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, ts.URL+c.endpoint, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status = %d, want 405", c.method, c.endpoint, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != c.allow {
			t.Errorf("%s %s: Allow = %q, want %q", c.method, c.endpoint, got, c.allow)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: Content-Type = %q, want application/json", c.method, c.endpoint, ct)
		}
		var e struct {
			Error string `json:"error"`
		}
		decode(t, resp, &e)
		if e.Error == "" {
			t.Errorf("%s %s: empty JSON error body", c.method, c.endpoint)
		}
	}
}

func TestLimiter(t *testing.T) {
	l := newLimiter(2, 1)
	ctx := context.Background()
	if err := l.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := l.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	// Slots full, queue empty: a third caller with an expired context
	// queues, then fails with the context error.
	expired, cancel := context.WithCancel(ctx)
	cancel()
	if err := l.acquire(expired); err != context.Canceled {
		t.Fatalf("queued acquire with cancelled ctx = %v, want context.Canceled", err)
	}
	// Fill the queue with a real waiter, then the next caller is shed.
	got := make(chan error, 1)
	go func() {
		err := l.acquire(ctx)
		if err == nil {
			l.release()
		}
		got <- err
	}()
	// Wait for the goroutine to be parked in the queue.
	deadline := time.Now().Add(2 * time.Second)
	for l.queued() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if err := l.acquire(ctx); err != errShed {
		t.Fatalf("acquire with full queue = %v, want errShed", err)
	}
	l.release() // frees the queued waiter
	if err := <-got; err != nil {
		t.Fatalf("queued waiter = %v, want success", err)
	}
	l.release()

	if newLimiter(0, 5) != nil {
		t.Fatal("maxInflight 0 must mean unlimited (nil limiter)")
	}
	var unlimited *limiter
	if err := unlimited.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	unlimited.release()
}

// TestAdmissionControl holds the server's only execution slot and verifies
// that overflow is shed with 429 + Retry-After while probe endpoints keep
// answering, that an in-budget queued request completes once the slot
// frees, and that service resumes afterwards.
func TestAdmissionControl(t *testing.T) {
	idx := testIndex(t)
	srv := newServer(idx, serverConfig{maxInflight: 1, maxQueue: 1})
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)

	query := map[string]interface{}{"vector": make([]float32, 16), "k": 3}

	// Occupy the single slot directly through the limiter — deterministic,
	// unlike racing a fast search.
	if err := srv.lim.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	// One request fits the queue budget and will complete after release.
	queuedDone := make(chan int, 1)
	go func() {
		resp := postJSON(t, ts.URL+"/search", query)
		resp.Body.Close()
		queuedDone <- resp.StatusCode
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.lim.queued() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Queue is now at budget: further searches are shed immediately.
	for i := 0; i < 3; i++ {
		resp := postJSON(t, ts.URL+"/search", query)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("overload search status = %d, want 429", resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("429 without Retry-After")
		}
		var e struct {
			Error string `json:"error"`
		}
		decode(t, resp, &e)
		if e.Error == "" {
			t.Fatal("429 without JSON error body")
		}
	}

	// A wrong method is answered 405 before admission: it neither waits
	// for a slot nor is shed. (Errorf: the held slot must still be
	// released below, or the queued request keeps ts.Close waiting.)
	for _, p := range []string{"/search", "/vectors", "/checkpoint"} {
		resp, err := http.Get(ts.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodPost {
			t.Errorf("GET %s under overload = %d (Allow %q), want 405 (Allow POST)",
				p, resp.StatusCode, resp.Header.Get("Allow"))
		}
	}

	// Probes and scrapes bypass admission.
	for _, p := range []string{"/healthz", "/stats", "/metrics"} {
		resp, err := http.Get(ts.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s under overload = %d, want 200", p, resp.StatusCode)
		}
	}

	// Release the held slot: the queued request completes, and new
	// requests are admitted again.
	srv.lim.release()
	if status := <-queuedDone; status != http.StatusOK {
		t.Fatalf("queued request completed with %d, want 200", status)
	}
	resp := postJSON(t, ts.URL+"/search", query)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-overload search = %d, want 200", resp.StatusCode)
	}

	out := scrape(t, ts)
	if !strings.Contains(out, "dblsh_http_shed_total 3") {
		t.Errorf("shed counter not 3:\n%s", grepLines(out, "shed"))
	}
	if !strings.Contains(out, `dblsh_http_requests_total{endpoint="/search",status="429"} 3`) {
		t.Errorf("429s not counted by endpoint/status:\n%s", grepLines(out, "requests_total"))
	}
}

func grepLines(text, substr string) string {
	var b strings.Builder
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, substr) {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestDefaultDeadline verifies -default-deadline reaches the query path:
// an impossible deadline expires inside (or before) the radius ladder and
// surfaces as the 408 that errStatus maps deadline errors to.
func TestDefaultDeadline(t *testing.T) {
	idx := testIndex(t)
	ts := httptest.NewServer(newServer(idx, serverConfig{defaultDeadline: time.Nanosecond}).handler())
	t.Cleanup(ts.Close)

	resp := postJSON(t, ts.URL+"/search", map[string]interface{}{"vector": make([]float32, 16), "k": 3})
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("status = %d, want 408", resp.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
	}
	decode(t, resp, &e)
	if !strings.Contains(e.Error, "deadline") {
		t.Fatalf("error = %q, want a deadline error", e.Error)
	}
	// Probe endpoints are unaffected: they never consult the context.
	r2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("/healthz with default deadline = %d", r2.StatusCode)
	}
}

// TestSlowQueryLog verifies the slow log emits one JSON line per
// above-threshold request, carrying the query's work counters.
func TestSlowQueryLog(t *testing.T) {
	idx := testIndex(t)
	var buf syncBuffer
	cfg := serverConfig{slowLog: obs.NewSlowLog(slog.NewJSONHandler(&buf, nil), time.Nanosecond)}
	ts := httptest.NewServer(newServer(idx, cfg).handler())
	t.Cleanup(ts.Close)

	resp := postJSON(t, ts.URL+"/search", map[string]interface{}{"vector": make([]float32, 16), "k": 3})
	resp.Body.Close()

	line := buf.String()
	var rec map[string]interface{}
	if err := json.Unmarshal([]byte(strings.SplitN(line, "\n", 2)[0]), &rec); err != nil {
		t.Fatalf("slow log line is not JSON: %v\n%s", err, line)
	}
	if rec["msg"] != "slow_query" || rec["endpoint"] != "/search" {
		t.Fatalf("unexpected slow log record: %s", line)
	}
	for _, key := range []string{"duration_ms", "status", "k", "candidates", "rounds", "nodes_visited"} {
		if _, ok := rec[key]; !ok {
			t.Errorf("slow log record missing %q: %s", key, line)
		}
	}
}

// syncBuffer is a bytes.Buffer safe for the handler goroutines slog may
// write from.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestGracefulDrainFlushes verifies the shutdown ordering an admission-
// controlled durable server relies on: mutations acknowledged before Close
// survive a reopen, and mutations after Close are refused with 503, not
// silently dropped.
func TestGracefulDrainFlushes(t *testing.T) {
	dir := t.TempDir()
	idx, err := dblsh.Open(dir, dblsh.Options{Dim: 8, K: 4, L: 2, T: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(idx, serverConfig{maxInflight: 2, maxQueue: 2}).handler())
	t.Cleanup(ts.Close)

	vec := make([]float32, 8)
	var lastID int
	for i := 0; i < 5; i++ {
		vec[0] = float32(i)
		resp := postJSON(t, ts.URL+"/vectors", map[string]interface{}{"vector": vec})
		var add addResponse
		decode(t, resp, &add)
		lastID = add.ID
	}

	// Drain: like main's shutdown path, Close after in-flight requests are
	// done. Everything acknowledged must now be on disk.
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts.URL+"/vectors", map[string]interface{}{"vector": vec})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("add after Close = %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()

	re, err := dblsh.Open(dir, dblsh.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 5 {
		t.Fatalf("reopened index holds %d vectors, want 5", re.Len())
	}
	hits, err := re.SearchOpts(vec, 5)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range hits {
		if r.ID == lastID {
			found = true
		}
	}
	if !found {
		t.Fatalf("last acknowledged vector (id %d) lost after reopen", lastID)
	}
}
