package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"dblsh"
)

// FuzzEndpoints sends one arbitrary body to every POST endpoint of the
// route table, over a fresh in-memory Euclidean 16-d index and a fresh
// cosine one each time, so that a failing input replays alone. Whatever
// the body, the answer is a 200 or a 400 carrying JSON, a 400 names its
// error, and nothing panics or reaches a 5xx.
func FuzzEndpoints(f *testing.F) {
	for _, seed := range []string{
		``,
		`null`,
		`{`,
		`[]`,
		`{"vector":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16],"k":3,"t":5,"early_stop":2,"filter_ids":[1,2,3]}`,
		`{"vector":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"radius":100,"max_radius":0.5}`,
		`{"vectors":[[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],[1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1]],"k":2}`,
		`{"vector":[1,2],"k":-1,"t":-1}`,
		`{"id":7,"shard":0}`,
		`{"id":-1,"shard":-1}`,
		`{"vector":[1e39,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}`,
		// The zero vector, which has no direction under cosine, and an
		// allowlist that names no resident id.
		`{"vector":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"vectors":[[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]],"radius":1,"k":3}`,
		`{"vector":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16],"vectors":[[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16]],"radius":1,"filter_ids":[-1,1000000]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, m := range []dblsh.Metric{dblsh.Euclidean, dblsh.Cosine} {
			s := newServer(testIndexMetric(t, m), serverConfig{})
			h := s.handler()
			for _, e := range s.endpoints() {
				if e.method != http.MethodPost {
					continue
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, e.path, bytes.NewReader(body)))
				if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
					t.Fatalf("%v %s: status %d, want 200 or 400: %s", m, e.path, rec.Code, rec.Body)
				}
				if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
					t.Fatalf("%v %s: Content-Type %q", m, e.path, ct)
				}
				var resp struct {
					Error string `json:"error"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Fatalf("%v %s: body does not decode: %v: %s", m, e.path, err, rec.Body)
				}
				if rec.Code == http.StatusBadRequest && resp.Error == "" {
					t.Fatalf("%v %s: 400 without an error: %s", m, e.path, rec.Body)
				}
			}
		}
	})
}
