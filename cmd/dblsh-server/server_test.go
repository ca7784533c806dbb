package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dblsh"
	"dblsh/internal/vec"
)

func testIndex(t *testing.T) *dblsh.Index {
	t.Helper()
	rng := rand.New(rand.NewSource(4))
	data := make([][]float32, 1000)
	for i := range data {
		v := make([]float32, 16)
		for j := range v {
			v[j] = float32(rng.NormFloat64() * 5)
		}
		data[i] = v
	}
	idx, err := dblsh.New(data, dblsh.Options{K: 6, L: 3, T: 20, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func testServer(t *testing.T) (*httptest.Server, *dblsh.Index) {
	idx := testIndex(t)
	ts := httptest.NewServer(newServer(idx, serverConfig{}).handler())
	t.Cleanup(ts.Close)
	return ts, idx
}

func postJSON(t *testing.T, url string, body interface{}) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode(t *testing.T, resp *http.Response, v interface{}) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func TestHealthz(t *testing.T) {
	ts, _ := testServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestStats(t *testing.T) {
	ts, idx := testServer(t)
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st statsResponse
	decode(t, resp, &st)
	if st.Vectors != idx.Len() || st.Dim != 16 || st.L != 3 {
		t.Fatalf("stats %+v", st)
	}
	if st.Metric != "euclidean" || st.NormBound != 0 {
		t.Fatalf("metric stats %+v", st)
	}
	// The kernel echo must report the live dispatch state: the active
	// kernel is one of the registered names and the provenance is one of
	// the three documented sources.
	if st.Kernel != vec.KernelName() {
		t.Fatalf("stats kernel %q, active kernel %q", st.Kernel, vec.KernelName())
	}
	found := false
	for _, n := range st.KernelNames {
		if n == st.Kernel {
			found = true
		}
	}
	if !found {
		t.Fatalf("active kernel %q not among registered %v", st.Kernel, st.KernelNames)
	}
	switch st.KernelSource {
	case "auto", "env", "forced":
	default:
		t.Fatalf("kernel_source %q", st.KernelSource)
	}
}

// TestMetricServer runs the search and stats paths over a cosine index and
// an inner-product index: /stats reports the metric, /search returns
// metric-space distances, and the radius knobs reject metrics they are
// undefined for.
func TestMetricServer(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	data := make([][]float32, 600)
	for i := range data {
		v := make([]float32, 12)
		for j := range v {
			v[j] = float32(rng.NormFloat64() + 0.5)
		}
		data[i] = v
	}

	t.Run("cosine", func(t *testing.T) {
		idx, err := dblsh.New(data, dblsh.Options{Seed: 9, Metric: dblsh.Cosine})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(newServer(idx, serverConfig{}).handler())
		t.Cleanup(ts.Close)

		var st statsResponse
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		decode(t, resp, &st)
		if st.Metric != "cosine" {
			t.Fatalf("stats metric %q, want cosine", st.Metric)
		}

		var sr searchResponse
		resp = postJSON(t, ts.URL+"/search", searchRequest{Vector: data[0], K: 3})
		decode(t, resp, &sr)
		if len(sr.Results) != 3 {
			t.Fatalf("got %d results", len(sr.Results))
		}
		// The query is an indexed vector: its own cosine distance is ~0.
		if sr.Results[0].Dist > 1e-5 {
			t.Fatalf("self-distance %v, want ~0", sr.Results[0].Dist)
		}
	})

	t.Run("ip", func(t *testing.T) {
		idx, err := dblsh.New(data, dblsh.Options{Seed: 9, Metric: dblsh.InnerProduct})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(newServer(idx, serverConfig{}).handler())
		t.Cleanup(ts.Close)

		var st statsResponse
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		decode(t, resp, &st)
		if st.Metric != "ip" || st.NormBound <= 0 {
			t.Fatalf("stats %+v, want ip metric with a positive norm bound", st)
		}

		// max_radius has no meaning under inner product: 400, not a hang.
		resp = postJSON(t, ts.URL+"/search", searchRequest{
			Vector: data[0], K: 3,
			queryOptions: queryOptions{MaxRadius: 1},
		})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("max_radius under ip: status %d, want 400", resp.StatusCode)
		}
		resp.Body.Close()

		resp = postJSON(t, ts.URL+"/search_radius", searchRequest{Vector: data[0], Radius: 1})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("search_radius under ip: status %d, want 400", resp.StatusCode)
		}
		resp.Body.Close()
	})
}

func TestSearch(t *testing.T) {
	ts, idx := testServer(t)
	q := make([]float32, idx.Dim())
	resp := postJSON(t, ts.URL+"/search", searchRequest{Vector: q, K: 7})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var sr searchResponse
	decode(t, resp, &sr)
	if len(sr.Results) != 7 {
		t.Fatalf("got %d results", len(sr.Results))
	}
	prev := -1.0
	for _, h := range sr.Results {
		if h.Dist < prev {
			t.Fatal("results not sorted")
		}
		prev = h.Dist
	}
}

// TestSearchDefaultK pins k's rules on both k-NN endpoints: an omitted k or 0
// means 10, and a negative k is a 400 rather than a silent 10.
func TestSearchDefaultK(t *testing.T) {
	ts, idx := testServer(t)
	v, _ := json.Marshal(make([]float32, idx.Dim()))
	for _, c := range []struct {
		k    string // "" omits the field
		want int    // results per query; 0 expects a 400
	}{{"", 10}, {`,"k":0`, 10}, {`,"k":3`, 3}, {`,"k":-1`, 0}, {`,"k":-10`, 0}} {
		for path, body := range map[string]string{
			"/search":       `{"vector":` + string(v) + c.k + `}`,
			"/search_batch": `{"vectors":[` + string(v) + `]` + c.k + `}`,
		} {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			wantStatus := http.StatusOK
			if c.want == 0 {
				wantStatus = http.StatusBadRequest
			}
			if resp.StatusCode != wantStatus || c.want == 0 {
				resp.Body.Close()
				if resp.StatusCode != wantStatus {
					t.Errorf("%s %s: status %d, want %d", path, body, resp.StatusCode, wantStatus)
				}
				continue
			}
			var got int
			if path == "/search" {
				var sr searchResponse
				decode(t, resp, &sr)
				got = len(sr.Results)
			} else {
				var br batchResponse
				decode(t, resp, &br)
				got = len(br.Results[0])
			}
			if got != c.want {
				t.Errorf("%s %s: %d results, want %d", path, body, got, c.want)
			}
		}
	}
}

func TestSearchValidation(t *testing.T) {
	ts, _ := testServer(t)
	// Wrong dimension.
	resp := postJSON(t, ts.URL+"/search", searchRequest{Vector: []float32{1, 2}, K: 3})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrong-dim status %d", resp.StatusCode)
	}
	resp.Body.Close()
	// Bad JSON.
	r2, err := http.Post(ts.URL+"/search", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad-json status %d", r2.StatusCode)
	}
	r2.Body.Close()
	// Wrong method.
	r3, err := http.Get(ts.URL + "/search")
	if err != nil {
		t.Fatal(err)
	}
	if r3.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /search status %d", r3.StatusCode)
	}
	r3.Body.Close()
	// Oversized k.
	r4 := postJSON(t, ts.URL+"/search", searchRequest{Vector: make([]float32, 16), K: 1_000_000})
	if r4.StatusCode != http.StatusBadRequest {
		t.Fatalf("huge-k status %d", r4.StatusCode)
	}
	r4.Body.Close()
	// A candidate constant beyond what the index's T may be: 2tL+k would
	// overflow, so the library refuses it.
	huge := searchRequest{Vector: make([]float32, 16), K: 10}
	huge.T = 1 << 62
	r5 := postJSON(t, ts.URL+"/search", huge)
	if r5.StatusCode != http.StatusBadRequest {
		t.Fatalf("huge-t status %d", r5.StatusCode)
	}
	r5.Body.Close()
}

func TestSearchRadius(t *testing.T) {
	ts, idx := testServer(t)
	q := make([]float32, idx.Dim())
	// Huge radius: must find something.
	resp := postJSON(t, ts.URL+"/search_radius", searchRequest{Vector: q, Radius: 1e6})
	var sr searchResponse
	decode(t, resp, &sr)
	if len(sr.Results) != 1 {
		t.Fatalf("huge radius found %d results", len(sr.Results))
	}
	// Nonpositive radius rejected.
	r2 := postJSON(t, ts.URL+"/search_radius", searchRequest{Vector: q, Radius: 0})
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("zero radius status %d", r2.StatusCode)
	}
	r2.Body.Close()
	// Ladder-shaping knobs don't apply to a single fixed-radius round and
	// are rejected rather than silently ignored.
	r3 := postJSON(t, ts.URL+"/search_radius",
		searchRequest{Vector: q, Radius: 1, queryOptions: queryOptions{MaxRadius: 0.1}})
	if r3.StatusCode != http.StatusBadRequest {
		t.Fatalf("max_radius on /search_radius status %d", r3.StatusCode)
	}
	r3.Body.Close()
	r4 := postJSON(t, ts.URL+"/search_radius",
		searchRequest{Vector: q, Radius: 1, queryOptions: queryOptions{EarlyStop: 2}})
	if r4.StatusCode != http.StatusBadRequest {
		t.Fatalf("early_stop on /search_radius status %d", r4.StatusCode)
	}
	r4.Body.Close()
}

func TestAddEndpoint(t *testing.T) {
	ts, idx := testServer(t)
	before := idx.Len()
	v := make([]float32, idx.Dim())
	for j := range v {
		v[j] = 999
	}
	resp := postJSON(t, ts.URL+"/vectors", searchRequest{Vector: v})
	var ar addResponse
	decode(t, resp, &ar)
	if ar.ID != before {
		t.Fatalf("added id %d, want %d", ar.ID, before)
	}
	// The added vector is immediately searchable.
	r2 := postJSON(t, ts.URL+"/search", searchRequest{Vector: v, K: 1})
	var sr searchResponse
	decode(t, r2, &sr)
	if len(sr.Results) != 1 || sr.Results[0].ID != ar.ID || sr.Results[0].Dist != 0 {
		t.Fatalf("added vector not found: %+v", sr.Results)
	}
}

// TestAddRejectsNonFinite: JSON has no spelling for NaN or Inf, and a number
// that overflows float32 fails to decode — whichever layer refuses, POST
// /vectors answers 400 and the index is untouched.
func TestAddRejectsNonFinite(t *testing.T) {
	ts, idx := testServer(t)
	before := idx.Len()
	for _, coord := range []string{"NaN", "Infinity", "-Infinity", `"NaN"`, "1e39", "-1e39", "1e999"} {
		body := `{"vector":[` + coord + strings.Repeat(",0", idx.Dim()-1) + `]}`
		resp, err := http.Post(ts.URL+"/vectors", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("coordinate %s: status %d, want 400", coord, resp.StatusCode)
		}
	}
	if idx.Len() != before {
		t.Fatalf("rejected vectors changed Len %d → %d", before, idx.Len())
	}
	// The library's own refusal maps to 400 as well (not 500): drive the
	// handler's error path with a vector only Go can spell.
	v := make([]float32, idx.Dim())
	v[0] = float32(math.Inf(1))
	if _, err := idx.Add(v); err == nil {
		t.Fatal("Index.Add accepted +Inf")
	} else if rec := errStatus(err); rec != http.StatusBadRequest {
		t.Fatalf("non-finite Add error maps to %d, want 400", rec)
	}
}

// TestSearchRejectsNonFinite: the same refusal on the query side. POST
// /search, /search_batch and /search_radius answer 400 for a coordinate that
// is not a finite float32, whichever layer refuses it.
func TestSearchRejectsNonFinite(t *testing.T) {
	ts, idx := testServer(t)
	rest := strings.Repeat(",0", idx.Dim()-1)
	for _, coord := range []string{"NaN", "Infinity", `"NaN"`, "1e39", "-1e39", "1e999"} {
		for path, body := range map[string]string{
			"/search":        `{"vector":[` + coord + rest + `],"k":3}`,
			"/search_batch":  `{"vectors":[[0` + rest + `],[` + coord + rest + `]],"k":3}`,
			"/search_radius": `{"vector":[` + coord + rest + `],"radius":1}`,
		} {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s coordinate %s: status %d, want 400", path, coord, resp.StatusCode)
			}
		}
	}
	// The library's own refusal maps to 400 as well: drive the handlers'
	// error path with a query only Go can spell.
	q := make([]float32, idx.Dim())
	q[0] = float32(math.Inf(1))
	_, err := idx.SearchOpts(q, 3)
	if err == nil {
		t.Fatal("Index.SearchOpts accepted +Inf")
	}
	if rec := errStatus(err); rec != http.StatusBadRequest {
		t.Fatalf("non-finite query error maps to %d, want 400", rec)
	}
}

func TestConcurrentSearchAndAdd(t *testing.T) {
	ts, idx := testServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if g%2 == 0 {
					resp := postJSONQuiet(ts.URL+"/search", searchRequest{Vector: make([]float32, idx.Dim()), K: 3})
					if resp != http.StatusOK {
						errs <- fmt.Errorf("search status %d", resp)
					}
				} else {
					v := make([]float32, idx.Dim())
					v[0] = float32(g*100 + i)
					resp := postJSONQuiet(ts.URL+"/vectors", searchRequest{Vector: v})
					if resp != http.StatusOK {
						errs <- fmt.Errorf("add status %d", resp)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func postJSONQuiet(url string, body interface{}) int {
	b, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return -1
	}
	resp.Body.Close()
	return resp.StatusCode
}

func TestStatsDeletedCount(t *testing.T) {
	ts, idx := testServer(t)
	for _, id := range []int{3, 4} {
		if ok, err := idx.DeleteWithError(id); !ok || err != nil {
			t.Fatalf("delete %d: %v, %v", id, ok, err)
		}
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st statsResponse
	decode(t, resp, &st)
	if st.Deleted != 2 {
		t.Fatalf("deleted = %d, want 2", st.Deleted)
	}
}

func TestSearchStatsEchoed(t *testing.T) {
	ts, idx := testServer(t)
	resp := postJSON(t, ts.URL+"/search", searchRequest{Vector: make([]float32, idx.Dim()), K: 3})
	var sr searchResponse
	decode(t, resp, &sr)
	if sr.Stats == nil {
		t.Fatal("no stats in search response")
	}
	if sr.Stats.Candidates == 0 || sr.Stats.Rounds == 0 || sr.Stats.FinalRadius == 0 {
		t.Fatalf("empty stats %+v", *sr.Stats)
	}
}

func TestSearchPerRequestOptions(t *testing.T) {
	ts, idx := testServer(t)
	q := make([]float32, idx.Dim())
	search := func(opts queryOptions) searchResponse {
		t.Helper()
		resp := postJSON(t, ts.URL+"/search", searchRequest{Vector: q, K: 5, queryOptions: opts})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var sr searchResponse
		decode(t, resp, &sr)
		return sr
	}
	// Per-request t overrides the build-time candidate constant: budget
	// 2·t·L+k with t=1, L=3, k=5 caps verification at 11 candidates.
	small := search(queryOptions{T: 1})
	large := search(queryOptions{T: 200})
	if small.Stats.Candidates > 11 {
		t.Fatalf("t=1 verified %d candidates, cap is 11", small.Stats.Candidates)
	}
	if small.Stats.Candidates >= large.Stats.Candidates {
		t.Fatalf("t=1 vs t=200 candidates: %d vs %d",
			small.Stats.Candidates, large.Stats.Candidates)
	}
	// early_stop and max_radius round-trip.
	loose := search(queryOptions{T: 200, EarlyStop: 4})
	if loose.Stats.Candidates > large.Stats.Candidates {
		t.Fatalf("early_stop did more work: %d vs %d",
			loose.Stats.Candidates, large.Stats.Candidates)
	}
	capped := search(queryOptions{MaxRadius: 1e-12})
	if len(capped.Results) != 0 || capped.Stats.Rounds != 0 {
		t.Fatalf("tiny max_radius: %d results, %d rounds",
			len(capped.Results), capped.Stats.Rounds)
	}
	// Invalid knobs are rejected.
	resp := postJSON(t, ts.URL+"/search",
		searchRequest{Vector: q, K: 5, queryOptions: queryOptions{EarlyStop: 0.5}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("early_stop=0.5 status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestRemovedParallelismFieldIsIgnored: the per-request "parallelism" knob
// left with the per-round shard fan-out (results were identical at every
// setting). A client that still sends it is answered as one that does not,
// on every search endpoint, and no reply mentions fan-out any more.
func TestRemovedParallelismFieldIsIgnored(t *testing.T) {
	ts, idx := testServer(t)
	q := make([]float32, idx.Dim())
	for _, c := range []struct {
		path string
		body map[string]interface{}
	}{
		{"/search", map[string]interface{}{"vector": q, "k": 5}},
		{"/search_batch", map[string]interface{}{"vectors": [][]float32{q, q}, "k": 5}},
		{"/search_radius", map[string]interface{}{"vector": q, "radius": 100.0}},
	} {
		read := func() string {
			t.Helper()
			resp := postJSON(t, ts.URL+c.path, c.body)
			defer resp.Body.Close()
			raw, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d, err %v: %s", c.path, resp.StatusCode, err, raw)
			}
			return string(raw)
		}
		without := read()
		c.body["parallelism"] = 3
		if with := read(); with != without {
			t.Fatalf("%s with \"parallelism\": %s\nwithout: %s", c.path, with, without)
		}
		if strings.Contains(without, "parallel") || strings.Contains(without, "straggler") {
			t.Fatalf("%s reply still reports fan-out: %s", c.path, without)
		}
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if raw, _ := io.ReadAll(resp.Body); strings.Contains(string(raw), "parallelism") {
		t.Fatalf("/stats still reports parallelism: %s", raw)
	}
}

func TestSearchFilterIDs(t *testing.T) {
	ts, idx := testServer(t)
	q := make([]float32, idx.Dim())
	allow := []int{11, 22, 33}
	resp := postJSON(t, ts.URL+"/search",
		searchRequest{Vector: q, K: 10, queryOptions: queryOptions{FilterIDs: allow}})
	var sr searchResponse
	decode(t, resp, &sr)
	if len(sr.Results) != len(allow) {
		t.Fatalf("allowlist of %d ids returned %d results", len(allow), len(sr.Results))
	}
	allowed := map[int]bool{11: true, 22: true, 33: true}
	for _, h := range sr.Results {
		if !allowed[h.ID] {
			t.Fatalf("filter_ids leaked id %d", h.ID)
		}
	}
}

func TestSearchBatchEndpoint(t *testing.T) {
	ts, idx := testServer(t)
	queries := make([][]float32, 5)
	for i := range queries {
		v := make([]float32, idx.Dim())
		v[0] = float32(i)
		queries[i] = v
	}
	resp := postJSON(t, ts.URL+"/search_batch",
		batchRequest{Vectors: queries, K: 4, queryOptions: queryOptions{T: 50}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var br batchResponse
	decode(t, resp, &br)
	if len(br.Results) != len(queries) || len(br.Stats) != len(queries) {
		t.Fatalf("%d queries gave %d results, %d stats",
			len(queries), len(br.Results), len(br.Stats))
	}
	for i, hits := range br.Results {
		if len(hits) != 4 {
			t.Fatalf("query %d: %d hits, want 4", i, len(hits))
		}
		prev := -1.0
		for _, h := range hits {
			if h.Dist < prev {
				t.Fatalf("query %d results not sorted", i)
			}
			prev = h.Dist
		}
		if br.Stats[i].Candidates == 0 {
			t.Fatalf("query %d has empty stats", i)
		}
	}
}

func TestSearchBatchValidation(t *testing.T) {
	ts, idx := testServer(t)
	// Empty batch.
	resp := postJSON(t, ts.URL+"/search_batch", batchRequest{K: 3})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch status %d", resp.StatusCode)
	}
	resp.Body.Close()
	// One vector of the wrong dimension poisons the batch.
	r2 := postJSON(t, ts.URL+"/search_batch", batchRequest{
		Vectors: [][]float32{make([]float32, idx.Dim()), {1, 2}}, K: 3})
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad-dim batch status %d", r2.StatusCode)
	}
	r2.Body.Close()
	// Wrong method.
	r3, err := http.Get(ts.URL + "/search_batch")
	if err != nil {
		t.Fatal(err)
	}
	if r3.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /search_batch status %d", r3.StatusCode)
	}
	r3.Body.Close()
}

func TestDeleteEndpoint(t *testing.T) {
	ts, _ := testServer(t)
	id := 7
	resp := postJSON(t, ts.URL+"/delete", deleteRequest{ID: &id})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var dr deleteResponse
	decode(t, resp, &dr)
	if !dr.Deleted {
		t.Fatal("first delete of id 7 reported deleted=false")
	}
	// Second delete of the same id is a no-op, not an error.
	r2 := postJSON(t, ts.URL+"/delete", deleteRequest{ID: &id})
	decode(t, r2, &dr)
	if dr.Deleted {
		t.Fatal("second delete of id 7 reported deleted=true")
	}
	// The deleted id no longer appears in searches.
	r3 := postJSON(t, ts.URL+"/search", searchRequest{Vector: make([]float32, 16), K: 1000})
	var sr searchResponse
	decode(t, r3, &sr)
	for _, h := range sr.Results {
		if h.ID == id {
			t.Fatal("deleted id still returned by /search")
		}
	}
	// Missing id field is a 400.
	r4 := postJSON(t, ts.URL+"/delete", struct{}{})
	if r4.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing-id status %d", r4.StatusCode)
	}
	r4.Body.Close()
}

// TestCompactEndpoint: POST /compact reclaims every tombstone (a body
// naming a shard, as clients of the striped index sent, is answered the
// same), and /stats then reports the compaction.
func TestCompactEndpoint(t *testing.T) {
	ts, idx := testServer(t)
	for id := 0; id < 90; id++ {
		if _, err := idx.DeleteWithError(id); err != nil {
			t.Fatal(err)
		}
	}
	resp := postJSON(t, ts.URL+"/compact", map[string]int{"shard": 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var cr compactResponse
	decode(t, resp, &cr)
	if cr.Removed != 90 || idx.Deleted() != 0 {
		t.Fatalf("compaction removed %d, want 90; %d tombstones left", cr.Removed, idx.Deleted())
	}
	r2 := postJSON(t, ts.URL+"/compact", struct{}{})
	decode(t, r2, &cr)
	if cr.Removed != 0 {
		t.Fatalf("a second compaction removed %d", cr.Removed)
	}
	r3, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st statsResponse
	decode(t, r3, &st)
	if st.Vectors != 910 || st.Deleted != 0 || st.Compactions != 1 || st.LastCompaction == "" || st.UnpackedRows != 0 {
		t.Fatalf("stats after the compaction: %+v", st)
	}
}

// TestConcurrentMixedTraffic hammers a server with every mutating and
// searching endpoint at once; under -race this is the regression net for
// the lock-free routing.
func TestConcurrentMixedTraffic(t *testing.T) {
	ts, idx := testServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 256)
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				switch g % 4 {
				case 0:
					if st := postJSONQuiet(ts.URL+"/search", searchRequest{Vector: make([]float32, idx.Dim()), K: 3}); st != http.StatusOK {
						errs <- fmt.Errorf("search status %d", st)
					}
				case 1:
					v := make([]float32, idx.Dim())
					v[0] = float32(g*100 + i)
					if st := postJSONQuiet(ts.URL+"/vectors", searchRequest{Vector: v}); st != http.StatusOK {
						errs <- fmt.Errorf("add status %d", st)
					}
				case 2:
					id := g*37 + i
					if st := postJSONQuiet(ts.URL+"/delete", deleteRequest{ID: &id}); st != http.StatusOK {
						errs <- fmt.Errorf("delete status %d", st)
					}
				case 3:
					if st := postJSONQuiet(ts.URL+"/compact", struct{}{}); st != http.StatusOK {
						errs <- fmt.Errorf("compact status %d", st)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestLoadIndexFromFile(t *testing.T) {
	idx := testIndex(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "test.dblsh")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	loaded, err := loadIndex(config{indexFile: path, metric: dblsh.Euclidean})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != idx.Len() || loaded.Dim() != idx.Dim() {
		t.Fatalf("loaded shape %d×%d", loaded.Len(), loaded.Dim())
	}
}

func TestLoadIndexDemo(t *testing.T) {
	idx, err := loadIndex(config{demoN: 500, demoDim: 8, seed: 3, metric: dblsh.Euclidean})
	if err != nil {
		t.Fatal(err)
	}
	if idx.Len() != 500 || idx.Dim() != 8 {
		t.Fatalf("demo shape %d×%d", idx.Len(), idx.Dim())
	}
}

func TestLoadIndexMissingFile(t *testing.T) {
	if _, err := loadIndex(config{indexFile: "/nonexistent/path.dblsh", metric: dblsh.Euclidean}); err == nil {
		t.Fatal("missing file must error")
	}
}

// TestCheckpointEndpoint drives POST /checkpoint and the /stats durability
// block against a durable index: mutations show up as pending ops, a
// checkpoint absorbs them, and a non-durable server rejects the endpoint.
func TestCheckpointEndpoint(t *testing.T) {
	dir := t.TempDir()
	idx, err := dblsh.Open(dir, dblsh.Options{Dim: 16, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { idx.Close() })
	ts := httptest.NewServer(newServer(idx, serverConfig{}).handler())
	t.Cleanup(ts.Close)

	resp := postJSON(t, ts.URL+"/vectors", searchRequest{Vector: make([]float32, 16)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("add status %d", resp.StatusCode)
	}
	resp.Body.Close()

	var stats statsResponse
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	decode(t, sresp, &stats)
	if stats.Durability == nil || stats.Durability.OpsSinceCheckpoint != 1 || stats.Durability.LogBytes == 0 {
		t.Fatalf("pre-checkpoint durability stats: %+v", stats.Durability)
	}

	var after durabilityJSON
	decode(t, postJSON(t, ts.URL+"/checkpoint", nil), &after)
	if after.OpsSinceCheckpoint != 0 || after.LogBytes != 0 || after.LastCheckpoint == "" {
		t.Fatalf("post-checkpoint response: %+v", after)
	}

	// GET is not allowed.
	gresp, err := http.Get(ts.URL + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /checkpoint status %d", gresp.StatusCode)
	}

	// After Close the server is shutting down: an add is a 503, not a 400.
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}
	cresp := postJSON(t, ts.URL+"/vectors", searchRequest{Vector: make([]float32, 16)})
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("add on closed index: status %d, want 503", cresp.StatusCode)
	}
	// So is a checkpoint: a closed index is not a failed checkpoint.
	ckresp := postJSON(t, ts.URL+"/checkpoint", nil)
	ckresp.Body.Close()
	if ckresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("checkpoint on closed index: status %d, want 503", ckresp.StatusCode)
	}

	// A non-durable server rejects the endpoint and omits the stats block.
	mem, _ := testServer(t)
	mresp := postJSON(t, mem.URL+"/checkpoint", nil)
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("non-durable /checkpoint status %d", mresp.StatusCode)
	}
	var memStats statsResponse
	msresp, err := http.Get(mem.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	decode(t, msresp, &memStats)
	if memStats.Durability != nil {
		t.Fatalf("non-durable /stats carries durability block: %+v", memStats.Durability)
	}
}

// TestLoadIndexDurableLifecycle drives the -data-dir path end to end: a
// fresh directory is seeded from the demo corpus, mutations stick across a
// close-and-reopen, and the second open resumes from the directory rather
// than rebuilding the demo corpus.
func TestLoadIndexDurableLifecycle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	cfg := config{
		dataDir: dir, demoN: 300, demoDim: 8, seed: 5,
		sync: dblsh.SyncNever, metric: dblsh.Euclidean,
	}
	idx, err := loadIndex(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Len() != 300 {
		t.Fatalf("seeded store shape: Len=%d", idx.Len())
	}
	if _, ok := idx.Durability(); !ok {
		t.Fatal("store opened without durability")
	}
	v := make([]float32, 8)
	id, err := idx.Add(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with a smaller demo config: the directory must win.
	cfg.demoN = 10
	re, err := loadIndex(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 301 || re.NextID() != id+1 {
		t.Fatalf("reopened store: Len=%d NextID=%d, want 301/%d", re.Len(), re.NextID(), id+1)
	}
}
