package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"dblsh"
	"dblsh/internal/obs"
	"dblsh/internal/vec"
	"dblsh/internal/vec/cpu"
)

// server routes HTTP requests straight into the index with no lock of its
// own: dblsh.Index is internally sharded and synchronized, so /search,
// /search_batch, /vectors, /delete and /compact all run concurrently — a
// mutation write-locks one shard while the others keep answering, instead
// of the whole-index RWMutex this server used to take.
//
// Every request passes through the wrap middleware (middleware.go): the
// expensive endpoints sit behind the admission limiter, every endpoint
// reports into the metrics registry exposed at /metrics, and requests over
// the slow-query threshold are logged with their work counters.
type server struct {
	idx *dblsh.Index
	cfg serverConfig
	reg *obs.Registry
	m   *httpMetrics
	lim *limiter

	searchers sync.Pool
}

func newServer(idx *dblsh.Index, cfg serverConfig) *server {
	s := &server{idx: idx, cfg: cfg, reg: obs.NewRegistry()}
	s.searchers.New = func() interface{} { return idx.NewSearcher() }
	idx.Instrument(s.reg)
	s.m = newHTTPMetrics(s.reg)
	s.lim = newLimiter(cfg.maxInflight, cfg.maxQueue)
	if s.lim != nil {
		s.reg.GaugeFunc("dblsh_admission_inflight",
			"Admission slots currently held by executing requests.",
			func() float64 { return float64(s.lim.inflight()) })
		s.reg.GaugeFunc("dblsh_admission_queue_depth",
			"Requests waiting for an admission slot.",
			func() float64 { return float64(s.lim.queued()) })
	}
	return s
}

// handler returns the HTTP routing table:
//
//	GET  /healthz         liveness probe
//	GET  /stats           index shape, parameters, and per-shard state
//	POST /search          {"vector": [...], "k": 10, "t": 25, "early_stop": 1.5, "max_radius": 8.0, "filter_ids": [...]}
//	POST /search_batch    {"vectors": [[...], ...], "k": 10, ...same per-request knobs}
//	POST /search_radius   {"vector": [...], "radius": 1.5, "t": 25, "filter_ids": [...]}
//	POST /vectors         {"vector": [...]} — appends, returns its id
//	POST /delete          {"id": 7} — tombstones a vector
//	POST /compact         {"shard": 2} — rebuild one shard (omit for all), dropping tombstones
//	POST /checkpoint      — rewrite the durable snapshot and truncate the op log (requires -data-dir)
//
// The per-request knobs t, early_stop, max_radius and filter_ids are all
// optional and default to the index's configuration; filter_ids, when
// present, is an allowlist — only those ids may be returned. Search
// responses echo the work statistics of the query.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	// Probe and scrape endpoints skip admission so they keep answering
	// while the serving endpoints shed load.
	mux.HandleFunc("/healthz", s.wrap("/healthz", false, s.handleHealthz))
	mux.HandleFunc("/stats", s.wrap("/stats", false, s.handleStats))
	mux.HandleFunc("/metrics", s.wrap("/metrics", false, s.handleMetrics))
	mux.HandleFunc("/search", s.wrap("/search", true, s.handleSearch))
	mux.HandleFunc("/search_batch", s.wrap("/search_batch", true, s.handleSearchBatch))
	mux.HandleFunc("/search_radius", s.wrap("/search_radius", true, s.handleSearchRadius))
	mux.HandleFunc("/vectors", s.wrap("/vectors", true, s.handleAdd))
	mux.HandleFunc("/delete", s.wrap("/delete", true, s.handleDelete))
	mux.HandleFunc("/compact", s.wrap("/compact", true, s.handleCompact))
	mux.HandleFunc("/checkpoint", s.wrap("/checkpoint", true, s.handleCheckpoint))
	return mux
}

// allowMethod enforces an endpoint's single allowed method. A mismatch
// answers 405 with the Allow header set, as RFC 9110 requires, and the
// same JSON error shape as every other API error.
func allowMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method == method {
		return true
	}
	w.Header().Set("Allow", method)
	httpError(w, http.StatusMethodNotAllowed, "use "+method)
	return false
}

// handleMetrics serves the Prometheus text exposition of every registered
// metric: serving-layer request/latency/in-flight series, per-query work
// histograms, and the library's WAL/checkpoint/compaction families.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !allowMethod(w, r, http.MethodGet) {
		return
	}
	s.reg.ServeHTTP(w, r)
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !allowMethod(w, r, http.MethodGet) {
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

type shardStatsJSON struct {
	Shard          int    `json:"shard"`
	Size           int    `json:"size"`
	Live           int    `json:"live"`
	Deleted        int    `json:"deleted"`
	Compactions    int    `json:"compactions"`
	LastCompaction string `json:"last_compaction,omitempty"` // RFC 3339; absent if never
	IndexSizeBytes int64  `json:"index_size_bytes"`
}

// durabilityJSON reports a durable server's recovery state; absent from
// /stats when the server runs without -data-dir.
type durabilityJSON struct {
	LogBytes           int64  `json:"log_bytes"`
	OpsSinceCheckpoint int64  `json:"ops_since_checkpoint"`
	Checkpoints        int64  `json:"checkpoints"`
	LastCheckpoint     string `json:"last_checkpoint,omitempty"` // RFC 3339; absent if never
}

type statsResponse struct {
	Vectors        int              `json:"vectors"`
	Deleted        int              `json:"deleted"`
	Dim            int              `json:"dim"`
	Metric         string           `json:"metric"`
	NormBound      float64          `json:"norm_bound,omitempty"` // inner-product reduction only
	K              int              `json:"k"`
	L              int              `json:"l"`
	T              int              `json:"t"`
	C              float64          `json:"c"`
	W0             float64          `json:"w0"`
	Kernel         string           `json:"kernel"`        // active distance kernel
	KernelSource   string           `json:"kernel_source"` // auto | env | forced
	KernelNames    []string         `json:"kernel_names"`  // kernels this build/CPU registered
	CPUFeatures    []string         `json:"cpu_features,omitempty"`
	IndexSizeBytes int64            `json:"index_size_bytes"`
	ShardCount     int              `json:"shard_count"`
	Shards         []shardStatsJSON `json:"shards"`
	Durability     *durabilityJSON  `json:"durability,omitempty"`
}

func durabilityStats(idx *dblsh.Index) *durabilityJSON {
	st, ok := idx.Durability()
	if !ok {
		return nil
	}
	js := &durabilityJSON{
		LogBytes:           st.LogBytes,
		OpsSinceCheckpoint: st.OpsSinceCheckpoint,
		Checkpoints:        st.Checkpoints,
	}
	if !st.LastCheckpoint.IsZero() {
		js.LastCheckpoint = st.LastCheckpoint.Format(time.RFC3339)
	}
	return js
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	if !allowMethod(w, r, http.MethodGet) {
		return
	}
	p := s.idx.Params()
	resp := statsResponse{
		Dim:          s.idx.Dim(),
		Metric:       s.idx.Metric().String(),
		NormBound:    p.NormBound,
		K:            p.K,
		L:            p.L,
		T:            p.T,
		C:            p.C,
		W0:           p.W0,
		Kernel:       vec.KernelName(),
		KernelSource: vec.KernelSource(),
		KernelNames:  vec.KernelNames(),
		CPUFeatures:  cpu.Detect().List(),
		ShardCount:   s.idx.Shards(),
		Durability:   durabilityStats(s.idx),
	}
	// Derive the totals from the same per-shard snapshot the response
	// shows, so vectors/deleted always agree with the shard breakdown even
	// while mutations are in flight.
	for _, st := range s.idx.ShardStats() {
		js := shardStatsJSON{
			Shard:          st.Shard,
			Size:           st.Size,
			Live:           st.Live,
			Deleted:        st.Deleted,
			Compactions:    st.Compactions,
			IndexSizeBytes: st.IndexSizeBytes,
		}
		if !st.LastCompaction.IsZero() {
			js.LastCompaction = st.LastCompaction.Format(time.RFC3339)
		}
		resp.Shards = append(resp.Shards, js)
		resp.Vectors += st.Size
		resp.Deleted += st.Deleted
		resp.IndexSizeBytes += st.IndexSizeBytes
	}
	writeJSON(w, http.StatusOK, resp)
}

// queryOptions are the per-request knobs shared by every search endpoint,
// mirroring the library's SearchOption set.
type queryOptions struct {
	T         int     `json:"t"`
	EarlyStop float64 `json:"early_stop"`
	MaxRadius float64 `json:"max_radius"`
	FilterIDs []int   `json:"filter_ids"`
}

// searchOptions converts the request knobs into library options. The
// request context rides along so client disconnects and deadlines cancel
// the radius ladder. Zero values mean "unset"; out-of-range values are
// passed through so the library's own validation produces the error, which
// searchError maps to a 400 — one set of rules, no drift. The exception is
// a negative t, which zero-means-unset gating would otherwise silently
// swallow.
func (o queryOptions) searchOptions(ctx context.Context) ([]dblsh.SearchOption, error) {
	opts := []dblsh.SearchOption{dblsh.WithContext(ctx)}
	if o.T < 0 {
		return nil, errors.New("t must be non-negative")
	}
	if o.T > 0 {
		opts = append(opts, dblsh.WithCandidateBudget(o.T))
	}
	if o.EarlyStop != 0 {
		opts = append(opts, dblsh.WithEarlyStop(o.EarlyStop))
	}
	if o.MaxRadius != 0 {
		opts = append(opts, dblsh.WithMaxRadius(o.MaxRadius))
	}
	if len(o.FilterIDs) > 0 {
		allow := make(map[int]bool, len(o.FilterIDs))
		for _, id := range o.FilterIDs {
			allow[id] = true
		}
		opts = append(opts, dblsh.WithFilter(func(id int) bool { return allow[id] }))
	}
	return opts, nil
}

type searchRequest struct {
	Vector []float32 `json:"vector"`
	K      int       `json:"k"`
	Radius float64   `json:"radius"`
	queryOptions
}

type searchHit struct {
	ID   int     `json:"id"`
	Dist float64 `json:"dist"`
}

type queryStats struct {
	Candidates   int     `json:"candidates"`
	Rounds       int     `json:"rounds"`
	FinalRadius  float64 `json:"final_radius"`
	NodesVisited int     `json:"nodes_visited"`
	FrontierSize int     `json:"frontier_size"`
}

type searchResponse struct {
	Results []searchHit `json:"results"`
	Stats   *queryStats `json:"stats,omitempty"`
}

func toHits(results []dblsh.Result) []searchHit {
	hits := make([]searchHit, len(results))
	for i, h := range results {
		hits[i] = searchHit{ID: h.ID, Dist: h.Dist}
	}
	return hits
}

func toStats(st dblsh.Stats) *queryStats {
	return &queryStats{
		Candidates:   st.Candidates,
		Rounds:       st.Rounds,
		FinalRadius:  st.FinalRadius,
		NodesVisited: st.NodesVisited,
		FrontierSize: st.FrontierSize,
	}
}

func (s *server) decodeVector(w http.ResponseWriter, r *http.Request) (searchRequest, bool) {
	var req searchRequest
	if !allowMethod(w, r, http.MethodPost) {
		return req, false
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return req, false
	}
	if dim := s.idx.Dim(); len(req.Vector) != dim {
		httpError(w, http.StatusBadRequest,
			fmt.Sprintf("vector has dim %d, index expects %d", len(req.Vector), dim))
		return req, false
	}
	return req, true
}

// searchError maps a SearchOpts error to an HTTP status: context expiry
// (client gone or deadline hit) versus invalid options.
func searchError(w http.ResponseWriter, err error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		httpError(w, http.StatusRequestTimeout, err.Error())
		return
	}
	httpError(w, http.StatusBadRequest, err.Error())
}

func (s *server) handleSearch(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeVector(w, r)
	if !ok {
		return
	}
	if req.K <= 0 {
		req.K = 10
	}
	if req.K > 10_000 {
		httpError(w, http.StatusBadRequest, "k too large (max 10000)")
		return
	}
	opts, err := req.searchOptions(r.Context())
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	var st dblsh.Stats
	opts = append(opts, dblsh.WithStats(&st))

	searcher := s.searchers.Get().(*dblsh.Searcher)
	hits, err := searcher.SearchOpts(req.Vector, req.K, opts...)
	s.searchers.Put(searcher)
	if err != nil {
		searchError(w, err)
		return
	}
	s.noteQuery(w, req.K, st)
	writeJSON(w, http.StatusOK, searchResponse{Results: toHits(hits), Stats: toStats(st)})
}

type batchRequest struct {
	Vectors [][]float32 `json:"vectors"`
	K       int         `json:"k"`
	queryOptions
}

type batchResponse struct {
	Results [][]searchHit `json:"results"`
	Stats   []queryStats  `json:"stats"`
}

func (s *server) handleSearchBatch(w http.ResponseWriter, r *http.Request) {
	if !allowMethod(w, r, http.MethodPost) {
		return
	}
	var req batchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 256<<20)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	if len(req.Vectors) == 0 {
		httpError(w, http.StatusBadRequest, "vectors must be non-empty")
		return
	}
	if len(req.Vectors) > 10_000 {
		httpError(w, http.StatusBadRequest, "too many vectors (max 10000)")
		return
	}
	dim := s.idx.Dim()
	for i, v := range req.Vectors {
		if len(v) != dim {
			httpError(w, http.StatusBadRequest,
				fmt.Sprintf("vector %d has dim %d, index expects %d", i, len(v), dim))
			return
		}
	}
	if req.K <= 0 {
		req.K = 10
	}
	if req.K > 10_000 {
		httpError(w, http.StatusBadRequest, "k too large (max 10000)")
		return
	}
	opts, err := req.searchOptions(r.Context())
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	var per []dblsh.Stats
	opts = append(opts, dblsh.WithBatchStats(&per))

	// No server-side lock: the index is internally sharded, so a batch no
	// longer delays writers — shard locks are held per ladder round, and
	// mutations interleave between rounds and queries.
	results, err := s.idx.SearchBatchOpts(req.Vectors, req.K, opts...)
	if err != nil {
		searchError(w, err)
		return
	}
	resp := batchResponse{
		Results: make([][]searchHit, len(results)),
		Stats:   make([]queryStats, len(per)),
	}
	for i, hits := range results {
		resp.Results[i] = toHits(hits)
	}
	for i, st := range per {
		resp.Stats[i] = *toStats(st)
		s.noteQuery(w, req.K, st)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) handleSearchRadius(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeVector(w, r)
	if !ok {
		return
	}
	if req.Radius <= 0 {
		httpError(w, http.StatusBadRequest, "radius must be positive")
		return
	}
	// A fixed-radius query runs a single round: the ladder-shaping knobs
	// have nothing to act on, so reject them rather than silently ignore.
	if req.EarlyStop != 0 || req.MaxRadius != 0 {
		httpError(w, http.StatusBadRequest, "early_stop and max_radius do not apply to fixed-radius queries")
		return
	}
	opts, err := req.searchOptions(r.Context())
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	var st dblsh.Stats
	opts = append(opts, dblsh.WithStats(&st))

	searcher := s.searchers.Get().(*dblsh.Searcher)
	hit, found, err := searcher.SearchRadiusOpts(req.Vector, req.Radius, opts...)
	s.searchers.Put(searcher)
	if err != nil {
		searchError(w, err)
		return
	}
	s.noteQuery(w, 1, st)
	resp := searchResponse{Results: []searchHit{}, Stats: toStats(st)}
	if found {
		resp.Results = []searchHit{{ID: hit.ID, Dist: hit.Dist}}
	}
	writeJSON(w, http.StatusOK, resp)
}

type addResponse struct {
	ID int `json:"id"`
}

func (s *server) handleAdd(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeVector(w, r)
	if !ok {
		return
	}
	id, err := s.idx.Add(req.Vector)
	if err != nil {
		httpError(w, addErrorStatus(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, addResponse{ID: id})
}

// addErrorStatus maps an Index.Add error to an HTTP status. Only a rejected
// vector (wrong dimension, NaN/Inf coordinate, a metric's ingest contract)
// is the client's fault. A durable-write failure is a server-side fault
// (nothing was applied — retrying is safe), and a closed index means the
// server is shutting down.
func addErrorStatus(err error) int {
	switch {
	case errors.Is(err, dblsh.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, dblsh.ErrDurability):
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

type deleteRequest struct {
	// ID is a pointer so a request that omits the field is distinguishable
	// from a legitimate {"id": 0}.
	ID *int `json:"id"`
}

type deleteResponse struct {
	Deleted bool `json:"deleted"`
}

func (s *server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if !allowMethod(w, r, http.MethodPost) {
		return
	}
	var req deleteRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	if req.ID == nil {
		httpError(w, http.StatusBadRequest, "missing id")
		return
	}
	// Deleting an unknown or already-deleted id is not an error — the
	// response reports whether this request removed it — but a durable-log
	// failure must not masquerade as "not found": the vector is still live
	// and the fault is the server's.
	deleted, err := s.idx.DeleteWithError(*req.ID)
	if err != nil {
		if errors.Is(err, dblsh.ErrClosed) {
			httpError(w, http.StatusServiceUnavailable, err.Error())
		} else {
			httpError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	writeJSON(w, http.StatusOK, deleteResponse{Deleted: deleted})
}

type compactRequest struct {
	// Shard selects one shard to compact; omit (or null) to compact all.
	Shard *int `json:"shard"`
}

type compactResponse struct {
	Removed int `json:"removed"`
}

func (s *server) handleCompact(w http.ResponseWriter, r *http.Request) {
	if !allowMethod(w, r, http.MethodPost) {
		return
	}
	var req compactRequest
	// An empty body means "compact everything".
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		httpError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	if req.Shard == nil {
		writeJSON(w, http.StatusOK, compactResponse{Removed: s.idx.Compact()})
		return
	}
	removed, err := s.idx.CompactShard(*req.Shard)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, compactResponse{Removed: removed})
}

// handleCheckpoint rewrites the durable snapshot and truncates the op log
// on demand — before a planned restart, after a bulk load, or from a cron
// job when -checkpoint-every is disabled. The index keeps serving
// throughout (the snapshot streams shard by shard under per-shard read
// locks). The response reports the post-checkpoint durability state.
func (s *server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if !allowMethod(w, r, http.MethodPost) {
		return
	}
	if _, durable := s.idx.Durability(); !durable {
		httpError(w, http.StatusBadRequest, "server is not durable (start it with -data-dir)")
		return
	}
	if err := s.idx.Checkpoint(); err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, durabilityStats(s.idx))
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Too late to change the status; nothing more to do.
		return
	}
}

type errorResponse struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}
