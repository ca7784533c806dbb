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
// own: dblsh.Index is internally synchronized, so /search, /search_batch,
// /vectors, /delete and /compact all run concurrently — a query holds the
// index's read lock one ladder round at a time, so a mutation waits for at
// most one round of each running query instead of whole queries.
//
// Every request passes through the wrap middleware (middleware.go): a
// wrong method is answered there, the expensive endpoints sit behind the
// admission limiter, every endpoint reports into the metrics registry
// exposed at /metrics, and requests over the slow-query threshold are
// logged with their work counters.
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

// endpoint is one route of the server: its path, the one method it
// answers, whether it passes admission control, and its handler.
type endpoint struct {
	path, method string
	admit        bool
	h            http.HandlerFunc
}

// endpoints is the server's route table. Probe and scrape endpoints skip
// admission so they keep answering while the serving endpoints shed load.
// A POST endpoint's body is its request type's JSON, capped at the limit
// given to jsonEndpoint.
func (s *server) endpoints() []endpoint {
	return []endpoint{
		{"/healthz", http.MethodGet, false, handleHealthz},
		{"/stats", http.MethodGet, false, s.handleStats},
		{"/metrics", http.MethodGet, false, s.reg.ServeHTTP},
		{"/search", http.MethodPost, true, jsonEndpoint(64<<20, s.search)},
		{"/search_batch", http.MethodPost, true, jsonEndpoint(256<<20, s.searchBatch)},
		{"/search_radius", http.MethodPost, true, jsonEndpoint(64<<20, s.searchRadius)},
		{"/vectors", http.MethodPost, true, jsonEndpoint(64<<20, s.add)},
		{"/delete", http.MethodPost, true, jsonEndpoint(1<<20, s.delete)},
		{"/compact", http.MethodPost, true, jsonEndpoint(1<<20, s.compact)},
		{"/checkpoint", http.MethodPost, true, jsonEndpoint(1<<20, s.checkpoint)},
	}
}

// handler serves every endpoint of the table through wrap.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	for _, e := range s.endpoints() {
		mux.HandleFunc(e.path, s.wrap(e))
	}
	return mux
}

// jsonEndpoint adapts fn to HTTP: it decodes at most limit bytes of body
// into a Req (an empty body is the zero Req), calls fn, and answers with
// fn's Resp as JSON, or with fn's error at the status errStatus gives it.
func jsonEndpoint[Req, Resp any](limit int64, fn func(http.ResponseWriter, *http.Request, *Req) (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
			httpError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
			return
		}
		resp, err := fn(w, r, &req)
		if err != nil {
			httpError(w, errStatus(err), err.Error())
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

// errCheckpoint marks a checkpoint that failed on the server's side.
var errCheckpoint = errors.New("checkpoint failed")

// errStatus maps an endpoint's error to its HTTP status. Context expiry
// (client gone or deadline hit) is 408, and a closed index means the
// server is shutting down, 503. A durable write or a checkpoint that
// failed is the server's fault, 500, and retrying it is safe. Anything
// else is a request the server or the index refused, 400.
func errStatus(err error) int {
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusRequestTimeout
	case errors.Is(err, dblsh.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, dblsh.ErrDurability), errors.Is(err, errCheckpoint):
		return http.StatusInternalServerError
	}
	return http.StatusBadRequest
}

func handleHealthz(w http.ResponseWriter, _ *http.Request) {
	fmt.Fprintln(w, "ok")
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
	Vectors        int             `json:"vectors"`
	Deleted        int             `json:"deleted"`
	Dim            int             `json:"dim"`
	Metric         string          `json:"metric"`
	NormBound      float64         `json:"norm_bound,omitempty"` // inner-product reduction only
	K              int             `json:"k"`
	L              int             `json:"l"`
	T              int             `json:"t"`
	C              float64         `json:"c"`
	W0             float64         `json:"w0"`
	Kernel         string          `json:"kernel"`        // active distance kernel
	KernelSource   string          `json:"kernel_source"` // auto | env | forced
	KernelNames    []string        `json:"kernel_names"`  // kernels this build/CPU registered
	CPUFeatures    []string        `json:"cpu_features,omitempty"`
	IndexSizeBytes int64           `json:"index_size_bytes"`
	UnpackedRows   int             `json:"unpacked_rows"` // added since the index was last packed
	Compactions    int             `json:"compactions"`
	LastCompaction string          `json:"last_compaction,omitempty"` // RFC 3339; absent if never
	Durability     *durabilityJSON `json:"durability,omitempty"`
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

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
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
		Durability:   durabilityStats(s.idx),
	}
	// The counts come from one snapshot, so they agree with each other even
	// while mutations are in flight.
	st := s.idx.ShardStats()[0]
	resp.Vectors, resp.Deleted, resp.IndexSizeBytes = st.Size, st.Deleted, st.IndexSizeBytes
	resp.UnpackedRows, resp.Compactions = st.Unpacked, st.Compactions
	if !st.LastCompaction.IsZero() {
		resp.LastCompaction = st.LastCompaction.Format(time.RFC3339)
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

// searchOptions converts the request knobs into library options, after
// the stats option given. The request context rides along so client
// disconnects and deadlines cancel the radius ladder. Zero values mean
// "unset"; out-of-range values are passed through so the library's own
// validation produces the error, which errStatus maps to a 400: one set
// of rules, no drift. The exception is a negative t, which
// zero-means-unset gating would otherwise silently swallow.
func (o queryOptions) searchOptions(ctx context.Context, stats dblsh.SearchOption) ([]dblsh.SearchOption, error) {
	opts := []dblsh.SearchOption{stats, dblsh.WithContext(ctx)}
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

// resolveK applies /search's and /search_batch's rules to the request's k:
// omitted or 0 means 10; a negative k is refused rather than read as unset,
// like a negative t, and so is one above 10 000.
func resolveK(k int) (int, error) {
	switch {
	case k < 0:
		return 0, errors.New("k must be non-negative")
	case k == 0:
		return 10, nil
	case k > 10_000:
		return 0, errors.New("k too large (max 10000)")
	}
	return k, nil
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

func (s *server) search(w http.ResponseWriter, r *http.Request, req *searchRequest) (*searchResponse, error) {
	var st dblsh.Stats
	opts, err := req.searchOptions(r.Context(), dblsh.WithStats(&st))
	if err != nil {
		return nil, err
	}
	k, err := resolveK(req.K)
	if err != nil {
		return nil, err
	}
	searcher := s.searchers.Get().(*dblsh.Searcher)
	hits, err := searcher.SearchOpts(req.Vector, k, opts...)
	s.searchers.Put(searcher)
	if err != nil {
		return nil, err
	}
	s.noteQuery(w, k, st)
	return &searchResponse{Results: toHits(hits), Stats: toStats(st)}, nil
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

func (s *server) searchBatch(w http.ResponseWriter, r *http.Request, req *batchRequest) (*batchResponse, error) {
	switch {
	case len(req.Vectors) == 0:
		return nil, errors.New("vectors must be non-empty")
	case len(req.Vectors) > 10_000:
		return nil, errors.New("too many vectors (max 10000)")
	}
	var per []dblsh.Stats
	opts, err := req.searchOptions(r.Context(), dblsh.WithBatchStats(&per))
	if err != nil {
		return nil, err
	}
	k, err := resolveK(req.K)
	if err != nil {
		return nil, err
	}
	// No server-side lock: the index's read lock is held per ladder round,
	// so a batch does not delay writers for longer than one round, and
	// mutations interleave between rounds and queries.
	results, err := s.idx.SearchBatchOpts(req.Vectors, k, opts...)
	if err != nil {
		return nil, err
	}
	resp := &batchResponse{
		Results: make([][]searchHit, len(results)),
		Stats:   make([]queryStats, len(per)),
	}
	for i, hits := range results {
		resp.Results[i] = toHits(hits)
	}
	for i, st := range per {
		resp.Stats[i] = *toStats(st)
		s.noteQuery(w, k, st)
	}
	return resp, nil
}

func (s *server) searchRadius(w http.ResponseWriter, r *http.Request, req *searchRequest) (*searchResponse, error) {
	if req.Radius <= 0 {
		return nil, errors.New("radius must be positive")
	}
	// A fixed-radius query runs a single round: the ladder-shaping knobs
	// have nothing to act on, so reject them rather than silently ignore.
	if req.EarlyStop != 0 || req.MaxRadius != 0 {
		return nil, errors.New("early_stop and max_radius do not apply to fixed-radius queries")
	}
	var st dblsh.Stats
	opts, err := req.searchOptions(r.Context(), dblsh.WithStats(&st))
	if err != nil {
		return nil, err
	}
	searcher := s.searchers.Get().(*dblsh.Searcher)
	hit, found, err := searcher.SearchRadiusOpts(req.Vector, req.Radius, opts...)
	s.searchers.Put(searcher)
	if err != nil {
		return nil, err
	}
	s.noteQuery(w, 1, st)
	resp := &searchResponse{Results: []searchHit{}, Stats: toStats(st)}
	if found {
		resp.Results = []searchHit{{ID: hit.ID, Dist: hit.Dist}}
	}
	return resp, nil
}

type addResponse struct {
	ID int `json:"id"`
}

// add appends the request's vector. The index refuses a wrong dimension,
// a NaN or infinite coordinate, or a vector outside the metric's ingest
// contract, each a 400.
func (s *server) add(_ http.ResponseWriter, _ *http.Request, req *searchRequest) (addResponse, error) {
	id, err := s.idx.Add(req.Vector)
	return addResponse{ID: id}, err
}

type deleteRequest struct {
	// ID is a pointer so a request that omits the field is distinguishable
	// from a legitimate {"id": 0}.
	ID *int `json:"id"`
}

type deleteResponse struct {
	Deleted bool `json:"deleted"`
}

// delete tombstones the request's id. Deleting an unknown or
// already-deleted id is not an error (the response reports whether this
// request removed it), but a durable-log failure must not masquerade as
// "not found": the vector is still live and the fault is the server's.
func (s *server) delete(_ http.ResponseWriter, _ *http.Request, req *deleteRequest) (deleteResponse, error) {
	if req.ID == nil {
		return deleteResponse{}, errors.New("missing id")
	}
	deleted, err := s.idx.DeleteWithError(*req.ID)
	return deleteResponse{Deleted: deleted}, err
}

type compactResponse struct {
	Removed int `json:"removed"`
}

func (s *server) compact(_ http.ResponseWriter, _ *http.Request, _ *struct{}) (compactResponse, error) {
	return compactResponse{Removed: s.idx.Compact()}, nil
}

// checkpoint rewrites the durable snapshot and truncates the op log on
// demand: before a planned restart, after a bulk load, or from a cron job
// when -checkpoint-every is disabled. The index keeps serving throughout
// (the snapshot is copied under the read lock and streamed without it). The
// response reports the post-checkpoint durability state.
func (s *server) checkpoint(_ http.ResponseWriter, _ *http.Request, _ *struct{}) (*durabilityJSON, error) {
	if _, durable := s.idx.Durability(); !durable {
		return nil, errors.New("server is not durable (start it with -data-dir)")
	}
	if err := s.idx.Checkpoint(); err != nil {
		return nil, fmt.Errorf("%w: %w", errCheckpoint, err)
	}
	return durabilityStats(s.idx), nil
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
