// Command dblsh-server serves approximate nearest neighbor queries over HTTP
// with a DB-LSH index.
//
// The index comes from one of three places: a durable data directory
// (-data-dir, recommended — mutations survive restarts and crashes), a file
// previously written with Index.WriteTo (-index), or a demo corpus built at
// startup (-demo-n / -demo-dim) when neither is given.
//
//	dblsh-server -addr :8080 -data-dir /var/lib/dblsh -sync 100ms -checkpoint-every 1m
//	dblsh-server -addr :8080 -index vectors.dblsh
//	dblsh-server -addr :8080 -demo-n 100000 -demo-dim 128
//
// With -data-dir the server opens the directory's checkpoint, replays its
// write-ahead op log, and logs every subsequent mutation: a crash loses at
// most what the -sync policy ("always", "never", or a flush interval like
// "100ms") had not yet fsynced. -checkpoint-every rewrites the snapshot and
// truncates the log in the background; POST /checkpoint does it on demand.
// A fresh (empty) data directory is seeded from -index when given, from the
// demo corpus otherwise. On SIGINT/SIGTERM the server drains in-flight
// requests and flushes the log before exiting.
//
// Endpoints:
//
//	GET  /healthz
//	GET  /stats
//	GET  /metrics
//	POST /search          {"vector": [...], "k": 10}
//	POST /search_batch    {"vectors": [[...], ...], "k": 10}
//	POST /search_radius   {"vector": [...], "radius": 1.5}
//	POST /vectors         {"vector": [...]}
//	POST /delete          {"id": 7}
//	POST /compact         rebuild the index from its live vectors
//	POST /checkpoint      rewrite the durable snapshot, truncate the op log
//
// Search endpoints accept optional per-request knobs — "t" (candidate
// budget, at most 2²⁰), "early_stop" (termination factor ≥ 1), "max_radius" (radius
// ladder cap) and "filter_ids" (allowlist of returnable ids) — and echo the
// query's work statistics ("candidates", "rounds", "final_radius") in the
// response, so one running server can serve low-latency and high-recall
// traffic side by side. /search_radius runs a single fixed-radius round, so
// it takes only "t" and "filter_ids" and rejects the ladder-shaping knobs.
//
// The index is one DB-LSH index behind one read-write lock: /vectors and
// /delete take the write lock briefly, a query holds the read lock for its
// whole ladder and answers from one state of the index, and /compact
// rebuilds the index while it keeps serving (only a short swap takes the
// write lock). A write waits for the queries in flight. Earlier versions
// offered -shards S, striping the rows over S indexes; a query then walked
// S times the trees: on a clustered 100 000 × 128 corpus at k = 10 (2-vCPU
// amd64 box), S = 4 visited 330.9 nodes per query against one index's
// 235.4, at a median of 114 µs against 67 µs. /stats reports the
// index's shape (unpacked_rows: vectors added since the index was last
// packed, which queries walk in arrival order; compactions and the last
// compaction's time) plus, under -data-dir, the durability state (log
// bytes, ops since checkpoint, last checkpoint time). Adds schedule a
// background repack once 512 vectors are unpacked; -compact-fraction also
// enables automatic background compaction once the tombstoned fraction
// crosses the threshold.
//
// With -pprof ADDR the server exposes Go's net/http/pprof profiling
// endpoints (/debug/pprof/...) on a separate listener, so CPU and heap
// profiles can be captured from a loaded server without mixing profiling
// traffic into the serving port:
//
//	dblsh-server -addr :8080 -pprof localhost:6060
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=10
//
// GET /metrics exposes the server's operational state in the Prometheus
// text format: request count/latency/in-flight by endpoint, per-query work
// histograms (k, nodes visited, frontier size), WAL append/fsync activity,
// checkpoint and compaction durations — the full catalog is in the README's
// "Operations" section. -slow-query-threshold additionally logs every
// request at least that slow as one JSON line on stderr, carrying the
// query's work counters.
//
// Admission control says no before overload says it worse: -max-inflight
// caps concurrently executing search/mutation requests, -max-queue bounds
// how many may wait for a slot, and anything beyond that is shed
// immediately with 429 + Retry-After — probes (/healthz, /stats) and
// scrapes (/metrics) bypass admission so operators can still see in.
// -default-deadline gives deadline-less requests one, enforced by the
// query path's context polling; expiry answers 408.
//
//	dblsh-server -addr :8080 -max-inflight 64 -max-queue 128 \
//	    -default-deadline 2s -slow-query-threshold 100ms
//
// With -metric the demo corpus is indexed under a non-Euclidean metric
// ("cosine" or "ip"); an -index file or data directory carries its own
// metric. /stats reports the active metric, search responses carry
// distances in that metric (cosine distance, or negated inner product under
// ip), and the radius knobs are rejected where the metric leaves them
// undefined.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dblsh"
	"dblsh/internal/obs"
	"dblsh/internal/vec"
	"dblsh/internal/vec/cpu"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		indexFile   = flag.String("index", "", "index file written by Index.WriteTo (empty: build demo corpus)")
		dataDir     = flag.String("data-dir", "", "durable data directory: checkpoint + write-ahead op log (empty: in-memory only)")
		syncFlag    = flag.String("sync", "always", `op-log sync policy: "always", "never", or a flush interval like "100ms"`)
		ckptEvery   = flag.Duration("checkpoint-every", time.Minute, "background checkpoint cadence under -data-dir (0 disables)")
		demoN       = flag.Int("demo-n", 50_000, "demo corpus size when -index is not given")
		demoDim     = flag.Int("demo-dim", 64, "demo corpus dimensionality")
		seed        = flag.Int64("seed", 1, "demo corpus / hashing seed")
		compactFrac = flag.Float64("compact-fraction", 0, "auto-compact the index when its tombstoned fraction reaches this (0 disables)")
		metricName  = flag.String("metric", "euclidean", "distance metric for the demo corpus: euclidean, cosine or ip (an -index file carries its own metric)")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this separate address (e.g. localhost:6060; empty disables)")

		maxInflight = flag.Int("max-inflight", 0, "admission control: max concurrently executing search/mutation requests (0 = unlimited)")
		maxQueue    = flag.Int("max-queue", 0, "admission control: requests allowed to wait for a slot before overflow is shed with 429 (with -max-inflight; 0 = shed immediately when all slots are busy)")
		defDeadline = flag.Duration("default-deadline", 0, "deadline applied to requests that arrive without one; expiry cancels the radius ladder and answers 408 (0 disables)")
		slowQuery   = flag.Duration("slow-query-threshold", 0, "log requests at least this slow as JSON slow-log lines on stderr (0 disables)")
	)
	flag.Parse()

	log.Printf("distance kernel %s (%s; cpu features: %v)",
		vec.KernelName(), vec.KernelSource(), cpu.Detect().List())

	if *pprofAddr != "" {
		go servePprof(*pprofAddr)
	}

	met, err := dblsh.ParseMetric(*metricName)
	if err != nil {
		log.Fatalf("dblsh-server: %v", err)
	}
	syncPolicy, syncEvery, err := parseSyncFlag(*syncFlag)
	if err != nil {
		log.Fatalf("dblsh-server: %v", err)
	}
	idx, err := loadIndex(config{
		indexFile: *indexFile, dataDir: *dataDir,
		sync: syncPolicy, syncEvery: syncEvery, checkpointEvery: *ckptEvery,
		demoN: *demoN, demoDim: *demoDim, seed: *seed,
		compactFrac: *compactFrac, metric: met,
	})
	if err != nil {
		log.Fatalf("dblsh-server: %v", err)
	}
	if _, durable := idx.Durability(); durable {
		log.Printf("durable store %s: sync=%s checkpoint-every=%v", *dataDir, *syncFlag, *ckptEvery)
	}
	log.Printf("serving %d vectors of dim %d (%s metric) on %s",
		idx.Len(), idx.Dim(), idx.Metric(), *addr)
	if *maxInflight > 0 {
		log.Printf("admission control: %d slots, %d queued; overflow shed with 429", *maxInflight, *maxQueue)
	}

	srv := &http.Server{
		Addr: *addr,
		Handler: newServer(idx, serverConfig{
			maxInflight:     *maxInflight,
			maxQueue:        *maxQueue,
			defaultDeadline: *defDeadline,
			slowLog:         obs.NewSlowLog(slog.NewJSONHandler(os.Stderr, nil), *slowQuery),
		}).handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	// Graceful shutdown: stop accepting, drain in-flight requests, then
	// flush and close the durable state so no acknowledged mutation rides
	// only in memory.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Print("shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		log.Printf("dblsh-server: shutdown: %v", err)
	}
	if err := idx.Close(); err != nil {
		log.Fatalf("dblsh-server: close index: %v", err)
	}
}

// servePprof exposes the net/http/pprof profiling handlers on their own
// listener, so profiling traffic never shares the serving mux (or its
// port, which may be exposed) with query traffic. Explicit registration
// keeps the handlers off http.DefaultServeMux.
func servePprof(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	log.Printf("pprof listening on %s", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		log.Printf("dblsh-server: pprof listener: %v", err)
	}
}

// parseSyncFlag maps the -sync flag to a policy: "always", "never", or a
// duration meaning interval flushing at that cadence.
func parseSyncFlag(s string) (dblsh.SyncPolicy, time.Duration, error) {
	switch s {
	case "always":
		return dblsh.SyncAlways, 0, nil
	case "never":
		return dblsh.SyncNever, 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return 0, 0, fmt.Errorf(`-sync must be "always", "never" or a positive duration, got %q`, s)
	}
	return dblsh.SyncInterval, d, nil
}

type config struct {
	indexFile, dataDir         string
	sync                       dblsh.SyncPolicy
	syncEvery, checkpointEvery time.Duration
	demoN, demoDim             int
	seed                       int64
	compactFrac                float64
	metric                     dblsh.Metric
}

func loadIndex(c config) (*dblsh.Index, error) {
	if c.dataDir == "" {
		return loadEphemeral(c)
	}
	opts := dblsh.Options{
		Sync: c.sync, SyncEvery: c.syncEvery, CheckpointEvery: c.checkpointEvery,
		CompactFraction: c.compactFrac,
	}
	// A directory that already holds a checkpoint resumes from it; a fresh
	// one is seeded (from -index or the demo corpus) and then reopened
	// durably.
	if !dblsh.IsStore(c.dataDir) {
		seedIdx, err := loadEphemeral(c)
		if err != nil {
			return nil, err
		}
		log.Printf("seeding fresh data directory %s with %d vectors", c.dataDir, seedIdx.Len())
		if err := seedIdx.Save(c.dataDir); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	idx, err := dblsh.Open(c.dataDir, opts)
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", c.dataDir, err)
	}
	log.Printf("opened %s in %v", c.dataDir, time.Since(start).Round(time.Millisecond))
	return idx, nil
}

// loadEphemeral builds the in-memory index: from -index when given, from
// the demo corpus otherwise.
func loadEphemeral(c config) (*dblsh.Index, error) {
	if c.indexFile != "" {
		f, err := os.Open(c.indexFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		start := time.Now()
		idx, err := dblsh.Read(f)
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", c.indexFile, err)
		}
		// The structural parameters travel with the file; the compaction
		// policy is operational and applies to loaded indexes too.
		if err := idx.SetCompactFraction(c.compactFrac); err != nil {
			return nil, err
		}
		log.Printf("loaded %s in %v", c.indexFile, time.Since(start).Round(time.Millisecond))
		return idx, nil
	}
	log.Printf("no -index given; building a %d×%d demo corpus", c.demoN, c.demoDim)
	rng := rand.New(rand.NewSource(c.seed))
	flat := make([]float32, c.demoN*c.demoDim)
	// Clustered demo data: 100 Gaussian blobs.
	centers := make([][]float32, 100)
	for i := range centers {
		ctr := make([]float32, c.demoDim)
		for j := range ctr {
			ctr[j] = float32(rng.NormFloat64() * 10)
		}
		centers[i] = ctr
	}
	for i := 0; i < c.demoN; i++ {
		ctr := centers[rng.Intn(len(centers))]
		row := flat[i*c.demoDim : (i+1)*c.demoDim]
		for j := range row {
			row[j] = ctr[j] + float32(rng.NormFloat64())
		}
	}
	return dblsh.NewFromFlat(flat, c.demoN, c.demoDim, dblsh.Options{
		Seed: c.seed, CompactFraction: c.compactFrac, Metric: c.metric,
	})
}
