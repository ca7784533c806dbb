// Command dblsh-loadgen drives a running dblsh-server with a closed-loop
// read/write workload and prints a JSON summary of what it measured.
//
// Each of -concurrency workers loops for -duration: it draws a random
// vector, flips a -write-fraction coin, and either POSTs /search (with -k)
// or POSTs /vectors. With -qps > 0 a shared pacer bounds the aggregate
// request rate; with -qps 0 the loop is closed — each worker fires its
// next request as soon as the previous one returns, which is the usual way
// to find the server's saturation throughput.
//
// The summary distinguishes successes, sheds (429, the admission
// controller refusing work) and errors (everything else, including
// transport failures), and reports achieved QPS plus mean/p50/p95/p99/max
// latency over successful requests only — shed responses return in
// microseconds and would flatter the percentiles.
//
// The vector dimension — and, when the server reports them, the active
// distance kernel, its selection source, and the server's CPU features —
// are discovered from GET /stats, retried for a few seconds so the tool
// can be started alongside a server that is still replaying its WAL:
//
//	dblsh-loadgen -addr http://localhost:8080 -duration 10s \
//	    -concurrency 8 -write-fraction 0.1 -k 10
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"
)

type config struct {
	addr          string
	qps           float64
	concurrency   int
	duration      time.Duration
	writeFraction float64
	k             int
	seed          int64
	timeout       time.Duration
}

// summary is the JSON report printed on stdout.
type summary struct {
	DurationSeconds float64 `json:"duration_seconds"`
	Concurrency     int     `json:"concurrency"`
	Requests        int     `json:"requests"`
	Successes       int     `json:"successes"`
	Shed            int     `json:"shed"`
	Errors          int     `json:"errors"`
	Reads           int     `json:"reads"`
	Writes          int     `json:"writes"`
	QPS             float64 `json:"qps"`
	LatencyMeanMs   float64 `json:"latency_mean_ms"`
	LatencyP50Ms    float64 `json:"latency_p50_ms"`
	LatencyP95Ms    float64 `json:"latency_p95_ms"`
	LatencyP99Ms    float64 `json:"latency_p99_ms"`
	LatencyMaxMs    float64 `json:"latency_max_ms"`
	// What /stats said the server was running: the active distance kernel,
	// how it was selected (auto/env/forced), and the CPU features the
	// server detected. Empty against servers predating the fields.
	ServerKernel       string   `json:"server_kernel,omitempty"`
	ServerKernelSource string   `json:"server_kernel_source,omitempty"`
	ServerCPUFeatures  []string `json:"server_cpu_features,omitempty"`
}

func main() {
	cfg := config{}
	flag.StringVar(&cfg.addr, "addr", "http://localhost:8080", "base URL of the dblsh-server to drive")
	flag.Float64Var(&cfg.qps, "qps", 0, "aggregate request rate cap; 0 runs closed-loop at full speed")
	flag.IntVar(&cfg.concurrency, "concurrency", 4, "concurrent workers")
	flag.DurationVar(&cfg.duration, "duration", 10*time.Second, "how long to drive load")
	flag.Float64Var(&cfg.writeFraction, "write-fraction", 0.1, "fraction of requests that are adds (0..1); the rest are searches")
	flag.IntVar(&cfg.k, "k", 10, "neighbors requested per search")
	flag.Int64Var(&cfg.seed, "seed", 1, "PRNG seed for the workload")
	flag.DurationVar(&cfg.timeout, "timeout", 5*time.Second, "per-request client timeout")
	flag.Parse()

	sum, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dblsh-loadgen:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sum); err != nil {
		fmt.Fprintln(os.Stderr, "dblsh-loadgen:", err)
		os.Exit(1)
	}
}

// serverStats is the slice of GET /stats the load generator cares about:
// the index dimension (required — it shapes the workload) plus the
// kernel/CPU fields newer servers report, echoed into the summary.
type serverStats struct {
	Dim          int      `json:"dim"`
	Kernel       string   `json:"kernel"`
	KernelSource string   `json:"kernel_source"`
	CPUFeatures  []string `json:"cpu_features"`
}

// fetchStats asks GET /stats for the index dimension and kernel info,
// retrying while the server comes up (WAL replay can take a while on a
// large store). Only a missing or non-positive dim is an error; the kernel
// fields are optional so older servers still work.
func fetchStats(client *http.Client, addr string, patience time.Duration) (serverStats, error) {
	deadline := time.Now().Add(patience)
	var lastErr error
	for {
		st, err := func() (serverStats, error) {
			resp, err := client.Get(addr + "/stats")
			if err != nil {
				return serverStats{}, err
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				io.Copy(io.Discard, resp.Body)
				return serverStats{}, fmt.Errorf("/stats returned %s", resp.Status)
			}
			var stats serverStats
			if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
				return serverStats{}, err
			}
			if stats.Dim <= 0 {
				return serverStats{}, fmt.Errorf("/stats reported dim %d", stats.Dim)
			}
			return stats, nil
		}()
		if err == nil {
			return st, nil
		}
		lastErr = err
		if time.Now().After(deadline) {
			return serverStats{}, fmt.Errorf("server at %s not ready: %w", addr, lastErr)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// workerResult is one worker's tally, merged after the run.
type workerResult struct {
	successes, shed, errors int
	reads, writes           int
	latencies               []time.Duration
}

func run(cfg config) (summary, error) {
	if cfg.concurrency <= 0 {
		return summary{}, fmt.Errorf("concurrency must be positive")
	}
	if cfg.writeFraction < 0 || cfg.writeFraction > 1 {
		return summary{}, fmt.Errorf("write-fraction must be in [0,1]")
	}
	client := &http.Client{Timeout: cfg.timeout}
	stats, err := fetchStats(client, cfg.addr, 10*time.Second)
	if err != nil {
		return summary{}, err
	}
	dim := stats.Dim

	// The pacer hands out at most qps tokens per second, shared across
	// workers. A nil channel (qps 0) never blocks reception via the
	// select-default below... it cannot: nil receives block forever, so
	// instead workers skip the pacer entirely when it is nil.
	var pace <-chan time.Time
	var pacer *time.Ticker
	if cfg.qps > 0 {
		pacer = time.NewTicker(time.Duration(float64(time.Second) / cfg.qps))
		defer pacer.Stop()
		pace = pacer.C
	}

	stop := time.Now().Add(cfg.duration)
	results := make([]workerResult, cfg.concurrency)
	var wg sync.WaitGroup
	for w := 0; w < cfg.concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + int64(w)*7919))
			res := &results[w]
			vec := make([]float32, dim)
			for time.Now().Before(stop) {
				if pace != nil {
					select {
					case <-pace:
					case <-time.After(time.Until(stop)):
						return
					}
				}
				for i := range vec {
					vec[i] = rng.Float32()
				}
				isWrite := rng.Float64() < cfg.writeFraction
				var url string
				var body interface{}
				if isWrite {
					url = cfg.addr + "/vectors"
					body = map[string]interface{}{"vector": vec}
					res.writes++
				} else {
					url = cfg.addr + "/search"
					body = map[string]interface{}{"vector": vec, "k": cfg.k}
					res.reads++
				}
				payload, err := json.Marshal(body)
				if err != nil {
					res.errors++
					continue
				}
				start := time.Now()
				resp, err := client.Post(url, "application/json", bytes.NewReader(payload))
				elapsed := time.Since(start)
				if err != nil {
					res.errors++
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch {
				case resp.StatusCode == http.StatusOK:
					res.successes++
					res.latencies = append(res.latencies, elapsed)
				case resp.StatusCode == http.StatusTooManyRequests:
					res.shed++
				default:
					res.errors++
				}
			}
		}(w)
	}
	started := time.Now()
	wg.Wait()
	elapsed := time.Since(started)
	if elapsed < cfg.duration {
		elapsed = cfg.duration
	}

	var all []time.Duration
	sum := summary{
		Concurrency:        cfg.concurrency,
		DurationSeconds:    elapsed.Seconds(),
		ServerKernel:       stats.Kernel,
		ServerKernelSource: stats.KernelSource,
		ServerCPUFeatures:  stats.CPUFeatures,
	}
	for i := range results {
		r := &results[i]
		sum.Successes += r.successes
		sum.Shed += r.shed
		sum.Errors += r.errors
		sum.Reads += r.reads
		sum.Writes += r.writes
		all = append(all, r.latencies...)
	}
	sum.Requests = sum.Successes + sum.Shed + sum.Errors
	sum.QPS = float64(sum.Successes) / elapsed.Seconds()
	sum.LatencyMeanMs = ms(mean(all))
	sum.LatencyP50Ms = ms(percentile(all, 50))
	sum.LatencyP95Ms = ms(percentile(all, 95))
	sum.LatencyP99Ms = ms(percentile(all, 99))
	sum.LatencyMaxMs = ms(percentile(all, 100))
	return sum, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var total time.Duration
	for _, d := range ds {
		total += d
	}
	return total / time.Duration(len(ds))
}

// percentile returns the p-th percentile (nearest-rank) of ds, sorting a
// copy; p=100 is the maximum. Zero for an empty slice.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(ds))
	copy(sorted, ds)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
