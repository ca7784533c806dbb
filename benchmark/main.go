// Command benchmark is dblsh's one seeded benchmark: four workloads, nine
// end-to-end metrics and, from a traced run, a table of per-layer metrics.
// BENCHMARK.json at the repository root names them; README.md in this
// directory says why each exists and which layer should move which number.
//
//	go run ./benchmark -workload overlap-128 -seed 1
//	go run ./benchmark -workload all -seed 1 -trace 1
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics; everything else goes to standard error. A
// run whose recall falls below the workload's floor exits non-zero without
// printing a result.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"dblsh/internal/vec"
	"dblsh/internal/vec/cpu"
)

// maxProcs caps the pinned GOMAXPROCS: the sizing in README.md was taken at
// 2 and holds to 4; beyond that the fan-out and batch paths change regime and
// runs stop being comparable with the recorded ones.
const maxProcs = 4

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := flag.Int64("seed", 1, "seed of the run's queries and write traffic")
	seconds := flag.Float64("seconds", 12, "length of the timed section in seconds; BENCHMARK.json's run_seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	flag.Parse()

	var todo []workload
	if *name == "all" {
		todo = workloads
	} else if w, ok := findWorkload(*name); ok {
		todo = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (want %s or all)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	procs := min(runtime.NumCPU(), maxProcs)
	runtime.GOMAXPROCS(procs)
	env := environment(procs)
	logEnv(os.Stderr, env)

	// SIGINT or SIGTERM ends the run at once, but not before the server
	// subprocess is stopped and the scratch directory removed.
	var current atomic.Pointer[run]
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		if r := current.Load(); r != nil {
			r.abort()
		}
		os.Exit(130)
	}()

	for _, w := range todo {
		r := &run{
			w: w, seed: *seed, procs: procs, root: root, log: os.Stderr,
			seconds: time.Duration(*seconds * float64(time.Second)),
			outDir:  filepath.Join(root, "benchmark", "out"),
		}
		if *trace == 1 {
			r.tr = newTracer()
		}
		current.Store(r)
		res, err := r.execute(env)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: encode result: %v\n", w.Name, err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// errBelowFloor marks a run whose answers are too wrong to time.
var errBelowFloor = errors.New("recall below the workload's floor")

// execute runs one workload in a scratch directory that is removed on every
// exit path, and turns its outcome into the result line.
func (r *run) execute(env map[string]string) (result, error) {
	if err := os.MkdirAll(r.outDir, 0o777); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(r.outDir, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	r.mu.Lock()
	r.workDir = dir
	r.mu.Unlock()
	r.clock = time.Now()

	var o *outcome
	switch r.w.Kind {
	case inProcess:
		o, err = r.runInProcess()
	case durable:
		o, err = r.runDurable()
	case overHTTP:
		o, err = r.runHTTP()
	}
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(r.log, "%s: attempted %d, failed %d\n", r.w.Name, o.gate.attempted, o.gate.failed)
	if o.gate.failed > 0 {
		fmt.Fprintf(r.log, "%s: first failure: %s\n", r.w.Name, o.gate.first)
	}
	if rec := o.e2e["recall_at_k"]; rec < r.w.RecallFloor {
		return result{}, fmt.Errorf("%w: recall_at_k %.4f < %.2f", errBelowFloor, rec, r.w.RecallFloor)
	}

	defs, values := endToEnd, o.e2e
	if r.tr != nil {
		defs, values = perLayer, o.layers
		path, err := r.tr.write(r.outDir, r.w.Name, r.seed, env, values)
		if err != nil {
			return result{}, err
		}
		fmt.Fprintf(r.log, "%s: trace written to %s\n", r.w.Name, path)
		logLayerTable(r.log, values)
	}
	res := result{
		Correct: o.gate.failed == 0, Attempted: o.gate.attempted, Failed: o.gate.failed,
		Metrics: make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v := values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return res, nil
}

// moduleRoot walks up from the working directory to the go.mod of module
// dblsh: the server is built from it and out/ sits beside this file.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if body, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(body), "module dblsh\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside module dblsh: no go.mod found above the working directory")
		}
		dir = parent
	}
}

// environment describes the box and the build, so that two result lines are
// only ever compared when these agree.
func environment(procs int) map[string]string {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]string{
		"go":            runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"gomaxprocs":    strconv.Itoa(procs),
		"nproc":         strconv.Itoa(runtime.NumCPU()),
		"kernel":        vec.KernelName(),
		"kernel_source": vec.KernelSource(),
		"cpu_features":  strings.Join(cpu.Detect().List(), ","),
		"commit":        commit,
	}
}

func logEnv(w io.Writer, env map[string]string) {
	for _, k := range slices.Sorted(maps.Keys(env)) {
		fmt.Fprintf(w, "env %-14s %s\n", k, env[k])
	}
}

// logLayerTable prints the per-layer metrics in BENCHMARK.json's order.
func logLayerTable(w io.Writer, values map[string]float64) {
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-30s %14.4f %s\n", d.Name, values[d.Name], d.Unit)
	}
}
