package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dblsh"
	"dblsh/internal/vec"
)

const (
	serverReadyTimeout = 60 * time.Second
	// serverStopGrace is how long a server gets to exit after SIGTERM before
	// it is killed.
	serverStopGrace = 10 * time.Second
)

// server is a dblsh-server subprocess on a loopback port.
type server struct {
	cmd     *exec.Cmd
	base    string        // http://127.0.0.1:port
	done    chan struct{} // closed once the process has been reaped
	exitErr error         // cmd.Wait's result, valid after done is closed
}

// buildServer compiles cmd/dblsh-server into the run's scratch directory.
// The build is excluded from setup_s: a user starts a binary, not a compiler.
func (r *run) buildServer() (string, error) {
	bin := filepath.Join(r.workDir, "dblsh-server")
	cmd := exec.Command("go", "build", "-o", bin, "dblsh/cmd/dblsh-server")
	cmd.Dir = r.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build dblsh-server: %v\n%s", err, out)
	}
	return bin, nil
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before the server binds it, so another process could take the port
// in between; the server then fails to start and the run fails loudly.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches the server on indexFile and returns once /stats
// answers 200, with the time from process start to that answer.
func (r *run) startServer(bin, indexFile string) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-addr", addr, "-index", indexFile)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(r.procs))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start server: %w", err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		s.exitErr = cmd.Wait()
		close(s.done)
	}()

	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(s.base + "/stats")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained only so the connection can be reused
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case <-s.done:
			return nil, 0, fmt.Errorf("server exited before it was ready: %v\n%s", s.exitErr, stderr.String())
		default:
		}
		if time.Since(start) > serverReadyTimeout {
			s.stop()
			return nil, 0, fmt.Errorf("server not ready after %v\n%s", serverReadyTimeout, stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop ends the server: SIGTERM, a bounded wait, then SIGKILL. It returns
// once the process has been reaped. A nil server is already stopped, and
// stopping twice is harmless.
func (s *server) stop() {
	if s == nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only when the process has already exited
	select {
	case <-s.done:
	case <-time.After(serverStopGrace):
		_ = s.cmd.Process.Kill() // as above
		<-s.done
	}
}

// rssMB reads the server's resident set size from /proc.
func (s *server) rssMB() (float64, error) {
	body, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb * 1024 / 1e6, err
		}
	}
	return 0, errors.New("no VmRSS line in /proc status")
}

// searchReply is the part of the /search response the benchmark reads.
type searchReply struct {
	Results []struct {
		ID   int     `json:"id"`
		Dist float64 `json:"dist"`
	} `json:"results"`
}

// wire is one keep-alive connection to the server and the bodies of the
// run's requests, encoded before any clock starts.
type wire struct {
	client *http.Client
	base   string
}

func newWire(base string) *wire {
	return &wire{base: base, client: &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1},
	}}
}

// post sends body and returns the response's bytes; any status but 200 —
// a shed 429 included — is an error.
func (w *wire) post(path string, body []byte) ([]byte, error) {
	resp, err := w.client.Post(w.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

func searchBody(q []float32, k int) []byte {
	body, err := json.Marshal(map[string]any{"vector": q, "k": k})
	if err != nil {
		panic(err) // float32 slices and ints always encode
	}
	return body
}

func decodeResults(raw []byte) ([]dblsh.Result, error) {
	var reply searchReply
	if err := json.Unmarshal(raw, &reply); err != nil {
		return nil, fmt.Errorf("decode /search reply: %w", err)
	}
	res := make([]dblsh.Result, len(reply.Results))
	for i, h := range reply.Results {
		res[i] = dblsh.Result{ID: h.ID, Dist: h.Dist}
	}
	return res, nil
}

// runHTTP drives clustered-http: the index is written to a file, dblsh-server
// loads it in a subprocess, and one keep-alive client POSTs /search pass
// after pass in a closed loop. Adds are POST /vectors; a reopen is a restart,
// SIGTERM to ready.
func (r *run) runHTTP() (*outcome, error) {
	w := r.w
	c := newCorpus(w.Mix, w.N, w.Queries, w.Adds, r.seed)
	data := vec.WrapMatrix(c.Data, c.N, c.Dim)
	truth := groundTruth(data, nil, c.Queries, w.K, r.procs)
	r.phase("corpus and ground truth")

	bin, err := r.buildServer()
	if err != nil {
		return nil, err
	}
	r.phase("go build dblsh-server")
	mem, err := dblsh.NewFromFlat(c.Data, c.N, c.Dim, r.options())
	if err != nil {
		return nil, err
	}
	indexFile, err := r.writeIndex(mem)
	if err != nil {
		return nil, err
	}
	mem = nil
	r.phase("index file")

	bodies := make([][]byte, len(c.Queries))
	for i, q := range c.Queries {
		bodies[i] = searchBody(q, w.K)
	}
	addBodies := make([][]byte, len(c.Adds))
	for i, v := range c.Adds {
		if addBodies[i], err = json.Marshal(map[string]any{"vector": v}); err != nil {
			return nil, err
		}
	}
	adds := &adder{c: c}
	g := ackGate(c, adds)
	adds.g = g

	var srv *server
	var conn *wire // one keep-alive connection to the server in use
	defer func() { srv.stop() }()
	restart := func() (time.Duration, error) {
		srv.stop()
		next, ready, err := r.startServer(bin, indexFile)
		srv = next
		r.mu.Lock()
		r.srv = next
		r.mu.Unlock()
		if err == nil {
			conn = newWire(srv.base)
		}
		return ready, err
	}
	add := func(i int) (int, error) {
		raw, err := conn.post("/vectors", addBodies[i])
		if err != nil {
			return 0, err
		}
		var reply struct {
			ID int `json:"id"`
		}
		err = json.Unmarshal(raw, &reply)
		return reply.ID, err
	}
	setups, err := secondsOf(r.repeats(), func(i int) (time.Duration, error) {
		ready, err := restart()
		if err == nil && i < r.repeats()-1 {
			adds.rehearse(add)
		}
		return ready, err
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	e2e := map[string]float64{"setup_s": median(setups)}
	r.phase("set-ups and their adds")

	// check decodes and verifies one reply outside any timed window.
	check := func(qi int, raw []byte, err error) []dblsh.Result {
		var res []dblsh.Result
		if err == nil {
			res, err = decodeResults(raw)
		}
		g.search(c.Queries[qi], w.K, res, err, 0)
		return res
	}

	// Warm-up and quality pass: every query once.
	answers := make([][]dblsh.Result, len(c.Queries))
	for i := range c.Queries {
		raw, err := conn.post("/search", bodies[i])
		answers[i] = check(i, raw, err)
	}
	e2e["recall_at_k"], e2e["overall_ratio"] = quality(answers, truth)
	if e2e["mem_mb"], err = srv.rssMB(); err != nil {
		return nil, err
	}
	r.phase("warm-up and quality pass")

	var layers map[string]float64
	if r.tr != nil {
		// The layer table is taken before the adds below change the index.
		f, err := os.Open(indexFile)
		if err != nil {
			return nil, err
		}
		loaded, err := dblsh.Read(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		layers, err = r.traceLayers(c, truth, loaded, &httpProbe{wire: conn, bodies: bodies})
		if err != nil {
			return nil, err
		}
		r.phase("layer passes")
	}

	adds.run(add, func(q []float32, k int) ([]dblsh.Result, error) {
		raw, err := conn.post("/search", searchBody(q, k))
		if err != nil {
			return nil, err
		}
		return decodeResults(raw)
	})
	e2e["add_p50_us"] = adds.p50()
	r.phase("adds")

	// Timed part: one closed loop on one connection. The box has two cores
	// and the server works on one while the client waits; a second client
	// measured the scheduler (README.md). Replies are kept as bytes and
	// decoded afterwards, so the client's JSON work is outside every clock.
	passes := searchPasses(time.Now(), w.Timed, minPasses(w.Timed), after(r.seconds), r.tr, "server.roundtrip",
		func(qi int, sm *sample) { sm.raw, sm.err = conn.post("/search", bodies[qi]) })
	r.phase("timed part")
	for _, p := range passes {
		for qi, sm := range p {
			check(qi, sm.raw, sm.err)
		}
	}
	searchMetrics(r.log, e2e, passes)
	if r.tr != nil {
		layers["trace.overhead_frac"] = traceOverhead(passes)
		if err := r.scrapeServerCounters(srv, layers, g); err != nil {
			return nil, err
		}
	}

	// A reopen of this front door is a restart: the time a client is without
	// service, from SIGTERM to the next 200.
	reopens, err := secondsOf(r.repeats(), func(int) (time.Duration, error) {
		start := time.Now()
		_, err := restart()
		g.op("restart", err)
		return time.Since(start), err
	})
	if err != nil {
		return nil, err
	}
	e2e["reopen_s"] = quiet(reopens)
	r.phase("checks and restarts")
	return &outcome{gate: g, e2e: e2e, layers: layers}, nil
}
