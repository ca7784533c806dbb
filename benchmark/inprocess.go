package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dblsh"
	"dblsh/internal/vec"
)

// runInProcess drives the overlap workloads: dblsh.NewFromFlat with default
// options, in-memory adds, one goroutine that searches pass after pass, then
// a WriteTo/Read round trip as this front door's reopen.
func (r *run) runInProcess() (*outcome, error) {
	w := r.w
	c := newCorpus(w.Mix, w.N, w.Queries, w.Adds, r.seed)
	data := vec.WrapMatrix(c.Data, c.N, c.Dim)
	truth := groundTruth(data, nil, c.Queries, w.K, r.procs)
	r.phase("corpus and ground truth")

	adds := &adder{c: c}
	g := ackGate(c, adds)
	adds.g = g
	var idx *dblsh.Index
	add := func(i int) (int, error) { return idx.Add(c.Adds[i]) }
	var before float64
	setups, err := secondsOf(r.repeats(), func(i int) (time.Duration, error) {
		idx = nil
		before = heapMB()
		start := time.Now()
		var err error
		idx, err = dblsh.NewFromFlat(c.Data, c.N, c.Dim, r.options())
		d := time.Since(start)
		if err == nil && i < r.repeats()-1 {
			adds.rehearse(add)
		}
		return d, err
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	e2e := map[string]float64{"setup_s": median(setups), "mem_mb": heapMB() - before}
	r.phase("set-ups and their adds")

	// One untimed pass over every query warms the searcher and the caches and
	// is the quality sample: recall and ratio repeat exactly for a seed.
	s := idx.NewSearcher()
	answers := make([][]dblsh.Result, len(c.Queries))
	for i, q := range c.Queries {
		res, err := s.SearchOpts(q, w.K)
		g.search(q, w.K, res, err, 0)
		answers[i] = res
	}
	e2e["recall_at_k"], e2e["overall_ratio"] = quality(answers, truth)
	r.phase("warm-up and quality pass")

	var layers map[string]float64
	if r.tr != nil {
		// The layer table is taken before the adds below change the index.
		layers, err = r.traceLayers(c, truth, idx, nil)
		if err != nil {
			return nil, err
		}
		r.phase("layer passes")
	}

	adds.run(add, func(q []float32, k int) ([]dblsh.Result, error) { return s.SearchOpts(q, k) })
	e2e["add_p50_us"] = adds.p50()
	r.phase("adds")
	passes := searchPasses(time.Now(), w.Timed, minPasses(w.Timed), after(r.seconds), r.tr, "dblsh.search",
		func(qi int, sm *sample) { sm.res, sm.err = s.SearchOpts(c.Queries[qi], w.K) })
	r.phase("timed part")
	for _, p := range passes {
		for qi, sm := range p {
			g.search(c.Queries[qi], w.K, sm.res, sm.err, sm.startNs)
		}
	}
	searchMetrics(r.log, e2e, passes)
	if r.tr != nil {
		layers["trace.overhead_frac"] = traceOverhead(passes)
	}

	reopens, err := r.reopenFromFile(idx, g)
	if err != nil {
		return nil, err
	}
	e2e["reopen_s"] = quiet(reopens)
	r.phase("checks and reopen")
	return &outcome{gate: g, e2e: e2e, layers: layers}, nil
}

// writeIndex serializes idx into the run's scratch directory.
func (r *run) writeIndex(idx *dblsh.Index) (string, error) {
	path := filepath.Join(r.workDir, "index.dblsh")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if _, err := idx.WriteTo(bw); err != nil {
		f.Close()
		return "", fmt.Errorf("write index: %w", err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("write index: %w", err)
	}
	return path, f.Close()
}

// reopenFromFile is the in-process front door's reopen: the index is written
// with WriteTo and dblsh.Read brings it back, timed from opening the file to
// a ready index, three times over. Each load must hold every vector.
func (r *run) reopenFromFile(idx *dblsh.Index, g *gate) ([]float64, error) {
	path, err := r.writeIndex(idx)
	if err != nil {
		return nil, err
	}
	want := idx.Len()
	return secondsOf(r.repeats(), func(int) (time.Duration, error) {
		start := time.Now()
		f, err := os.Open(path)
		if err != nil {
			return 0, err
		}
		defer f.Close()
		loaded, err := dblsh.Read(bufio.NewReaderSize(f, 1<<20))
		d := time.Since(start)
		if err == nil && loaded.Len() != want {
			err = fmt.Errorf("reloaded index holds %d vectors, want %d", loaded.Len(), want)
		}
		g.op("reopen", err)
		return d, nil
	})
}
