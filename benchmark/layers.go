package main

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"dblsh"
	"dblsh/internal/baseline/scan"
	"dblsh/internal/core"
	"dblsh/internal/lsh"
	"dblsh/internal/rstar"
	"dblsh/internal/shard"
	"dblsh/internal/vec"
	"dblsh/internal/wal"
)

const (
	// layerQueries is how many of the run's queries the layer table is taken
	// over, and layerPasses how often: a layer's time is the median over
	// passes of its mean over queries. Means, because only means subtract.
	layerQueries = 200
	layerPasses  = 3
	// layerInserts is how many held-out vectors time Set.Add and Tree.Insert.
	layerInserts = 200
	// scanEvery thins the exact-scan oracle, which costs more than all other
	// layers of a query together.
	scanEvery = 4
	// verifyBlock is core's verification block: candidates reach the distance
	// kernels 64 ids at a time.
	verifyBlock = 64
)

// httpProbe lets traceLayers send the sampled queries through the server, one
// at a time on one connection, so server.roundtrip and server.handler cover
// the same queries as the layers below them.
type httpProbe struct {
	wire   *wire
	bodies [][]byte
}

// timedLayer indexes the calls a layer pass times.
type timedLayer int

const (
	roundtrip timedLayer = iota // POST /search through the server
	dblshSearch
	shardSearch    // default parallelism
	shardSearchSeq // parallelism 1
	coreKANN
	project
	traverse
	verifyQuant
	verifyExact
	timedLayers
)

// layerPass holds one pass's sums over the sampled queries.
type layerPass struct {
	time             [timedLayers]time.Duration
	nodes, ids, rows int
}

// layerState is the index rebuilt at every boundary below the public one,
// from the same rows, parameters and seed, so that one query can be driven
// through each in turn.
type layerState struct {
	cfg     core.Config
	data    *vec.Matrix
	set     *shard.Set
	mono    *core.Index // all rows in one core index, whatever the shard count
	fam     *lsh.Family
	proj    []*vec.Matrix
	trees   []*rstar.Tree
	cursors []*rstar.Cursor
	quant   *vec.QuantMatrix
	seen    []uint32 // visited stamps of the candidate gather
	epoch   uint32

	projectBuild, treeBuild time.Duration
}

func newLayerState(c *corpus, p dblsh.Params, shards int) *layerState {
	ls := &layerState{
		cfg:  core.Config{C: p.C, W0: p.W0, K: p.K, L: p.L, T: p.T, Seed: indexSeed, Quantize: p.Quantize},
		data: vec.WrapMatrix(c.Data, c.N, c.Dim),
		seen: make([]uint32, c.N),
	}
	ls.set = shard.Build(c.Data, c.N, c.Dim, shards, 0, ls.cfg)
	ls.mono = core.Build(ls.data, ls.cfg)
	ls.fam = lsh.NewFamily(p.L, p.K, c.Dim, indexSeed)
	for i := 0; i < p.L; i++ {
		start := time.Now()
		ls.proj = append(ls.proj, ls.fam.Compound(i).Project(ls.data))
		ls.projectBuild += time.Since(start)
		start = time.Now()
		ls.trees = append(ls.trees, rstar.BulkLoad(ls.proj[i], rstar.Options{Quantize: true}))
		ls.treeBuild += time.Since(start)
		ls.cursors = append(ls.cursors, rstar.NewCursor(ls.trees[i]))
	}
	ls.quant = vec.NewQuantMatrix(ls.data)
	return ls
}

// traverse replays a query's frontier traversal from outside: the L cursors
// are seeded at the query's own centres and advanced through the query's own
// round schedule (r0·c^j, half-width w0·r/2, trees in order), stopping once
// they have visited as many nodes as the query itself did — the real query
// ends its last round at the candidate that exhausts the budget. When gather
// is non-nil the distinct ids emitted are appended to it, up to its capacity.
func (ls *layerState) traverse(qhash [][]float32, rounds, nodeCap int, gather *[]int) (nodes, ids int) {
	for i, cur := range ls.cursors {
		cur.Reset(qhash[i])
	}
	if gather != nil {
		ls.epoch++
	}
	var buf [verifyBlock]int32
	r := ls.mono.InitialRadius()
	for j := 0; j < rounds; j++ {
		half := ls.cfg.W0 * r / 2
		for _, cur := range ls.cursors {
			before := cur.NodesVisited()
			cur.BeginRound(half)
			for {
				if nodes+cur.NodesVisited()-before >= nodeCap {
					cur.Abandon()
					return nodes + cur.NodesVisited() - before, ids
				}
				m := cur.NextBatch(buf[:])
				if m == 0 {
					break
				}
				ids += m
				if gather != nil {
					for _, id := range buf[:m] {
						if ls.seen[id] != ls.epoch && len(*gather) < cap(*gather) {
							ls.seen[id] = ls.epoch
							*gather = append(*gather, int(id))
						}
					}
				}
			}
			cur.EndRound()
			nodes += cur.NodesVisited() - before
		}
		r *= ls.cfg.C
	}
	return nodes, ids
}

// timeExact times the exact bounded kernel over cands in verification blocks.
func timeExact(q []float32, ls *layerState, cands []int, bound float64, dists []float64) time.Duration {
	start := time.Now()
	for lo := 0; lo < len(cands); lo += verifyBlock {
		blk := cands[lo:min(lo+verifyBlock, len(cands))]
		vec.SquaredDistsToBounded(q, ls.data, blk, bound, dists[:len(blk)])
	}
	return time.Since(start)
}

// traceLayers takes the layer table: the first layerQueries queries are each
// driven through server (when probe is set), dblsh, shard, core, lsh, rstar
// and vec in turn, every call recorded as a span of one operation, and the
// per-layer metrics are derived from the pass means.
func (r *run) traceLayers(c *corpus, truth [][]vec.Neighbor, idx *dblsh.Index, probe *httpProbe) (map[string]float64, error) {
	w := r.w
	nq := min(layerQueries, len(c.Queries))
	ls := newLayerState(c, idx.Params(), w.Shards)
	L := ls.cfg.L
	budget := 2*ls.cfg.T*L + w.K

	var before serverCounters
	if probe != nil {
		var err error
		if before, err = scrape(probe.wire); err != nil {
			return nil, err
		}
	}

	ds, ss, cs := idx.NewSearcher(), ls.set.NewSearcher(), ls.mono.NewSearcher()
	oracle := scan.Build(ls.data)
	qhash := make([][]float32, L)
	candBuf := make([]int, 0, budget)
	dists := make([]float64, verifyBlock)
	var units []float64
	var passes [layerPasses]layerPass
	var dblshUs, scanUs []float64
	var replyBytes int
	// Counters come from the first pass: they repeat exactly.
	var rounds, candidates, budgetHits, swept, pruned, nodesVisited, frontier, parallelRounds int
	var finalRadius float64
	var straggler time.Duration

	for p := range passes {
		tr := r.tr
		if p > 0 {
			tr = nil // one pass of spans is enough to read; three would triple the file
		}
		pass := &passes[p]
		for qi, q := range c.Queries[:nq] {
			op, parent := tr.op(), 0
			if probe != nil {
				start := time.Now()
				raw, err := probe.wire.post("/search", probe.bodies[qi])
				d := time.Since(start)
				if err != nil {
					return nil, err
				}
				parent = tr.record(op, 0, "server.roundtrip", start, d)
				pass.time[roundtrip] += d
				replyBytes += len(raw)
			}

			start := time.Now()
			_, err := ds.SearchOpts(q, w.K)
			d := time.Since(start)
			if err != nil {
				return nil, err
			}
			parent = tr.record(op, parent, "dblsh.search", start, d)
			pass.time[dblshSearch] += d
			dblshUs = append(dblshUs, micro(d))

			start = time.Now()
			_, err = ss.Search(q, w.K, core.QueryParams{})
			d = time.Since(start)
			if err != nil {
				return nil, err
			}
			parent = tr.record(op, parent, "shard.search", start, d)
			pass.time[shardSearch] += d
			fanout := ss.LastStats()
			if w.Shards > 1 {
				start = time.Now()
				_, err = ss.Search(q, w.K, core.QueryParams{Parallelism: 1})
				pass.time[shardSearchSeq] += time.Since(start)
				if err != nil {
					return nil, err
				}
			} else {
				pass.time[shardSearchSeq] += d
			}

			start = time.Now()
			_, err = cs.KANNParams(q, w.K, core.QueryParams{})
			d = time.Since(start)
			if err != nil {
				return nil, err
			}
			parent = tr.record(op, parent, "core.kann", start, d)
			pass.time[coreKANN] += d
			st := cs.LastStats()

			start = time.Now()
			for i := range qhash {
				qhash[i] = ls.fam.Compound(i).Hash(qhash[i][:0], q)
			}
			d = time.Since(start)
			tr.record(op, parent, "lsh.project", start, d)
			pass.time[project] += d

			start = time.Now()
			nodes, ids := ls.traverse(qhash, st.Rounds, st.NodesVisited, nil)
			d = time.Since(start)
			tr.record(op, parent, "rstar.traverse", start, d)
			pass.time[traverse] += d
			pass.nodes += nodes
			pass.ids += ids

			// The rows the query verified: the first Candidates distinct ids
			// of the same traversal, gathered outside any timed window.
			cands := candBuf[:0:min(st.Candidates, budget)]
			ls.traverse(qhash, st.Rounds, st.NodesVisited, &cands)
			bound := math.Inf(1)
			if len(truth[qi]) >= w.K {
				bound = truth[qi][w.K-1].Dist * truth[qi][w.K-1].Dist
			}
			// Both kernels over the same rows, the true k-th distance as
			// bound. Whichever runs first finds the rows cold, so they take
			// turns from query to query.
			quantFirst := qi%2 == 0
			if !quantFirst {
				pass.time[verifyExact] += timeExact(q, ls, cands, bound, dists)
			}
			start = time.Now()
			units = ls.quant.QuantizeQueryUnits(q, units)
			for lo := 0; lo < len(cands); lo += verifyBlock {
				blk := cands[lo:min(lo+verifyBlock, len(cands))]
				vec.SquaredDistsToBoundedQuant(q, units, ls.data, ls.quant, blk, bound, dists[:len(blk)])
			}
			d = time.Since(start)
			tr.record(op, parent, "vec.verify", start, d)
			pass.time[verifyQuant] += d
			if quantFirst {
				pass.time[verifyExact] += timeExact(q, ls, cands, bound, dists)
			}
			pass.rows += len(cands)

			if p > 0 {
				continue
			}
			rounds += st.Rounds
			candidates += st.Candidates
			if st.Candidates >= budget {
				budgetHits++
			}
			finalRadius += st.FinalR
			swept += st.QuantSwept
			pruned += st.QuantPruned
			nodesVisited += st.NodesVisited
			frontier += st.Frontier
			parallelRounds += fanout.ParallelRounds
			straggler += time.Duration(fanout.StragglerNanos)
			if qi%scanEvery == 0 {
				start = time.Now()
				oracle.KANN(q, w.K)
				d = time.Since(start)
				tr.record(tr.op(), 0, "scan.query", start, d)
				scanUs = append(scanUs, micro(d))
			}
		}
	}

	n := float64(nq)
	// us is the median over passes of a layer's mean microseconds per query;
	// nsPer is the median over passes of its nanoseconds per node or row.
	us := func(l timedLayer) float64 {
		var per []float64
		for _, p := range passes {
			per = append(per, micro(p.time[l])/n)
		}
		return median(per)
	}
	nsPer := func(l timedLayer, count func(layerPass) int) float64 {
		var per []float64
		for _, p := range passes {
			if count(p) > 0 {
				per = append(per, float64(p.time[l].Nanoseconds())/float64(count(p)))
			}
		}
		if len(per) == 0 {
			return 0
		}
		return median(per)
	}

	m := make(map[string]float64, len(perLayer))
	m["dblsh.search_us"] = us(dblshSearch)
	sort.Float64s(dblshUs)
	m["dblsh.search_p99_us"] = percentile(dblshUs, 0.99)
	m["shard.search_us"] = us(shardSearch)
	shardSeq := us(shardSearchSeq)
	m["core.kann_us"] = us(coreKANN)
	m["dblsh.api_self_us"] = m["dblsh.search_us"] - m["shard.search_us"]
	m["shard.coord_self_us"] = shardSeq - m["core.kann_us"]
	m["shard.fanout_delta_us"] = m["shard.search_us"] - shardSeq
	m["shard.parallel_rounds"] = float64(parallelRounds) / n
	m["shard.straggler_us"] = micro(straggler) / n

	m["core.rounds"] = float64(rounds) / n
	m["core.candidates"] = float64(candidates) / n
	m["core.budget_hit_frac"] = float64(budgetHits) / n
	m["core.final_radius"] = finalRadius / n
	m["core.quant_swept"] = float64(swept) / n
	if swept > 0 {
		m["core.quant_pruned_frac"] = float64(pruned) / float64(swept)
	}

	root := m["dblsh.search_us"]
	if probe != nil {
		root = us(roundtrip)
	}

	m["rstar.nodes_visited"] = float64(nodesVisited) / n
	m["rstar.frontier_left"] = float64(frontier) / n
	m["rstar.ns_per_node"] = nsPer(traverse, func(p layerPass) int { return p.nodes })
	m["rstar.traverse_us"] = m["rstar.ns_per_node"] * m["rstar.nodes_visited"] / 1e3
	m["rstar.traverse_frac"] = m["rstar.traverse_us"] / root
	m["rstar.ids_per_node"] = float64(passes[0].ids) / float64(max(passes[0].nodes, 1))
	m["rstar.build_s"] = ls.treeBuild.Seconds()
	m["rstar.tree_height"] = float64(ls.trees[0].Height())

	m["lsh.project_us"] = us(project)
	m["lsh.project_build_s"] = ls.projectBuild.Seconds()

	rows := func(p layerPass) int { return p.rows }
	m["vec.ns_per_cand_quant"] = nsPer(verifyQuant, rows)
	m["vec.ns_per_cand_exact"] = nsPer(verifyExact, rows)
	// A query sweeps QuantSwept of its candidates through the int8
	// pre-filter (survivors re-ranked exactly) and sends the rest straight
	// to the exact kernel. A block swept but cut short by the stop condition
	// counts as swept in full, so the sweep can exceed the candidates.
	sweptShare := 0.0
	if candidates > 0 {
		sweptShare = min(float64(swept)/float64(candidates), 1)
	}
	m["vec.verify_us"] = m["core.candidates"] * (sweptShare*m["vec.ns_per_cand_quant"] + (1-sweptShare)*m["vec.ns_per_cand_exact"]) / 1e3
	m["vec.verify_frac"] = m["vec.verify_us"] / root
	// Computed, not measured: one byte per dimension for a swept row's int8
	// code, four for every row the exact kernel then reads.
	m["vec.bytes_per_cand"] = float64(c.Dim) * (sweptShare + 4*(1-sweptShare*m["core.quant_pruned_frac"]))
	m["core.unattributed_us"] = m["core.kann_us"] - m["lsh.project_us"] - m["rstar.traverse_us"] - m["vec.verify_us"]

	m["scan.query_us"] = mean(scanUs)
	m["scan.speedup"] = m["scan.query_us"] / m["dblsh.search_us"]

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, q := range c.Queries[:nq] {
		if _, err := ds.SearchOpts(q, w.K); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&ms1)
	m["dblsh.allocs_per_search"] = float64(ms1.Mallocs-ms0.Mallocs) / n
	m["dblsh.bytes_per_search"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / n

	if probe != nil {
		after, err := scrape(probe.wire)
		if err != nil {
			return nil, err
		}
		served := after.searchCount - before.searchCount
		if served == 0 {
			return nil, errors.New("server /metrics counted no /search request during the layer passes")
		}
		var reqBytes int
		for _, b := range probe.bodies[:nq] {
			reqBytes += len(b)
		}
		m["server.roundtrip_us"] = root
		m["server.handler_us"] = (after.searchSeconds - before.searchSeconds) / served * 1e6
		m["server.transport_us"] = root - m["server.handler_us"]
		m["server.frontdoor_us"] = m["server.handler_us"] - m["dblsh.search_us"]
		m["server.frontdoor_frac"] = m["server.frontdoor_us"] / root
		m["server.req_bytes"] = float64(reqBytes) / n
		m["server.resp_bytes"] = float64(replyBytes) / n / layerPasses
	}

	// Inserts last: they change the set and the trees.
	ins := c.Adds[:min(layerInserts, len(c.Adds))]
	var addTime, insertTime time.Duration
	for _, v := range ins {
		start := time.Now()
		ls.set.Add(v)
		addTime += time.Since(start)
		for i, tree := range ls.trees {
			id := ls.proj[i].Append(ls.fam.Compound(i).Hash(nil, v))
			start = time.Now()
			tree.Insert(id)
			insertTime += time.Since(start)
		}
	}
	if len(ins) > 0 {
		m["shard.add_us"] = micro(addTime) / float64(len(ins))
		m["rstar.insert_us"] = micro(insertTime) / float64(len(ins)*L)
	}
	return m, nil
}

// serverCounters is what the benchmark reads from the server's /metrics.
type serverCounters struct {
	searchSeconds, searchCount float64 // dblsh_http_request_seconds{endpoint="/search"} sum and count
	shed                       float64 // dblsh_http_shed_total
	notOK                      float64 // dblsh_http_requests_total with a status other than 200
}

// scrape reads /metrics in the Prometheus text format.
func scrape(w *wire) (serverCounters, error) {
	var sc serverCounters
	resp, err := w.client.Get(w.base + "/metrics")
	if err != nil {
		return sc, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return sc, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	lines := bufio.NewScanner(resp.Body)
	lines.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for lines.Scan() {
		line := lines.Text()
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		series := line[:cut]
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			continue
		}
		switch {
		case series == `dblsh_http_request_seconds_sum{endpoint="/search"}`:
			sc.searchSeconds = v
		case series == `dblsh_http_request_seconds_count{endpoint="/search"}`:
			sc.searchCount = v
		case series == "dblsh_http_shed_total":
			sc.shed = v
		case strings.HasPrefix(series, "dblsh_http_requests_total{") && !strings.Contains(series, `status="200"`):
			sc.notOK += v
		}
	}
	return sc, lines.Err()
}

// scrapeServerCounters adds the run-wide server counts to the layer table.
// A shed or failed request has already failed the gate where it was sent;
// here the server's own count must agree that there were none.
func (r *run) scrapeServerCounters(srv *server, layers map[string]float64, g *gate) error {
	sc, err := scrape(newWire(srv.base))
	if err != nil {
		return err
	}
	layers["server.shed"] = sc.shed
	layers["server.errors"] = sc.notOK
	g.attempted++
	if sc.shed+sc.notOK > 0 {
		g.fail("server counted %v shed and %v non-200 requests", sc.shed, sc.notOK)
	}
	return nil
}

// traceWritePath fills the wal.* and durable.* rows from the store a durable
// run left in dir: a standalone wal.Writer appending the run's own records,
// a checkpoint of the run's log, and a reopen with nothing left to replay.
func (r *run) traceWritePath(layers map[string]float64, dir string, c *corpus, wl *writeLog, addServiceUs, reopenS float64, records int) error {
	// wal.Writer on its own: the same records, append and fsync timed apart.
	w, err := wal.OpenWriter(filepath.Join(r.workDir, "probe.wal"), 0)
	if err != nil {
		return err
	}
	var appendTime, syncTime time.Duration
	var adds, deletes, addBytes int
	for _, op := range wl.ops {
		rec := wal.Record{Op: wal.OpDelete, ID: uint64(op.id)}
		if op.add {
			rec = wal.Record{Op: wal.OpAdd, ID: uint64(op.id), Row: c.Adds[op.id-c.N]}
			adds++
			addBytes += len(wal.AppendRecord(nil, rec))
		} else {
			deletes++
		}
		start := time.Now()
		err := w.Append(rec)
		appendTime += time.Since(start)
		if err != nil {
			return errors.Join(err, w.Close())
		}
		start = time.Now()
		err = w.Sync()
		syncTime += time.Since(start)
		if err != nil {
			return errors.Join(err, w.Close())
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	n := float64(len(wl.ops))
	layers["wal.append_us"] = micro(appendTime) / n
	layers["wal.fsync_us"] = micro(syncTime) / n
	layers["wal.bytes_per_add"] = float64(addBytes) / float64(max(adds, 1))
	layers["durable.add_self_us"] = addServiceUs - layers["wal.append_us"] - layers["wal.fsync_us"] - layers["shard.add_us"]

	idx, err := dblsh.Open(dir, r.durableOptions())
	if err != nil {
		return err
	}
	st, _ := idx.Durability()
	start := time.Now()
	err = idx.Checkpoint()
	layers["durable.checkpoint_s"] = time.Since(start).Seconds()
	if err = errors.Join(err, idx.Close()); err != nil {
		return err
	}
	info, err := os.Stat(filepath.Join(dir, "checkpoint.dblsh"))
	if err != nil {
		return err
	}
	layers["durable.checkpoint_bytes"] = float64(info.Size())
	userBytes := float64(adds*c.Dim*4 + deletes*8)
	layers["wal.write_amp"] = (float64(st.LogBytes) + float64(info.Size())) / userBytes

	// With the log absorbed, an Open only loads the checkpoint; what the
	// run's reopens took beyond that is the replay.
	start = time.Now()
	idx, err = dblsh.Open(dir, r.durableOptions())
	clean := time.Since(start).Seconds()
	if err != nil {
		return err
	}
	if err := idx.Close(); err != nil {
		return err
	}
	if replay := reopenS - clean; replay > 0 {
		layers["durable.replay_records_per_s"] = float64(records) / replay
	}
	return nil
}
