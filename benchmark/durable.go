package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"dblsh"
	"dblsh/internal/vec"
)

// durabilityProbes is how many acknowledged adds and how many acknowledged
// deletes are looked up again after the first reopen.
const durabilityProbes = 200

// writeOp is one operation of the open-loop writer, as it happened.
type writeOp struct {
	add     bool
	id      int
	late    time.Duration // start − due: how late the generator ran
	fromDue time.Duration // acknowledgement − due: what a caller waiting since the due time saw
	service time.Duration // acknowledgement − start
	err     error
}

func (op writeOp) name() string {
	if op.add {
		return "add"
	}
	return "delete"
}

// writeLog is everything the writer did. The writer owns it while it runs;
// everyone else reads it after the writer has ended.
type writeLog struct {
	ops []writeOp
	// deletedAt[id] is when id's delete was acknowledged, in nanoseconds
	// since the run's epoch; 0 while id is live.
	deletedAt []int64
	// added[i] reports that c.Adds[i] was acknowledged under id N+i.
	added []bool
}

// runWriter is the open loop: operation i is due at epoch + i/rate whatever
// happened to the ones before it, and is timed from that due time so a stall
// charges the operations queued behind it. The pattern is add, add, delete a
// random live vector; the choice of victim comes from the run's seed.
func (r *run) runWriter(idx *dblsh.Index, c *corpus, epoch time.Time, ops int, wl *writeLog) {
	rng := rand.New(rand.NewSource(r.seed))
	live := make([]int, c.N, c.N+len(c.Adds))
	for i := range live {
		live[i] = i
	}
	interval := time.Second / time.Duration(r.w.WriteRate)
	nextAdd := 0
	for i := 0; i < ops; i++ {
		due := epoch.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		start := time.Now()
		op := writeOp{add: i%3 != 2, late: start.Sub(due)}
		if op.add {
			var id int
			id, op.err = idx.Add(c.Adds[nextAdd])
			if op.err == nil && id != c.N+nextAdd {
				op.err = fmt.Errorf("add %d acknowledged as id %d, want %d", nextAdd, id, c.N+nextAdd)
			}
			op.id = c.N + nextAdd
			if op.err == nil {
				wl.added[nextAdd] = true
				live = append(live, op.id)
			}
			nextAdd++
		} else {
			j := rng.Intn(len(live))
			op.id = live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			var ok bool
			ok, op.err = idx.DeleteWithError(op.id)
			if op.err == nil && !ok {
				op.err = fmt.Errorf("delete of live id %d reported not found", op.id)
			}
		}
		ack := time.Now()
		if !op.add && op.err == nil {
			wl.deletedAt[op.id] = ack.Sub(epoch).Nanoseconds()
		}
		op.fromDue, op.service = ack.Sub(due), ack.Sub(start)
		r.tr.record(r.tr.op(), 0, "dblsh."+op.name(), start, op.service)
		wl.ops = append(wl.ops, op)
	}
}

// durableOptions are the stated store settings: every mutation fsynced
// before it is acknowledged, no timed checkpoints (so background work in a
// run is compaction only and the log a reopen replays is the whole run's),
// and a search that visits its shards one after the other. The box has two
// cores and the writer needs one: with the default fan-out a search runs on
// two threads beside the writer's one, and its latency then spread twice as
// wide between identical runs (10 % against 5 %) because it timed the
// scheduler. What fan-out costs is in the traced run's shard.fanout_delta_us.
func (r *run) durableOptions() dblsh.Options {
	return dblsh.Options{Sync: dblsh.SyncAlways, CompactFraction: r.w.CompactFraction, CheckpointEvery: 0, Parallelism: 1}
}

// runDurable drives mixed-sharded: a 4-shard store built, saved and opened;
// one searcher goroutine in a closed loop beside one writer goroutine on an
// open-loop schedule; then a quiescent quality pass against a brute-force
// model of the live set, Close, and reopens that replay the run's log.
func (r *run) runDurable() (*outcome, error) {
	w := r.w
	ops := int(r.seconds.Seconds() * float64(w.WriteRate))
	c := newCorpus(w.Mix, w.N, w.Queries, (ops+2)/3*2, r.seed)
	data := vec.WrapMatrix(c.Data, c.N, c.Dim)
	r.phase("corpus")

	var idx *dblsh.Index
	var dir string
	var before float64
	setups, err := secondsOf(r.repeats(), func(i int) (time.Duration, error) {
		if idx != nil {
			if err := idx.Close(); err != nil {
				return 0, err
			}
			idx = nil
			if err := os.RemoveAll(dir); err != nil {
				return 0, err
			}
		}
		dir = filepath.Join(r.workDir, fmt.Sprintf("store-%d", i))
		before = heapMB()
		start := time.Now()
		mem, err := dblsh.NewFromFlat(c.Data, c.N, c.Dim, r.options())
		if err != nil {
			return 0, err
		}
		if err := mem.Save(dir); err != nil {
			return 0, err
		}
		idx, err = dblsh.Open(dir, r.durableOptions())
		return time.Since(start), err
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer idx.Close() // error paths only; the success path checks Close below
	e2e := map[string]float64{"setup_s": median(setups), "mem_mb": heapMB() - before}
	r.phase("set-up")

	wl := &writeLog{deletedAt: make([]int64, c.N+len(c.Adds)), added: make([]bool, len(c.Adds))}
	g := &gate{
		live: func() int { return c.N }, // never below k: deletes are a third of the adds' count
		rowOf: func(id int) []float32 {
			switch {
			case id < c.N:
				return data.Row(id)
			case id-c.N < len(c.Adds) && wl.added[id-c.N]:
				return c.Adds[id-c.N]
			}
			return nil
		},
		deletedBefore: func(id int, startNs int64) bool {
			at := wl.deletedAt[id]
			return at != 0 && at < startNs
		},
	}

	s := idx.NewSearcher()
	for _, q := range c.Queries { // warm-up, untimed, checked
		res, err := s.SearchOpts(q, w.K)
		g.search(q, w.K, res, err, 0)
	}
	r.phase("warm-up pass")

	// The writer runs for the whole timed part; the searcher ends the pass it
	// is in when the writer's schedule does.
	epoch := time.Now()
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		r.runWriter(idx, c, epoch, ops, wl)
	}()
	passes := searchPasses(epoch, w.Timed, minPasses(w.Timed), after(r.seconds), r.tr, "dblsh.search",
		func(qi int, sm *sample) { sm.res, sm.err = s.SearchOpts(c.Queries[qi], w.K) })
	writer.Wait()
	r.phase("timed part")
	searchMetrics(r.log, e2e, passes)
	for _, p := range passes {
		for qi, sm := range p {
			g.search(c.Queries[qi], w.K, sm.res, sm.err, sm.startNs)
		}
	}
	var addLat, addService, late []time.Duration
	for _, op := range wl.ops {
		g.op(op.name(), op.err)
		late = append(late, op.late)
		if op.add && op.err == nil {
			addLat = append(addLat, op.fromDue)
			addService = append(addService, op.service)
		}
	}
	// The writer's adds run once and each is different work, so there is no
	// quiet value to take: the plain median, the host's share included.
	e2e["add_p50_us"] = median(micros(addLat))
	lateUs := micros(late)
	sort.Float64s(lateUs)
	fmt.Fprintf(r.log, "%s: writer ran %d ops at %d/s; generator lateness p50 %.0f us, p99 %.0f us, max %.0f us\n",
		w.Name, len(wl.ops), w.WriteRate, percentile(lateUs, 0.5), percentile(lateUs, 0.99), lateUs[len(lateUs)-1])

	serviceUs := micros(addService)
	fmt.Fprintf(r.log, "%s: add service time mean %.0f us, p50 %.0f us (from start, not from due)\n",
		w.Name, mean(serviceUs), median(serviceUs))

	r.awaitCompactions(idx)
	compactions, deletedLeft := 0, 0
	for _, st := range idx.ShardStats() {
		compactions += st.Compactions
		deletedLeft += st.Deleted
	}
	fmt.Fprintf(r.log, "%s: %d compactions, %d tombstones left\n", w.Name, compactions, deletedLeft)

	// Quiescent quality pass against an exact scan of the live set.
	liveIDs, liveRows := liveSet(c, wl)
	truth := groundTruth(liveRows, liveIDs, c.Queries, w.K, r.procs)
	settled := time.Since(epoch).Nanoseconds()
	answers := make([][]dblsh.Result, len(c.Queries))
	for i, q := range c.Queries {
		res, err := s.SearchOpts(q, w.K)
		g.search(q, w.K, res, err, settled)
		answers[i] = res
	}
	e2e["recall_at_k"], e2e["overall_ratio"] = quality(answers, truth)
	r.phase("checks, compactions, ground truth and quality pass")

	var layers map[string]float64
	if r.tr != nil {
		// The layers are replayed on the corpus as built, in memory; what the
		// write path adds to them comes from this run's store.
		mem, err := dblsh.NewFromFlat(c.Data, c.N, c.Dim, r.options())
		if err != nil {
			return nil, err
		}
		if layers, err = r.traceLayers(c, truth, mem, nil); err != nil {
			return nil, err
		}
		layers["trace.overhead_frac"] = traceOverhead(passes)
		layers["shard.compactions"] = float64(compactions)
		layers["shard.deleted_left"] = float64(deletedLeft)
		r.phase("layer passes")
	}

	g.op("close", idx.Close())
	records := len(wl.ops)
	reopens, err := secondsOf(r.repeats(), func(i int) (time.Duration, error) {
		start := time.Now()
		re, err := dblsh.Open(dir, r.durableOptions())
		d := time.Since(start)
		g.op("reopen", err)
		if err != nil {
			return d, nil
		}
		if i == 0 {
			r.probeDurability(re, wl, g)
		}
		g.op("close", re.Close())
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	e2e["reopen_s"] = quiet(reopens)
	r.phase("reopens")

	if r.tr != nil {
		if err := r.traceWritePath(layers, dir, c, wl, mean(serviceUs), e2e["reopen_s"], records); err != nil {
			return nil, err
		}
	}
	return &outcome{gate: g, e2e: e2e, layers: layers}, nil
}

// awaitCompactions waits until no shard holds enough tombstones to owe a
// background rebuild, so that the quality pass and the reopen see a settled
// store. It gives up after a few seconds; a compaction still running then is
// reported by the tombstone count.
func (r *run) awaitCompactions(idx *dblsh.Index) {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		owed := false
		for _, st := range idx.ShardStats() {
			if st.Size > 0 && float64(st.Deleted)/float64(st.Size) >= r.w.CompactFraction {
				owed = true
			}
		}
		if !owed {
			return
		}
	}
}

// liveSet returns the brute-force model of the store after the writes: the
// ids still live, ascending, and their rows in that order.
func liveSet(c *corpus, wl *writeLog) ([]int, *vec.Matrix) {
	var ids []int
	for id := 0; id < c.N+len(c.Adds); id++ {
		if wl.deletedAt[id] == 0 && (id < c.N || wl.added[id-c.N]) {
			ids = append(ids, id)
		}
	}
	rows := vec.NewMatrix(len(ids), c.Dim)
	for i, id := range ids {
		if id < c.N {
			rows.SetRow(i, c.Data[id*c.Dim:(id+1)*c.Dim])
		} else {
			rows.SetRow(i, c.Adds[id-c.N])
		}
	}
	return ids, rows
}

// probeDurability checks a reopened store against what was acknowledged:
// every sampled add that was not deleted again must be its own nearest
// neighbour at distance 0, and no sampled delete may come back.
func (r *run) probeDurability(re *dblsh.Index, wl *writeLog, g *gate) {
	adds, deletes := 0, 0
	for _, op := range wl.ops {
		if op.err != nil {
			continue
		}
		switch {
		case op.add && adds < durabilityProbes && wl.deletedAt[op.id] == 0:
			adds++
			res, err := re.SearchOpts(g.rowOf(op.id), 1)
			g.attempted++
			if err != nil || len(res) != 1 || res[0].ID != op.id || res[0].Dist > distTolerance {
				g.fail("after reopen, acknowledged add %d is not its own nearest neighbour at distance 0: %v %v", op.id, res, err)
			}
		case !op.add && deletes < durabilityProbes:
			deletes++
			res, err := re.SearchOpts(g.rowOf(op.id), r.w.K)
			g.attempted++
			if err != nil {
				g.fail("after reopen, search: %v", err)
			}
			for _, h := range res {
				if h.ID == op.id {
					g.fail("after reopen, acknowledged delete %d is returned", op.id)
				}
			}
		}
	}
}
