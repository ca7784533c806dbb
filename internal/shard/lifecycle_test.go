package shard

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"dblsh/internal/baseline/scan"
	"dblsh/internal/core"
	"dblsh/internal/rstar"
	"dblsh/internal/vec"
	"dblsh/internal/wal"
)

// lifecycleCfg has the smallest node capacity a tree takes, so the index's
// tail holds 16 rows: a handful of adds schedule a background repack, and
// one replayed burst (which schedules none) fills the tail and repacks it
// inline.
var lifecycleCfg = core.Config{K: 3, L: 2, T: 4, Seed: 5, Tree: rstar.Options{MaxEntries: 4}}

const lifecycleDim, lifecycleBurst = 4, 40

// lifecycle drives a set through one fuzzed sequence of operations beside
// its model: the live rows by global id, which the scan baseline answers
// exactly, and the ids deleted so far.
type lifecycle struct {
	t     *testing.T
	s     *Set
	rng   *rand.Rand
	model map[int][]float32
	dead  []int
}

func (lc *lifecycle) row() []float32 {
	v := make([]float32, lifecycleDim)
	for j := range v {
		v[j] = float32(lc.rng.Intn(2000)-1000) / 16
	}
	return v
}

// live returns the model's ids in ascending order.
func (lc *lifecycle) live() []int {
	ids := make([]int, 0, len(lc.model))
	for g := range lc.model { // dblsh:orderinvariant sorted below
		ids = append(ids, g)
	}
	slices.Sort(ids)
	return ids
}

// step applies one operation, chosen and parameterized by op.
func (lc *lifecycle) step(op byte) {
	s, t := lc.s, lc.t
	switch op % 7 {
	case 0, 1: // add
		v := lc.row()
		lc.model[s.Add(v)] = v
	case 2: // a replayed burst of adds: no repack is scheduled, so the tails fill
		recs := make([]wal.Record, lifecycleBurst)
		for j := range recs {
			g := s.NextID() + j
			recs[j] = wal.Record{Op: wal.OpAdd, ID: uint64(g), Row: lc.row()}
			lc.model[g] = recs[j].Row
		}
		s.Replay(recs)
	case 3: // delete a live id, then the same id again
		ids := lc.live()
		if len(ids) == 0 {
			return
		}
		g := ids[int(op>>3)%len(ids)]
		if !s.Delete(g) || s.Delete(g) {
			t.Fatalf("delete of live id %d: the first must succeed and the second fail", g)
		}
		delete(lc.model, g)
		lc.dead = append(lc.dead, g)
	case 4:
		lc.checkSearch(lc.row())
	case 5:
		s.Compact()
	case 6:
		lc.reload()
	}
}

// checkSearch holds the set to the model: a query whose k exceeds the live
// rows verifies every one of them, so it must return the model's exact
// answer, id for id and distance for distance; a query at k = 3 must return
// live ids at their exact distances, in order.
func (lc *lifecycle) checkSearch(q []float32) {
	ids := lc.live()
	rows := vec.NewMatrix(len(ids), lifecycleDim)
	for j, g := range ids {
		rows.SetRow(j, lc.model[g])
	}
	want := scan.Build(rows).KANN(q, len(ids)+1)
	for j := range want {
		want[j].ID = ids[want[j].ID]
	}
	got, _, err := search(lc.s, q, len(ids)+1, core.QueryParams{})
	if err != nil || !slices.Equal(got, want) {
		lc.t.Fatalf("exact query over %d live rows: got %v (%v), want %v", len(ids), got, err, want)
	}
	few, _, err := search(lc.s, q, 3, core.QueryParams{})
	if err != nil || len(few) > 3 || (len(ids) > 0 && len(few) == 0) {
		lc.t.Fatalf("k = 3: %v, %v", few, err)
	}
	for j, nb := range few {
		v, ok := lc.model[nb.ID]
		if !ok || nb.Dist != vec.Dist(q, v) || (j > 0 && nb.Dist < few[j-1].Dist) {
			lc.t.Fatalf("k = 3: result %d is %+v, not a live row at its distance in order", j, nb)
		}
	}
	if live := lc.s.Info().Live; live != len(ids) {
		lc.t.Fatalf("the index holds %d live rows, the model %d", live, len(ids))
	}
	// Global ids find their rows through every compaction and add: each
	// live id is live, and no deleted or unallocated one is.
	for _, g := range ids {
		if !lc.s.Live(g) {
			lc.t.Fatalf("live id %d is not live", g)
		}
	}
	for _, g := range append(lc.dead, -1, lc.s.NextID()) {
		if lc.s.Live(g) || lc.s.Delete(g) {
			lc.t.Fatalf("id %d, deleted or never allocated, is live", g)
		}
	}
}

// reload saves the set and restores it, once every compaction the set owes
// has run and none is in flight (a finished one may
// schedule the next, and a replayed burst schedules none, hence
// CompactOwed): the restored set must answer a query exactly as the saved
// one does, node counts included, and carries on in its place.
func (lc *lifecycle) reload() {
	s := lc.s
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.CompactOwed()
		if !s.compacting.Load() && !s.owes() {
			break
		}
		if time.Now().After(deadline) {
			lc.t.Fatal("the owed compactions never finished")
		}
		time.Sleep(time.Millisecond)
	}
	loaded, err := Restore(s.Dim(), s.CompactFraction(), s.Params(), s.Snapshot())
	if err != nil {
		lc.t.Fatalf("restore: %v", err)
	}
	q := lc.row()
	a, as, _ := search(s, q, 5, core.QueryParams{})
	b, bs, _ := search(loaded, q, 5, core.QueryParams{})
	if !slices.Equal(a, b) || as != bs {
		lc.t.Fatalf("the restored set answers %v %+v, the saved one %v %+v", b, bs, a, as)
	}
	lc.s = loaded
}

// FuzzLifecycle runs add, replayed-burst, delete, search, Compact and
// save→load sequences against a set and checks it against the model, and
// every id's liveness, after every search and at the end. Auto-compaction is on, so
// tombstones and half-full tails schedule background rebuilds that race
// the sequence; a replayed burst fills a tail and repacks it inline.
//
//	go test -run '^$' -fuzz FuzzLifecycle -fuzztime 60s ./internal/shard
func FuzzLifecycle(f *testing.F) {
	f.Add([]byte{0, 2, 4, 3, 4, 6, 4, 5, 4})
	f.Add([]byte{1, 2, 2, 11, 19, 4, 6, 2, 4, 5, 13, 4})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 3, 3, 3, 4, 6, 0, 0, 4})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 || len(ops) > 64 {
			return
		}
		lc := &lifecycle{t: t, rng: rand.New(rand.NewSource(int64(len(ops)))), model: map[int][]float32{}}
		const n = 30
		flat := make([]float32, 0, n*lifecycleDim)
		for g := 0; g < n; g++ {
			v := lc.row()
			lc.model[g] = v
			flat = append(flat, v...)
		}
		lc.s = Build(flat, n, lifecycleDim, 1, 0.2, lifecycleCfg)
		for _, op := range ops {
			lc.step(op)
		}
		lc.checkSearch(lc.row())
	})
}
