package main

import (
	"fmt"
	"math"

	"dblsh"
	"dblsh/internal/eval"
	"dblsh/internal/vec"
)

// distTolerance is the relative error allowed between a reported distance and
// the one recomputed here. The two come from the same float32 rows but may
// run different kernel rows (the server picks its own), whose summation
// orders differ in the last bits.
const distTolerance = 1e-5

// gate is the correctness check every operation of a run passes through. It
// counts attempts and failures; the first failure's description is kept for
// the log.
type gate struct {
	// rowOf returns the vector stored under id, or nil when no acknowledged
	// add ever produced that id.
	rowOf func(id int) []float32
	// live is the number of vectors a search can return.
	live func() int
	// deletedBefore reports whether id's delete was acknowledged before the
	// monotonic instant startNs. Nil on read-only workloads.
	deletedBefore func(id int, startNs int64) bool

	attempted int
	failed    int
	first     string
}

func (g *gate) fail(format string, args ...any) {
	g.failed++
	if g.first == "" {
		g.first = fmt.Sprintf(format, args...)
	}
}

// op counts one operation that has no answer to inspect beyond its error.
func (g *gate) op(what string, err error) {
	g.attempted++
	if err != nil {
		g.fail("%s: %v", what, err)
	}
}

// search checks one answer: no error, min(k, live) results, ascending
// distances, every distance equal to the recomputed exact one, and no id
// whose delete was acknowledged before the search began.
func (g *gate) search(q []float32, k int, res []dblsh.Result, err error, startNs int64) {
	g.attempted++
	if err != nil {
		g.fail("search: %v", err)
		return
	}
	if want := min(k, g.live()); len(res) != want {
		g.fail("search returned %d results, want %d", len(res), want)
		return
	}
	for i, r := range res {
		if i > 0 && r.Dist < res[i-1].Dist {
			g.fail("distances not ascending at rank %d: %v after %v", i, r.Dist, res[i-1].Dist)
			return
		}
		row := g.rowOf(r.ID)
		if row == nil {
			g.fail("search returned unknown id %d", r.ID)
			return
		}
		exact := vec.Dist(q, row)
		if math.Abs(r.Dist-exact) > distTolerance*math.Max(exact, 1) {
			g.fail("id %d reported at distance %v, exact distance is %v", r.ID, r.Dist, exact)
			return
		}
		if g.deletedBefore != nil && g.deletedBefore(r.ID, startNs) {
			g.fail("search returned id %d whose delete was acknowledged before it began", r.ID)
			return
		}
	}
}

func neighbors(res []dblsh.Result) []vec.Neighbor {
	out := make([]vec.Neighbor, len(res))
	for i, r := range res {
		out[i] = vec.Neighbor{ID: r.ID, Dist: r.Dist}
	}
	return out
}

// quality returns the mean recall (Eq. 12) and mean overall ratio (Eq. 11) of
// answers against the exact truth, query by query.
func quality(answers [][]dblsh.Result, truth [][]vec.Neighbor) (recall, ratio float64) {
	for i, res := range answers {
		nb := neighbors(res)
		recall += eval.Recall(nb, truth[i])
		ratio += eval.OverallRatio(nb, truth[i])
	}
	n := float64(len(answers))
	return recall / n, ratio / n
}
