// Package harness runs the paper's experiments end to end: it builds every
// algorithm on a dataset profile, replays the query workload, and renders
// the same rows and series the paper's Tables and Figures report. One
// exported runner exists per experiment id (indexed in the README,
// "Reproducing the paper: experiments and substitutions"); the dblsh-bench
// command and the repository-level benchmarks are thin wrappers over these
// runners.
package harness

import (
	"fmt"
	"io"
	"math"
	"time"

	"dblsh/internal/baseline/e2lsh"
	"dblsh/internal/baseline/fblsh"
	"dblsh/internal/baseline/lsb"
	"dblsh/internal/baseline/pmlsh"
	"dblsh/internal/baseline/qalsh"
	"dblsh/internal/baseline/r2lsh"
	"dblsh/internal/baseline/vhp"
	"dblsh/internal/core"
	"dblsh/internal/dataset"
	"dblsh/internal/eval"
	"dblsh/internal/mathx"
	"dblsh/internal/vec"
)

// SearchFunc answers a (c,k)-ANN query.
type SearchFunc func(q []float32, k int) []vec.Neighbor

// Algo couples an algorithm name with its builder. Note carries the
// index-size accounting of Table IV (index size = n × #hash functions for
// every method here, so the hash-function count is the comparison).
type Algo struct {
	Name  string
	Note  string
	Build func(data *vec.Matrix) SearchFunc
}

// Params carries the paper's default experimental settings (Section VI-A):
// c = 1.5, w = 4c², L = 5, K = 10–12, k = 50, and the candidate constant t.
type Params struct {
	C    float64
	W0   float64
	K    int
	L    int
	T    int
	Seed int64
}

// DefaultParams mirrors the paper's defaults at our dataset scale.
func DefaultParams() Params {
	c := 1.5
	return Params{C: c, W0: 4 * c * c, K: 10, L: 5, T: 100, Seed: 42}
}

// StandardAlgos returns the algorithm set of Table IV. The shared candidate
// budget 2tL+k is propagated into each method's own budget knob so every
// algorithm verifies a comparable number of points (the paper tunes each
// competitor to "comparable query accuracy" the same way); EqualAccuracy
// walks that budget by calling it once per candidate constant.
func StandardAlgos(p Params) []Algo {
	budget := 2 * p.T * p.L
	return []Algo{
		{Name: "DB-LSH", Note: fmt.Sprintf("K·L=%d", p.K*p.L), Build: func(data *vec.Matrix) SearchFunc {
			idx := core.Build(data, core.Config{C: p.C, W0: p.W0, K: p.K, L: p.L, T: p.T, Seed: p.Seed})
			return func(q []float32, k int) []vec.Neighbor {
				return idx.KANN(q, k)
			}
		}},
		{Name: "FB-LSH", Note: fmt.Sprintf("K·L=%d per level", p.K*p.L), Build: func(data *vec.Matrix) SearchFunc {
			idx := fblsh.Build(data, fblsh.Config{C: p.C, W0: p.W0, K: p.K, L: p.L, T: p.T, Seed: p.Seed})
			return idx.KANN
		}},
		{Name: "E2LSH", Note: fmt.Sprintf("K·L=%d per level", p.K*p.L), Build: func(data *vec.Matrix) SearchFunc {
			idx := e2lsh.Build(data, e2lsh.Config{C: p.C, W0: p.W0, K: p.K, L: p.L, T: p.T, Seed: p.Seed})
			return idx.KANN
		}},
		{Name: "QALSH", Note: "m=O(log n)", Build: func(data *vec.Matrix) SearchFunc {
			beta := 0.1
			if n := data.Rows(); n > 0 {
				beta = float64(budget) / float64(n)
			}
			idx := qalsh.Build(data, qalsh.Config{C: p.C, Beta: beta, Seed: p.Seed})
			return idx.KANN
		}},
		{Name: "R2LSH", Note: "m 2-D spaces", Build: func(data *vec.Matrix) SearchFunc {
			beta := 0.1
			if n := data.Rows(); n > 0 {
				beta = float64(budget) / float64(n)
			}
			idx := r2lsh.Build(data, r2lsh.Config{C: p.C, Beta: beta, Seed: p.Seed})
			return idx.KANN
		}},
		{Name: "VHP", Note: "m=O(log n)", Build: func(data *vec.Matrix) SearchFunc {
			beta := 0.1
			if n := data.Rows(); n > 0 {
				beta = float64(budget) / float64(n)
			}
			idx := vhp.Build(data, vhp.Config{C: p.C, Beta: beta, Seed: p.Seed})
			return idx.KANN
		}},
		{Name: "PM-LSH", Note: "m=15", Build: func(data *vec.Matrix) SearchFunc {
			beta := 0.1
			if n := data.Rows(); n > 0 {
				beta = float64(budget) / float64(n)
			}
			idx := pmlsh.Build(data, pmlsh.Config{M: 15, Beta: beta, C: p.C, Seed: p.Seed})
			return idx.KANN
		}},
		{Name: "LSB-Forest", Note: fmt.Sprintf("K·L=%d", p.K*p.L), Build: func(data *vec.Matrix) SearchFunc {
			idx := lsb.Build(data, lsb.Config{K: p.K, L: p.L, T: p.T, Seed: p.Seed})
			return idx.KANN
		}},
	}
}

// Result is one algorithm's measured row.
type Result struct {
	Algo      string
	BuildTime time.Duration
	Agg       eval.Aggregate
}

// RunWorkload builds an algorithm, replays the workload once untimed (to
// warm lazily-built structures the way a long-lived serving process would),
// then measures every query against the provided ground truth.
func RunWorkload(a Algo, ds *dataset.Dataset, truth [][]vec.Neighbor, k int) Result {
	start := time.Now()
	search := a.Build(ds.Data)
	buildTime := time.Since(start)

	nq := ds.Queries.Rows()
	for qi := 0; qi < nq; qi++ { // warm pass
		search(ds.Queries.Row(qi), k)
	}
	results := make([]eval.QueryResult, nq)
	for qi := 0; qi < nq; qi++ {
		q := ds.Queries.Row(qi)
		t0 := time.Now()
		res := search(q, k)
		elapsed := time.Since(t0)
		results[qi] = eval.QueryResult{
			Time:   elapsed,
			Recall: eval.Recall(res, truth[qi]),
			Ratio:  eval.OverallRatio(res, truth[qi]),
		}
	}
	return Result{Algo: a.Name, BuildTime: buildTime, Agg: eval.Summarize(results)}
}

// RunProfile generates a profile, computes ground truth, and measures every
// algorithm on it.
func RunProfile(p dataset.Profile, algos []Algo, k int) []Result {
	ds := dataset.Generate(p)
	truth := dataset.GroundTruth(ds.Data, ds.Queries, k)
	out := make([]Result, 0, len(algos))
	for _, a := range algos {
		out = append(out, RunWorkload(a, ds, truth, k))
	}
	return out
}

// Table4 reproduces Table IV: per-dataset query time, overall ratio, recall
// and indexing time for every algorithm.
func Table4(w io.Writer, profiles []dataset.Profile, params Params, k int) {
	algos := StandardAlgos(params)
	fmt.Fprintf(w, "Table IV — Performance Overview (k=%d, c=%.2f, w0=%.2f, K=%d, L=%d, t=%d)\n",
		k, params.C, params.W0, params.K, params.L, params.T)
	notes := make(map[string]string, len(algos))
	for _, a := range algos {
		notes[a.Name] = a.Note
	}
	for _, p := range profiles {
		fmt.Fprintf(w, "\n%s (n=%d, d=%d)\n", p.Name, p.N, p.Dim)
		fmt.Fprintf(w, "  %-12s %14s %12s %8s %14s  %s\n", "Algorithm", "QueryTime", "OverallRatio", "Recall", "IndexingTime", "IndexSize")
		for _, r := range RunProfile(p, algos, k) {
			fmt.Fprintf(w, "  %-12s %14v %12.4f %8.4f %14v  %s\n",
				r.Algo, r.Agg.AvgTime.Round(time.Microsecond), r.Agg.AvgRatio, r.Agg.AvgRecall,
				r.BuildTime.Round(time.Millisecond), notes[r.Algo])
		}
	}
}

// Fig4 reproduces Figure 4: ρ* versus the static ρ and the bounds 1/c and
// 1/c^α for w = 0.4c² (a) and w = 4c² (b), over c ∈ [1.05, 4].
func Fig4(w io.Writer) {
	for _, gamma := range []float64{0.2, 2.0} {
		fmt.Fprintf(w, "Figure 4 — w0 = %.1fc² (γ=%.1f, α=ξ(γ)=%.4f)\n", 2*gamma, gamma, xi(gamma))
		fmt.Fprintf(w, "  %6s %10s %10s %10s %10s\n", "c", "rho*", "rho(static)", "1/c", "1/c^alpha")
		alpha := xi(gamma)
		for c := 1.05; c <= 4.001; c += 0.25 {
			w0 := 2 * gamma * c * c
			fmt.Fprintf(w, "  %6.2f %10.4f %10.4f %10.4f %10.4f\n",
				c, rhoDyn(c, w0), rhoStatic(c, w0), 1/c, math.Pow(c, -alpha))
		}
		fmt.Fprintln(w)
	}
}

// VaryN runs the Fig. 5–7 experiment: algorithms over scaled-down copies of
// a profile, reporting time, recall and ratio per fraction.
func VaryN(w io.Writer, p dataset.Profile, fractions []float64, params Params, k int) map[string][]Result {
	algos := StandardAlgos(params)
	series := make(map[string][]Result)
	fmt.Fprintf(w, "Figures 5-7 — varying n on %s (k=%d)\n", p.Name, k)
	fmt.Fprintf(w, "  %-12s %8s %14s %8s %12s\n", "Algorithm", "n-frac", "QueryTime", "Recall", "OverallRatio")
	for _, f := range fractions {
		for _, r := range RunProfile(p.Scaled(f), algos, k) {
			series[r.Algo] = append(series[r.Algo], r)
			fmt.Fprintf(w, "  %-12s %8.1f %14v %8.4f %12.4f\n",
				r.Algo, f, r.Agg.AvgTime.Round(time.Microsecond), r.Agg.AvgRecall, r.Agg.AvgRatio)
		}
	}
	return series
}

// VaryK runs the Fig. 8 experiment: recall and overall ratio as k grows.
func VaryK(w io.Writer, p dataset.Profile, ks []int, params Params) {
	algos := StandardAlgos(params)
	ds := dataset.Generate(p)
	maxK := 0
	for _, k := range ks {
		if k > maxK {
			maxK = k
		}
	}
	truth := dataset.GroundTruth(ds.Data, ds.Queries, maxK)
	fmt.Fprintf(w, "Figure 8 — varying k on %s\n", p.Name)
	fmt.Fprintf(w, "  %-12s %6s %8s %12s\n", "Algorithm", "k", "Recall", "OverallRatio")
	for _, a := range algos {
		search := a.Build(ds.Data)
		for _, k := range ks {
			kTruth := make([][]vec.Neighbor, len(truth))
			for i := range truth {
				kTruth[i] = truth[i][:k]
			}
			results := make([]eval.QueryResult, ds.Queries.Rows())
			for qi := 0; qi < ds.Queries.Rows(); qi++ {
				res := search(ds.Queries.Row(qi), k)
				results[qi] = eval.QueryResult{
					Recall: eval.Recall(res, kTruth[qi]),
					Ratio:  eval.OverallRatio(res, kTruth[qi]),
				}
			}
			agg := eval.Summarize(results)
			fmt.Fprintf(w, "  %-12s %6d %8.4f %12.4f\n", a.Name, k, agg.AvgRecall, agg.AvgRatio)
		}
	}
}

// TradeoffPoint is one (time, recall, ratio) sample of the Fig. 9/10 curves.
type TradeoffPoint struct {
	C      float64
	Time   time.Duration
	Recall float64
	Ratio  float64
}

// Tradeoff runs the Fig. 9/10 experiment: recall–time and ratio–time curves
// obtained by varying the approximation ratio c.
func Tradeoff(w io.Writer, p dataset.Profile, cs []float64, params Params, k int) map[string][]TradeoffPoint {
	ds := dataset.Generate(p)
	truth := dataset.GroundTruth(ds.Data, ds.Queries, k)
	out := make(map[string][]TradeoffPoint)
	fmt.Fprintf(w, "Figures 9-10 — recall/ratio vs time on %s (k=%d), varying c\n", p.Name, k)
	fmt.Fprintf(w, "  %-12s %6s %14s %8s %12s\n", "Algorithm", "c", "QueryTime", "Recall", "OverallRatio")
	for _, c := range cs {
		pp := params
		pp.C = c
		pp.W0 = 4 * c * c
		for _, a := range StandardAlgos(pp) {
			r := RunWorkload(a, ds, truth, k)
			pt := TradeoffPoint{C: c, Time: r.Agg.AvgTime, Recall: r.Agg.AvgRecall, Ratio: r.Agg.AvgRatio}
			out[a.Name] = append(out[a.Name], pt)
			fmt.Fprintf(w, "  %-12s %6.2f %14v %8.4f %12.4f\n",
				a.Name, c, pt.Time.Round(time.Microsecond), pt.Recall, pt.Ratio)
		}
	}
	return out
}

// Table1 estimates each algorithm's empirical query-cost exponent: the slope
// of log(query time) against log(n) over scaled datasets — the measurable
// counterpart of Table I's O(n^ρ) column. Sub-linear methods show slope < 1.
func Table1(w io.Writer, p dataset.Profile, fractions []float64, params Params, k int) map[string]float64 {
	series := VaryN(io.Discard, p, fractions, params, k)
	out := make(map[string]float64, len(series))
	fmt.Fprintf(w, "Table I (empirical) — query-time growth exponents on %s\n", p.Name)
	fmt.Fprintf(w, "  %-12s %10s\n", "Algorithm", "exponent")
	for algo, rs := range series {
		var xs, ys []float64
		for i, r := range rs {
			xs = append(xs, math.Log(float64(p.N)*fractions[i]))
			ys = append(ys, math.Log(float64(r.Agg.AvgTime.Nanoseconds())))
		}
		out[algo] = slope(xs, ys)
	}
	// Stable output order: the order of StandardAlgos.
	for _, a := range StandardAlgos(params) {
		if v, ok := out[a.Name]; ok {
			fmt.Fprintf(w, "  %-12s %10.3f\n", a.Name, v)
		}
	}
	return out
}

// Thin aliases over mathx keep the figure code readable.
func xi(gamma float64) float64        { return mathx.Xi(gamma) }
func rhoDyn(c, w0 float64) float64    { return mathx.Rho(c, w0) }
func rhoStatic(c, w0 float64) float64 { return mathx.RhoStatic(c, w0) }

func slope(xs, ys []float64) float64 {
	n := float64(len(xs))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}
