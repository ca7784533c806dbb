package harness

import (
	"fmt"
	"io"
	"time"

	"dblsh/internal/dataset"
)

// EqualAccuracyRow is one algorithm's cheapest configuration that reaches
// the target recall.
type EqualAccuracyRow struct {
	Algo     string
	Reached  bool
	Recall   float64
	Budget   int // candidate constant t at which the target was reached
	AvgTime  time.Duration
	AvgRatio float64
}

// defaultBudgetLadder is the sequence of candidate constants tried in order.
var defaultBudgetLadder = []int{5, 10, 25, 50, 100, 200, 400, 800}

// EqualAccuracy reproduces the paper's headline comparison directly: for
// each algorithm it walks a budget ladder until the average recall reaches
// target, then reports the query time at that first sufficient budget. The
// paper's "DB-LSH reduces query time by an average of 40% over the second
// best competitor" is a statement about exactly this table.
func EqualAccuracy(w io.Writer, p dataset.Profile, params Params, k int, target float64) []EqualAccuracyRow {
	ds := dataset.Generate(p)
	truth := dataset.GroundTruth(ds.Data, ds.Queries, k)

	fmt.Fprintf(w, "Equal-accuracy comparison on %s — time to reach recall ≥ %.2f (k=%d)\n", p.Name, target, k)
	fmt.Fprintf(w, "  %-12s %8s %8s %14s %12s\n", "Algorithm", "t", "recall", "QueryTime", "OverallRatio")

	var rows []EqualAccuracyRow
	for i, a := range StandardAlgos(params) {
		row := EqualAccuracyRow{Algo: a.Name}
		for _, t := range defaultBudgetLadder {
			rung := params // the standard set at candidate constant t
			rung.T = t
			r := RunWorkload(StandardAlgos(rung)[i], ds, truth, k)
			row.Recall = r.Agg.AvgRecall
			row.Budget = t
			row.AvgTime = r.Agg.AvgTime
			row.AvgRatio = r.Agg.AvgRatio
			if r.Agg.AvgRecall >= target {
				row.Reached = true
				break
			}
		}
		rows = append(rows, row)
		mark := ""
		if !row.Reached {
			mark = "  (target not reached at max budget)"
		}
		fmt.Fprintf(w, "  %-12s %8d %8.4f %14v %12.4f%s\n",
			row.Algo, row.Budget, row.Recall, row.AvgTime.Round(time.Microsecond), row.AvgRatio, mark)
	}
	return rows
}
