// Command dblsh-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	dblsh-bench [flags] <experiment> [experiment...]
//
// Experiments: fig4, table1, table4, fig5 (alias fig6, fig7), fig8,
// fig9 (alias fig10), all.
//
// Flags select the dataset profile set and the workload size; the defaults
// match the paper's settings at the scaled-down cardinalities of
// internal/dataset's profiles (README, "Reproducing the paper: experiments
// and substitutions"). Example:
//
//	dblsh-bench -profiles small table4
//	dblsh-bench -k 50 fig8
//	dblsh-bench all
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dblsh/internal/dataset"
	"dblsh/internal/harness"
)

func main() {
	var (
		profileSet = flag.String("profiles", "small", `profile set: "small" (fast), "full" (all ten Table III analogues), or a comma-separated list of profile names`)
		k          = flag.Int("k", 50, "number of neighbors per query (the paper's default is 50)")
		kl         = flag.String("kl", "10x5", "K and L as KxL (the paper uses 10-12 x 5)")
		t          = flag.Int("t", 100, "candidate constant t (budget 2tL+k)")
		c          = flag.Float64("c", 1.5, "approximation ratio")
		seed       = flag.Int64("seed", 42, "hash and data seed")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: dblsh-bench [flags] <fig4|table1|table4|fig5|fig8|fig9|equalrecall|all>")
		flag.PrintDefaults()
		os.Exit(2)
	}

	params := harness.Params{C: *c, W0: 4 * *c * *c, T: *t, Seed: *seed}
	if _, err := fmt.Sscanf(*kl, "%dx%d", &params.K, &params.L); err != nil {
		fmt.Fprintf(os.Stderr, "dblsh-bench: bad -kl %q: %v\n", *kl, err)
		os.Exit(2)
	}

	profiles, err := resolveProfiles(*profileSet)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dblsh-bench: %v\n", err)
		os.Exit(2)
	}

	for _, exp := range flag.Args() {
		start := time.Now()
		switch strings.ToLower(exp) {
		case "fig4":
			harness.Fig4(os.Stdout)
		case "table1":
			harness.Table1(os.Stdout, profiles[0], []float64{0.2, 0.4, 0.6, 0.8, 1.0}, params, *k)
		case "table4":
			harness.Table4(os.Stdout, profiles, params, *k)
		case "fig5", "fig6", "fig7":
			fractions := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
			for _, p := range firstTwo(profiles) {
				series := harness.VaryN(os.Stdout, p, fractions, params, *k)
				if err := harness.PlotVaryN(os.Stdout, "query time vs n — "+p.Name, fractions, series); err != nil {
					fmt.Fprintf(os.Stderr, "dblsh-bench: plot: %v\n", err)
				}
			}
		case "fig8":
			for _, p := range firstTwo(profiles) {
				harness.VaryK(os.Stdout, p, []int{1, 10, 20, 40, 60, 80, 100}, params)
			}
		case "fig9", "fig10":
			for _, p := range firstTwo(profiles) {
				series := harness.Tradeoff(os.Stdout, p, []float64{1.2, 1.5, 2.0, 2.5, 3.0}, params, *k)
				if err := harness.PlotTradeoff(os.Stdout, "recall vs time — "+p.Name, series); err != nil {
					fmt.Fprintf(os.Stderr, "dblsh-bench: plot: %v\n", err)
				}
			}
		case "equalrecall":
			for _, p := range firstTwo(profiles) {
				harness.EqualAccuracy(os.Stdout, p, params, *k, 0.9)
			}
		case "all":
			harness.Fig4(os.Stdout)
			harness.Table4(os.Stdout, profiles, params, *k)
			for _, p := range firstTwo(profiles) {
				harness.VaryN(os.Stdout, p, []float64{0.2, 0.4, 0.6, 0.8, 1.0}, params, *k)
				harness.VaryK(os.Stdout, p, []int{1, 10, 20, 40, 60, 80, 100}, params)
				harness.Tradeoff(os.Stdout, p, []float64{1.2, 1.5, 2.0, 2.5, 3.0}, params, *k)
			}
			harness.Table1(os.Stdout, profiles[0], []float64{0.2, 0.4, 0.6, 0.8, 1.0}, params, *k)
		default:
			fmt.Fprintf(os.Stderr, "dblsh-bench: unknown experiment %q\n", exp)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stdout, "\n[%s completed in %v]\n\n", exp, time.Since(start).Round(time.Millisecond))
	}
}

func resolveProfiles(set string) ([]dataset.Profile, error) {
	switch set {
	case "small":
		return dataset.Small(), nil
	case "full":
		return dataset.All(), nil
	}
	byName := make(map[string]dataset.Profile)
	for _, p := range dataset.All() {
		byName[strings.ToLower(p.Name)] = p
	}
	var out []dataset.Profile
	for _, name := range strings.Split(set, ",") {
		p, ok := byName[strings.ToLower(strings.TrimSpace(name))]
		if !ok {
			return nil, fmt.Errorf("unknown profile %q", name)
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no profiles in %q", set)
	}
	return out, nil
}

func firstTwo(ps []dataset.Profile) []dataset.Profile {
	if len(ps) > 2 {
		return ps[:2]
	}
	return ps
}
