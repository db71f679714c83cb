package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"fex/internal/stats"
)

// A result set is a directory holding one <workload>.jsonl file per
// workload, each line the last output line of one benchmark run, in the
// order the runs were made. sweep.sh writes one.

// loadResultSet reads every workload's metric series of a result set.
func loadResultSet(dir string) (map[string]map[string][]float64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("fexbench: no <workload>.jsonl results in %s", dir)
	}
	out := map[string]map[string][]float64{}
	for _, path := range files {
		workload := strings.TrimSuffix(filepath.Base(path), ".jsonl")
		series, err := readSeries(path)
		if err != nil {
			return nil, err
		}
		out[workload] = series
	}
	return out, nil
}

func readSeries(path string) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	series := map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("fexbench: %s:%d: %w", path, line, err)
		}
		for name, m := range r.Metrics {
			series[name] = append(series[name], m.Value)
		}
	}
	return series, sc.Err()
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

var errUsage = errors.New("usage: fexbench compare <base-dir> [<candidate-dir>]")

// Verdicts of a comparison.
const (
	improved   = "improved"
	worse      = "worse"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// verdict compares a candidate's runs with the base's runs of one
// metric. Run i of each side form pair i. The change is improved (or
// worse) when it wins (or loses) at least nine tenths of the pairs, ties
// counting for neither, and the medians differ by more than the base's
// quartile distance. Otherwise a candidate median worse than the base's
// by more than the bound is worse; a base spread wider than the bound
// leaves the metric unresolved unless every candidate run beats every
// base run.
func verdict(base, cand []float64, def metricDef) string {
	better := func(x, y float64) bool {
		if def.Better == "higher" {
			return x > y
		}
		return x < y
	}
	pairs := len(base)
	if len(cand) < pairs {
		pairs = len(cand)
	}
	wins, losses := 0, 0
	for i := 0; i < pairs; i++ {
		switch {
		case better(cand[i], base[i]):
			wins++
		case better(base[i], cand[i]):
			losses++
		}
	}
	mb, mc := median(base), median(cand)
	q1, q3 := quartiles(base)
	apart := math.Abs(mc-mb) > q3-q1
	switch {
	case pairs > 0 && 10*wins >= 9*pairs && apart:
		return improved
	case pairs > 0 && 10*losses >= 9*pairs && apart:
		return worse
	}
	if def.Bound == 0 || mb == 0 {
		return unchanged
	}
	worseBy := (mc - mb) / math.Abs(mb)
	if def.Better == "higher" {
		worseBy = -worseBy
	}
	wide := spread(base) > def.Bound
	switch {
	case worseBy > def.Bound && !wide:
		return worse
	case wide && !dominates(cand, base, better):
		return unresolved
	}
	return unchanged
}

// dominates reports whether every run of a beats every run of b.
func dominates(a, b []float64, better func(x, y float64) bool) bool {
	for _, x := range a {
		for _, y := range b {
			if !better(x, y) {
				return false
			}
		}
	}
	return len(a) > 0 && len(b) > 0
}

// compareMain prints, for one result set, each metric's median and
// spread against its bound; for two, a verdict per (metric, workload)
// with Welch's t-test and the 95% confidence intervals of both sides.
func compareMain(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 || fs.NArg() > 2 {
		return errUsage
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	defs := append(append([]metricDef(nil), spec.EndToEnd...), spec.PerLayer...)
	base, err := loadResultSet(fs.Arg(0))
	if err != nil {
		return err
	}
	if fs.NArg() == 1 {
		printSpreads(w, base, defs)
		return nil
	}
	cand, err := loadResultSet(fs.Arg(1))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-16s %-28s %12s %12s %8s %8s %-11s\n", "workload", "metric", "base_med", "cand_med", "delta%", "welch_p", "verdict")
	for _, wl := range spec.Workloads {
		for _, d := range defs {
			b, c := base[wl.Name][d.Name], cand[wl.Name][d.Name]
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			mb, mc := median(b), median(c)
			delta := 0.0
			if mb != 0 {
				delta = 100 * (mc - mb) / math.Abs(mb)
			}
			p := math.NaN()
			if t, err := stats.WelchTTest(c, b); err == nil {
				p = t.P
			}
			v := verdict(b, c, d)
			if ib, err := stats.ConfidenceInterval(b, 0.95); err == nil {
				if ic, err := stats.ConfidenceInterval(c, 0.95); err == nil && ib.Disjoint(ic) {
					v += " (CIs disjoint)"
				}
			}
			fmt.Fprintf(w, "%-16s %-28s %12.4g %12.4g %+7.1f%% %8.3g %s\n", wl.Name, d.Name, mb, mc, delta, p, v)
		}
	}
	return nil
}

// printSpreads reports each end-to-end metric's spread against a third
// of its bound, the steadiness target, and each per-layer metric's
// spread.
func printSpreads(w io.Writer, set map[string]map[string][]float64, defs []metricDef) {
	fmt.Fprintf(w, "%-16s %-28s %4s %12s %12s %12s %8s %6s %s\n", "workload", "metric", "n", "q1", "median", "q3", "spread", "bound", "")
	workloads := make([]string, 0, len(set))
	for wl := range set {
		workloads = append(workloads, wl)
	}
	sort.Strings(workloads)
	for _, wl := range workloads {
		for _, d := range defs {
			xs := set[wl][d.Name]
			if len(xs) == 0 {
				continue
			}
			q1, q3 := quartiles(xs)
			s := spread(xs)
			note := ""
			if d.Bound > 0 && d.Name != "setup_s" {
				switch {
				case s > d.Bound:
					note = "OVER BOUND"
				case s > d.Bound/3:
					note = "above bound/3"
				}
			}
			fmt.Fprintf(w, "%-16s %-28s %4d %12.4g %12.4g %12.4g %7.1f%% %6.2f %s\n", wl, d.Name, len(xs), q1, median(xs), q3, 100*s, d.Bound, note)
		}
	}
}
