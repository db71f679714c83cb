package core

import (
	"fmt"
	"math"
	"sort"

	"fex/internal/plot"
	"fex/internal/stats"
	"fex/internal/table"
)

// BaselineType is the build type every normalized plot divides by —
// native GCC, as in Figure 6 ("Normalized runtime (w.r.t. native GCC)").
const BaselineType = "gcc_native"

// metricByBenchType extracts metric values keyed by (bench, type) from a
// collected table, restricted to the smallest thread count present.
func metricByBenchType(tbl *table.Table, metric string) (benches []string, types []string, values map[[2]string]float64, err error) {
	threads, err := tbl.Floats("threads")
	if err != nil {
		return nil, nil, nil, err
	}
	minThreads := math.Inf(1)
	for _, t := range threads {
		if t < minThreads {
			minThreads = t
		}
	}
	benchCol, err := tbl.Strings("bench")
	if err != nil {
		return nil, nil, nil, err
	}
	typeCol, err := tbl.Strings("type")
	if err != nil {
		return nil, nil, nil, err
	}
	vals, err := tbl.Floats(metric)
	if err != nil {
		return nil, nil, nil, err
	}
	values = make(map[[2]string]float64)
	benchSeen := map[string]bool{}
	typeSeen := map[string]bool{}
	for i := range benchCol {
		if threads[i] != minThreads {
			continue
		}
		values[[2]string{benchCol[i], typeCol[i]}] = vals[i]
		if !benchSeen[benchCol[i]] {
			benchSeen[benchCol[i]] = true
			benches = append(benches, benchCol[i])
		}
		if !typeSeen[typeCol[i]] {
			typeSeen[typeCol[i]] = true
			types = append(types, typeCol[i])
		}
	}
	return benches, types, values, nil
}

// NormalizedPerfPlot renders the Figure 6 family: per-benchmark runtime of
// every non-baseline build type normalized to the baseline, with a final
// "All" bar carrying the geometric mean. The metric defaults to modeled
// cycles. A benchmark whose metric reads zero under both the baseline and
// a candidate normalizes to 1 (no overhead); zero under the baseline alone
// is an error.
func NormalizedPerfPlot(tbl *table.Table, metric, baseline, title string) (string, error) {
	if metric == "" {
		metric = "cycles"
	}
	if baseline == "" {
		baseline = BaselineType
	}
	benches, types, values, err := metricByBenchType(tbl, metric)
	if err != nil {
		return "", err
	}
	baseSeen := false
	for _, t := range types {
		if t == baseline {
			baseSeen = true
		}
	}
	if !baseSeen {
		return "", fmt.Errorf("core: normalized plot needs baseline type %q in results", baseline)
	}

	var series []plot.Series
	for _, t := range types {
		if t == baseline {
			continue
		}
		vals := make([]float64, 0, len(benches)+1)
		ratios := make([]float64, 0, len(benches))
		for _, b := range benches {
			base := values[[2]string{b, baseline}]
			v := values[[2]string{b, t}]
			r := 1.0 // zero under a zero baseline: no overhead
			switch {
			case base != 0:
				r = v / base
			case v != 0:
				return "", fmt.Errorf("core: baseline %s has zero %s for %s", baseline, metric, b)
			}
			vals = append(vals, r)
			ratios = append(ratios, r)
		}
		gm, err := stats.GeoMean(ratios)
		if err != nil {
			return "", err
		}
		vals = append(vals, gm)
		series = append(series, plot.Series{Name: seriesLabel(t), Values: vals})
	}
	if len(series) == 0 {
		return "", fmt.Errorf("core: normalized plot needs at least one non-baseline type")
	}
	cats := append(append([]string{}, benches...), "All")
	p := plot.GroupedBarPlot{
		Categories: cats,
		Series:     series,
		Opts: plot.Options{
			Title:   title,
			YLabel:  "Normalized runtime (w.r.t. " + seriesLabel(baseline) + ")",
			RefLine: 1.0,
		},
	}
	return p.RenderSVG()
}

// seriesLabel prettifies a build type for legends ("clang_native" →
// "Native (Clang)"), matching the paper's figure labels.
func seriesLabel(buildType string) string {
	switch buildType {
	case "gcc_native":
		return "Native (GCC)"
	case "clang_native":
		return "Native (Clang)"
	case "gcc_asan":
		return "ASan (GCC)"
	case "clang_asan":
		return "ASan (Clang)"
	default:
		return buildType
	}
}

// MemoryOverheadPlot renders max-RSS overhead bars normalized to the
// baseline type.
func MemoryOverheadPlot(tbl *table.Table, baseline, title string) (string, error) {
	return NormalizedPerfPlot(tbl, "max_rss", baseline, title)
}

// ThreadScalingPlot renders the multithreading lineplot: modeled cycles
// versus thread count, one line per (benchmark, build type).
func ThreadScalingPlot(tbl *table.Table, metric, title string) (string, error) {
	if metric == "" {
		metric = "cycles"
	}
	benchCol, err := tbl.Strings("bench")
	if err != nil {
		return "", err
	}
	typeCol, err := tbl.Strings("type")
	if err != nil {
		return "", err
	}
	threads, err := tbl.Floats("threads")
	if err != nil {
		return "", err
	}
	vals, err := tbl.Floats(metric)
	if err != nil {
		return "", err
	}
	type key struct{ bench, btype string }
	pts := map[key][]plot.LinePoint{}
	var order []key
	for i := range benchCol {
		k := key{benchCol[i], typeCol[i]}
		if _, ok := pts[k]; !ok {
			order = append(order, k)
		}
		pts[k] = append(pts[k], plot.LinePoint{X: threads[i], Y: vals[i]})
	}
	var series []plot.LineSeries
	for _, k := range order {
		p := pts[k]
		sort.Slice(p, func(i, j int) bool { return p[i].X < p[j].X })
		series = append(series, plot.LineSeries{
			Name:   k.bench + " " + seriesLabel(k.btype),
			Points: p,
		})
	}
	lp := plot.LinePlot{
		Series:  series,
		Opts:    plot.Options{Title: title, XLabel: "Threads", YLabel: metric},
		Markers: true,
	}
	return lp.RenderSVG()
}

// CacheMissPlot renders the stacked-grouped barplot Table I mentions "for
// complicated statistics such as cache misses at different levels": per
// benchmark, one stack per build type, segments L1D and LLC misses.
func CacheMissPlot(tbl *table.Table, title string) (string, error) {
	benches, types, l1, err := metricByBenchType(tbl, "l1d_misses")
	if err != nil {
		return "", err
	}
	_, _, llc, err := metricByBenchType(tbl, "llc_misses")
	if err != nil {
		return "", err
	}
	var groups []plot.StackGroup
	for _, t := range types {
		l1Vals := make([]float64, len(benches))
		llcVals := make([]float64, len(benches))
		for i, b := range benches {
			l1Vals[i] = l1[[2]string{b, t}]
			llcVals[i] = llc[[2]string{b, t}]
		}
		groups = append(groups, plot.StackGroup{
			Name: seriesLabel(t),
			Series: []plot.Series{
				{Name: "L1D misses", Values: l1Vals},
				{Name: "LLC misses", Values: llcVals},
			},
		})
	}
	p := plot.StackedGroupedBarPlot{
		Categories: benches,
		Groups:     groups,
		Opts:       plot.Options{Title: title, YLabel: "Cache misses"},
	}
	return p.RenderSVG()
}

// ThroughputLatencyPlot renders Figure 7's plot family: achieved
// throughput (x, in 10³ requests/s) versus mean latency (y, ms), one curve
// per build type.
func ThroughputLatencyPlot(tbl *table.Table, title string) (string, error) {
	typeCol, err := tbl.Strings("type")
	if err != nil {
		return "", err
	}
	tput, err := tbl.Floats("throughput")
	if err != nil {
		return "", err
	}
	lat, err := tbl.Floats("latency_ms")
	if err != nil {
		return "", err
	}
	pts := map[string][]plot.LinePoint{}
	var order []string
	for i := range typeCol {
		t := typeCol[i]
		if _, ok := pts[t]; !ok {
			order = append(order, t)
		}
		pts[t] = append(pts[t], plot.LinePoint{X: tput[i] / 1000, Y: lat[i]})
	}
	var series []plot.LineSeries
	for _, t := range order {
		p := pts[t]
		sort.Slice(p, func(i, j int) bool { return p[i].X < p[j].X })
		series = append(series, plot.LineSeries{Name: seriesLabel(t), Points: p})
	}
	lp := plot.LinePlot{
		Series: series,
		Opts: plot.Options{
			Title:  title,
			XLabel: "Throughput (x10^3 msg/s)",
			YLabel: "Latency (ms)",
		},
		Markers: true,
	}
	return lp.RenderSVG()
}
