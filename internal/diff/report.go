package diff

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"fex/internal/core"
	"fex/internal/plot"
	"fex/internal/runlog"
	"fex/internal/table"
)

// ReportSchemaVersion is the JSON report schema; DecodeReport rejects any
// other value, so a report is never misread by tooling built for a
// different schema.
const ReportSchemaVersion = 1

// Options configures a comparison. Zero values select the defaults.
type Options struct {
	// Metric is the per-repetition metric compared (default "wall_ns").
	Metric string
	// Alpha is the significance level of the verdict (default 0.05).
	Alpha float64
	// HigherIsBetter flips the regression direction for rate-like metrics
	// (throughput). The default — false — treats the metric as a cost
	// (time, cycles, misses): a significant increase is a regression.
	HigherIsBetter bool
}

func (o Options) withDefaults() (Options, error) {
	if o.Metric == "" {
		o.Metric = "wall_ns"
	}
	if o.Alpha == 0 {
		o.Alpha = 0.05
	}
	if o.Alpha <= 0 || o.Alpha >= 1 {
		return o, fmt.Errorf("diff: alpha %v out of range (0,1)", o.Alpha)
	}
	return o, nil
}

// Verdict classifies one delta.
type Verdict string

// Verdicts. Indeterminate means a side had fewer than two repetitions, so
// no hypothesis test exists.
const (
	VerdictRegression    Verdict = "regression"
	VerdictImprovement   Verdict = "improvement"
	VerdictNoChange      Verdict = "no-change"
	VerdictIndeterminate Verdict = "indeterminate"
)

// Delta is the statistical comparison of one sample group — one
// (cell, thread count[, input class]) — between baseline and candidate.
type Delta struct {
	Key
	// Threads is this row's thread count (one element of the cell's sweep).
	AtThreads int `json:"at_threads"`
	// InputClass is the input-size class of a variable-input cell's
	// sub-group; nil for standard cells.
	InputClass *float64 `json:"input_class,omitempty"`
	// Stats reuses the analysis machinery's comparison: A summarizes the
	// baseline samples, B the candidate's, Ratio is candidate/baseline.
	Stats core.Comparison `json:"stats"`
	// Speedup is baseline mean / candidate mean: > 1 means the candidate
	// is cheaper on a cost metric.
	Speedup float64 `json:"speedup"`
	// Verdict is the classified outcome at the report's alpha.
	Verdict Verdict `json:"verdict"`
}

// label names the delta in tables and charts.
func (d Delta) label() string {
	s := d.Suite + "/" + d.Benchmark + " [" + d.BuildType + "]"
	if d.AtThreads > 0 {
		s += " m" + strconv.Itoa(d.AtThreads)
	}
	if d.InputClass != nil {
		s += " i" + strconv.FormatFloat(*d.InputClass, 'g', -1, 64)
	}
	return s
}

// UnmatchedCell records a cell present on only one side of the join.
type UnmatchedCell struct {
	Key
	// Fingerprint is the cell's full content address.
	Fingerprint string `json:"fingerprint"`
}

// SourceInfo identifies one side of the comparison.
type SourceInfo struct {
	// Source is the path or label the run set was loaded from.
	Source string `json:"source"`
	// Digest is the run set's content digest (RunSet.Digest).
	Digest string `json:"digest"`
	// Cells is the number of cells in the run set.
	Cells int `json:"cells"`
}

// Report is the full outcome of one cross-run comparison — the canonical
// machine-readable form "fex diff -o" writes and "fex gate" consumes.
type Report struct {
	Schema int `json:"schema"`
	// Metric, Alpha, and HigherIsBetter echo the comparison options.
	Metric         string  `json:"metric"`
	Alpha          float64 `json:"alpha"`
	HigherIsBetter bool    `json:"higher_is_better,omitempty"`
	// Baseline and Candidate identify the compared run sets by content.
	Baseline  SourceInfo `json:"baseline"`
	Candidate SourceInfo `json:"candidate"`
	// Deltas holds one row per compared sample group, in canonical order.
	Deltas []Delta `json:"deltas"`
	// BaselineOnly and CandidateOnly list the unmatched cells.
	BaselineOnly  []UnmatchedCell `json:"baseline_only,omitempty"`
	CandidateOnly []UnmatchedCell `json:"candidate_only,omitempty"`
	// WithoutMetric lists the matched cells whose records carry no sample
	// of the metric on either side (RIPE's attack counts, a throughput–
	// latency sweep under wall_ns): they have nothing to compare.
	WithoutMetric []UnmatchedCell `json:"without_metric,omitempty"`
}

// errNoMetric marks a cell none of whose records carries the metric.
var errNoMetric = errors.New("metric not in any measurement")

// group is one sample set inside a cell: a thread count plus, for
// variable-input cells, the input class.
type group struct {
	threads    int
	hasInput   bool
	inputClass float64
}

// cellSamples extracts the metric's per-repetition samples from a cell
// payload, grouped by (threads[, input_class]). A cell none of whose
// records carries the metric fails with errNoMetric; one where only some
// do is inconsistent and fails outright.
func cellSamples(c Cell, metric string) (map[group][]float64, []group, error) {
	lg, err := runlog.Parse(bytes.NewReader(c.Payload))
	if err != nil {
		return nil, nil, fmt.Errorf("cell %s: %w", c.Fingerprint.Key(), err)
	}
	out := map[group][]float64{}
	var order []group
	var lacking []string // names of the first record without the metric
	missing := 0
	for _, m := range lg.Measurements {
		// Variable-input cells label each sub-measurement with the input
		// class ("histogram:test"); the bare benchmark name is the standard
		// runner's. Anything else contradicts the fingerprint.
		benchOK := m.Benchmark == c.Fingerprint.Benchmark ||
			strings.HasPrefix(m.Benchmark, c.Fingerprint.Benchmark+":")
		if !benchOK || m.BuildType != c.Fingerprint.BuildType {
			return nil, nil, fmt.Errorf("cell %s: payload measurement %s/%s does not match fingerprint %s/%s",
				c.Fingerprint.Key(), m.Benchmark, m.BuildType, c.Fingerprint.Benchmark, c.Fingerprint.BuildType)
		}
		v, ok := m.Values.Get(metric)
		if !ok {
			if missing++; lacking == nil {
				lacking = m.Values.Names()
			}
			continue
		}
		g := group{threads: m.Threads}
		if ic, ok := m.Values.Get("input_class"); ok {
			g.hasInput, g.inputClass = true, ic
		}
		if _, seen := out[g]; !seen {
			order = append(order, g)
		}
		out[g] = append(out[g], v)
	}
	if missing > 0 && missing == len(lg.Measurements) {
		return nil, nil, fmt.Errorf("cell %s: %w: %q (have %v)", c.Fingerprint.Key(), errNoMetric, metric, lacking)
	}
	if missing > 0 {
		return nil, nil, fmt.Errorf("cell %s: metric %q not in %d of %d measurements (have %v)",
			c.Fingerprint.Key(), metric, missing, len(lg.Measurements), lacking)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].threads != order[j].threads {
			return order[i].threads < order[j].threads
		}
		return order[i].inputClass < order[j].inputClass
	})
	return out, order, nil
}

// verdictOf classifies a comparison: the significance rule is
// core.Comparison.Significant — Welch's t-test at alpha AND disjoint
// confidence intervals (exactly-touching intervals overlap, hence "no
// change") — and the direction is the sign of the mean difference under
// the metric's polarity.
func verdictOf(c core.Comparison, alpha float64, higherIsBetter bool) Verdict {
	if c.Test == nil {
		return VerdictIndeterminate
	}
	if !c.Significant(alpha) {
		return VerdictNoChange
	}
	worse := c.B.Mean > c.A.Mean // candidate costs more
	if higherIsBetter {
		worse = c.B.Mean < c.A.Mean
	}
	if worse {
		return VerdictRegression
	}
	return VerdictImprovement
}

// Compare joins two run sets and computes one Delta per joined sample
// group. The confidence level of the per-side intervals is 1 - alpha. A
// matched cell whose records lack the metric on both sides is listed in
// WithoutMetric; if every matched cell lacks it, the metric is unknown to
// the run sets and Compare fails.
func Compare(base, cand *RunSet, opts Options) (*Report, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	join, err := JoinCells(base, cand)
	if err != nil {
		return nil, err
	}
	r := &Report{
		Schema:         ReportSchemaVersion,
		Metric:         opts.Metric,
		Alpha:          opts.Alpha,
		HigherIsBetter: opts.HigherIsBetter,
		Baseline:       SourceInfo{Source: base.Source, Digest: base.Digest(), Cells: len(base.Cells)},
		Candidate:      SourceInfo{Source: cand.Source, Digest: cand.Digest(), Cells: len(cand.Cells)},
	}
	level := 1 - opts.Alpha
	for _, p := range join.Pairs {
		bs, bOrder, err := cellSamples(p.Baseline, opts.Metric)
		cs, _, cerr := cellSamples(p.Candidate, opts.Metric)
		if errors.Is(err, errNoMetric) && errors.Is(cerr, errNoMetric) {
			r.WithoutMetric = append(r.WithoutMetric, UnmatchedCell{Key: p.Key, Fingerprint: p.Baseline.Fingerprint.Key()})
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("diff: baseline %s: %w", p.Key, err)
		}
		if cerr != nil {
			return nil, fmt.Errorf("diff: candidate %s: %w", p.Key, cerr)
		}
		if len(bs) != len(cs) {
			return nil, fmt.Errorf("diff: %s: baseline has %d sample groups, candidate %d", p.Key, len(bs), len(cs))
		}
		for _, g := range bOrder {
			cvals, ok := cs[g]
			if !ok {
				return nil, fmt.Errorf("diff: %s: candidate lacks samples at threads=%d", p.Key, g.threads)
			}
			cmp, err := core.NewComparison(bs[g], cvals, level)
			if err != nil {
				return nil, fmt.Errorf("diff: %s: %w", p.Key, err)
			}
			d := Delta{
				Key:       p.Key,
				AtThreads: g.threads,
				Stats:     cmp,
				Verdict:   verdictOf(cmp, opts.Alpha, opts.HigherIsBetter),
			}
			if g.hasInput {
				ic := g.inputClass
				d.InputClass = &ic
			}
			if cmp.B.Mean != 0 {
				d.Speedup = cmp.A.Mean / cmp.B.Mean
			}
			r.Deltas = append(r.Deltas, d)
		}
	}
	if len(join.Pairs) > 0 && len(r.WithoutMetric) == len(join.Pairs) {
		return nil, fmt.Errorf("diff: metric %q not in any matched cell", opts.Metric)
	}
	for _, c := range join.BaselineOnly {
		r.BaselineOnly = append(r.BaselineOnly, UnmatchedCell{Key: KeyOf(c.Fingerprint), Fingerprint: c.Fingerprint.Key()})
	}
	for _, c := range join.CandidateOnly {
		r.CandidateOnly = append(r.CandidateOnly, UnmatchedCell{Key: KeyOf(c.Fingerprint), Fingerprint: c.Fingerprint.Key()})
	}
	return r, nil
}

// Significant returns the deltas whose verdict is a significant change
// (regression or improvement).
func (r *Report) Significant() []Delta {
	var out []Delta
	for _, d := range r.Deltas {
		if d.Verdict == VerdictRegression || d.Verdict == VerdictImprovement {
			out = append(out, d)
		}
	}
	return out
}

// Table renders the deltas as a result table (one row per delta).
func (r *Report) Table() (*table.Table, error) {
	b, err := table.NewBuilder(
		[]string{"experiment", "suite", "bench", "type", "threads", "input", "base_mean", "cand_mean", "ratio", "speedup", "p", "verdict"},
		[]table.Kind{table.String, table.String, table.String, table.String, table.Float, table.String,
			table.Float, table.Float, table.Float, table.Float, table.Float, table.String},
	)
	if err != nil {
		return nil, err
	}
	for _, d := range r.Deltas {
		input := d.Input
		if d.InputClass != nil {
			input = strconv.FormatFloat(*d.InputClass, 'g', -1, 64)
		}
		p := -1.0 // no hypothesis test (fewer than two repetitions)
		if d.Stats.Test != nil {
			p = d.Stats.Test.P
		}
		if err := b.Append(d.Experiment, d.Suite, d.Benchmark, d.BuildType, d.AtThreads, input,
			d.Stats.A.Mean, d.Stats.B.Mean, d.Stats.Ratio, d.Speedup, p, string(d.Verdict)); err != nil {
			return nil, err
		}
	}
	return b.Table()
}

// AppendText renders the report onto dst through the table's
// zero-allocation text path, followed by the unmatched-cell listing and a
// one-line summary.
func (r *Report) AppendText(dst []byte) ([]byte, error) {
	tbl, err := r.Table()
	if err != nil {
		return dst, err
	}
	dst = append(dst, fmt.Sprintf("diff: %s, alpha=%g\n  baseline  %s (%d cells, %.12s)\n  candidate %s (%d cells, %.12s)\n",
		r.Metric, r.Alpha,
		r.Baseline.Source, r.Baseline.Cells, r.Baseline.Digest,
		r.Candidate.Source, r.Candidate.Cells, r.Candidate.Digest)...)
	dst = tbl.AppendText(dst)
	for _, u := range r.BaselineOnly {
		dst = append(dst, "baseline only: "...)
		dst = append(dst, u.Key.String()...)
		dst = append(dst, '\n')
	}
	for _, u := range r.CandidateOnly {
		dst = append(dst, "candidate only: "...)
		dst = append(dst, u.Key.String()...)
		dst = append(dst, '\n')
	}
	for _, u := range r.WithoutMetric {
		dst = append(dst, "no "+r.Metric+": "...)
		dst = append(dst, u.Key.String()...)
		dst = append(dst, '\n')
	}
	var reg, imp int
	for _, d := range r.Deltas {
		switch d.Verdict {
		case VerdictRegression:
			reg++
		case VerdictImprovement:
			imp++
		}
	}
	dst = append(dst, fmt.Sprintf("%d deltas: %d regressions, %d improvements, %d unmatched\n",
		len(r.Deltas), reg, imp, len(r.BaselineOnly)+len(r.CandidateOnly))...)
	return dst, nil
}

// CSV renders the delta table as CSV bytes through the zero-allocation
// append path.
func (r *Report) CSV() ([]byte, error) {
	tbl, err := r.Table()
	if err != nil {
		return nil, err
	}
	return tbl.AppendCSV(nil), nil
}

// ChartSVG renders the per-delta speedups as a barplot with a reference
// line at 1.0 — bars above the line are candidate improvements on a cost
// metric, bars below are regressions.
func (r *Report) ChartSVG() (string, error) {
	if len(r.Deltas) == 0 {
		return "", fmt.Errorf("diff: no deltas to chart")
	}
	labels := make([]string, len(r.Deltas))
	values := make([]float64, len(r.Deltas))
	for i, d := range r.Deltas {
		labels[i] = d.label()
		values[i] = d.Speedup
	}
	bp := plot.BarPlot{
		Categories: labels,
		Values:     values,
		Opts: plot.Options{
			Title:   fmt.Sprintf("speedup vs baseline (%s)", r.Metric),
			YLabel:  "baseline / candidate",
			RefLine: 1.0,
		},
	}
	return bp.RenderSVG()
}
