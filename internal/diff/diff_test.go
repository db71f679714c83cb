package diff

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fex/internal/store"
)

// cellOf synthesizes one stored cell: a fingerprint plus RUN records with
// the given per-thread wall_ns samples.
func cellOf(exp, suite, bench, typ string, threads []int, input string, samples map[int][]float64) Cell {
	var sb strings.Builder
	for _, th := range threads {
		for rep, v := range samples[th] {
			fmt.Fprintf(&sb, "RUN|suite=%s|bench=%s|type=%s|threads=%d|rep=%d|wall_ns=%g\n",
				suite, bench, typ, th, rep, v)
		}
	}
	return Cell{
		Fingerprint: store.Fingerprint{
			Experiment: exp, Suite: suite, Benchmark: bench, BuildType: typ,
			Threads: threads, Reps: "2", Input: input, Tool: "time", ConfigHash: "h",
		},
		Payload: []byte(sb.String()),
	}
}

func runSetOf(t *testing.T, source string, cells ...Cell) *RunSet {
	t.Helper()
	records := make([]store.Record, len(cells))
	for i, c := range cells {
		records[i] = store.Record{Fingerprint: c.Fingerprint, Payload: c.Payload}
	}
	rs, err := NewRunSet(records, source)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestCompareIdenticalRunsHasNoSignificantDeltas(t *testing.T) {
	mk := func(source string) *RunSet {
		return runSetOf(t, source,
			cellOf("micro", "micro", "array_read", "gcc_native", []int{1, 2}, "test",
				map[int][]float64{1: {100, 100}, 2: {60, 60}}),
			cellOf("micro", "micro", "array_read", "gcc_asan", []int{1, 2}, "test",
				map[int][]float64{1: {300, 300}, 2: {180, 180}}),
		)
	}
	base, cand := mk("a"), mk("b")
	if base.Digest() != cand.Digest() {
		t.Fatal("identical run sets must share a digest")
	}
	report, err := Compare(base, cand, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Deltas) != 4 { // 2 cells x 2 thread counts
		t.Fatalf("deltas %d, want 4", len(report.Deltas))
	}
	for _, d := range report.Deltas {
		if d.Verdict != VerdictNoChange {
			t.Errorf("%s: verdict %s, want no-change", d.Key, d.Verdict)
		}
		if d.Speedup != 1 || d.Stats.Ratio != 1 {
			t.Errorf("%s: speedup %v ratio %v, want 1", d.Key, d.Speedup, d.Stats.Ratio)
		}
	}
	if len(report.Significant()) != 0 {
		t.Error("identical runs reported significant deltas")
	}
	if !report.Gate(0).OK() {
		t.Error("gate failed on identical runs")
	}
	// The rendering is a pure function of the report: two comparisons of
	// equal run sets render byte-identically.
	t1, err := report.AppendText(nil)
	if err != nil {
		t.Fatal(err)
	}
	report2, err := Compare(mk("a"), mk("b"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := report2.AppendText(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(t1, t2) {
		t.Error("diff rendering is not deterministic")
	}
}

func TestCompareClassifiesRegressionAndImprovement(t *testing.T) {
	base := runSetOf(t, "base",
		cellOf("micro", "micro", "slower", "gcc_native", []int{1}, "test",
			map[int][]float64{1: {100, 101, 99, 100}}),
		cellOf("micro", "micro", "faster", "gcc_native", []int{1}, "test",
			map[int][]float64{1: {100, 101, 99, 100}}),
	)
	cand := runSetOf(t, "cand",
		cellOf("micro", "micro", "slower", "gcc_native", []int{1}, "test",
			map[int][]float64{1: {200, 201, 199, 200}}),
		cellOf("micro", "micro", "faster", "gcc_native", []int{1}, "test",
			map[int][]float64{1: {50, 51, 49, 50}}),
	)
	report, err := Compare(base, cand, Options{})
	if err != nil {
		t.Fatal(err)
	}
	byBench := map[string]Delta{}
	for _, d := range report.Deltas {
		byBench[d.Benchmark] = d
	}
	if got := byBench["slower"].Verdict; got != VerdictRegression {
		t.Errorf("slower: verdict %s, want regression", got)
	}
	if got := byBench["faster"].Verdict; got != VerdictImprovement {
		t.Errorf("faster: verdict %s, want improvement", got)
	}
	if s := byBench["faster"].Speedup; s < 1.9 || s > 2.1 {
		t.Errorf("faster: speedup %v, want ~2", s)
	}

	// Gate: the regression fails a zero-threshold gate, passes a generous
	// one, and the improvement never fails.
	if g := report.Gate(0); g.OK() || len(g.Regressions) != 1 || g.Regressions[0].Benchmark != "slower" {
		t.Errorf("gate(0): %+v", g)
	}
	if g := report.Gate(150); !g.OK() {
		t.Errorf("gate(150%%) failed on a +100%% regression: %s", g)
	}

	// Polarity flip: under -higher-is-better the same data swaps verdicts.
	flipped, err := Compare(base, cand, Options{HigherIsBetter: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range flipped.Deltas {
		switch d.Benchmark {
		case "slower":
			if d.Verdict != VerdictImprovement {
				t.Errorf("higher-is-better slower: %s", d.Verdict)
			}
		case "faster":
			if d.Verdict != VerdictRegression {
				t.Errorf("higher-is-better faster: %s", d.Verdict)
			}
		}
	}
	if g := flipped.Gate(0); g.OK() {
		t.Error("higher-is-better gate missed the throughput drop")
	}
}

func TestCompareSingleRepIsIndeterminate(t *testing.T) {
	base := runSetOf(t, "base", cellOf("e", "s", "b", "t", []int{1}, "i", map[int][]float64{1: {100}}))
	cand := runSetOf(t, "cand", cellOf("e", "s", "b", "t", []int{1}, "i", map[int][]float64{1: {900}}))
	report, err := Compare(base, cand, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if report.Deltas[0].Verdict != VerdictIndeterminate {
		t.Errorf("verdict %s, want indeterminate without a t-test", report.Deltas[0].Verdict)
	}
	// A 9x difference with one rep must not fail the gate: there is no
	// statistical evidence, only a point estimate.
	if !report.Gate(0).OK() {
		t.Error("gate failed on an indeterminate delta")
	}
	csv, err := report.CSV()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(csv), ",-1,indeterminate") {
		t.Errorf("csv missing p=-1 sentinel for untested delta:\n%s", csv)
	}
}

func TestJoinReportsUnmatchedCells(t *testing.T) {
	shared := cellOf("e", "s", "both", "t", []int{1}, "i", map[int][]float64{1: {1, 1}})
	baseOnly := cellOf("e", "s", "only_base", "t", []int{1}, "i", map[int][]float64{1: {1, 1}})
	candOnly := cellOf("e", "s", "only_cand", "t", []int{1}, "i", map[int][]float64{1: {1, 1}})
	base := runSetOf(t, "base", shared, baseOnly)
	cand := runSetOf(t, "cand", shared, candOnly)
	j, err := JoinCells(base, cand)
	if err != nil {
		t.Fatal(err)
	}
	if len(j.Pairs) != 1 || len(j.BaselineOnly) != 1 || len(j.CandidateOnly) != 1 {
		t.Fatalf("join: %d pairs, %d base-only, %d cand-only", len(j.Pairs), len(j.BaselineOnly), len(j.CandidateOnly))
	}
	if got := j.BaselineOnly[0].Fingerprint.Benchmark; got != "only_base" {
		t.Errorf("baseline-only %q", got)
	}
	report, err := Compare(base, cand, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.BaselineOnly) != 1 || len(report.CandidateOnly) != 1 {
		t.Fatal("report dropped unmatched cells")
	}
	text, err := report.AppendText(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(text), "baseline only: e/s/only_base [t]") ||
		!strings.Contains(string(text), "candidate only: e/s/only_cand [t]") {
		t.Errorf("rendering lacks unmatched cells:\n%s", text)
	}
	// A coverage gap is a warning, not a gate failure.
	if g := report.Gate(0); !g.OK() || g.BaselineOnly != 1 {
		t.Errorf("gate on coverage gap: %+v", g)
	}
}

func TestJoinRejectsAmbiguousCells(t *testing.T) {
	a := cellOf("e", "s", "b", "t", []int{1}, "i", map[int][]float64{1: {1}})
	b := a
	b.Fingerprint.Reps = "4" // distinct fingerprint, same join key
	if a.Fingerprint.Key() == b.Fingerprint.Key() {
		t.Fatal("test setup: fingerprints must differ")
	}
	base := runSetOf(t, "base", a, b)
	cand := runSetOf(t, "cand", a)
	if _, err := JoinCells(base, cand); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("ambiguous join not rejected: %v", err)
	}
}

func TestNewRunSetRejectsDuplicateRecords(t *testing.T) {
	c := cellOf("e", "s", "b", "t", []int{1}, "i", map[int][]float64{1: {1}})
	if _, err := NewRunSet([]store.Record{
		{Fingerprint: c.Fingerprint, Payload: c.Payload},
		{Fingerprint: c.Fingerprint, Payload: c.Payload},
	}, "x"); err == nil {
		t.Error("duplicate fingerprints accepted")
	}
}

func TestWriteDirLoadDirRoundTrip(t *testing.T) {
	rs := runSetOf(t, "orig",
		cellOf("e", "s", "b1", "t", []int{1, 2}, "i", map[int][]float64{1: {1, 2}, 2: {3, 4}}),
		cellOf("e", "s", "b2", "t", []int{1, 2}, "i", map[int][]float64{1: {5, 6}, 2: {7, 8}}),
	)
	dir := t.TempDir()
	if err := WriteDir(rs, dir); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Digest() != rs.Digest() {
		t.Error("export/load round trip changed the run-set digest")
	}
	if len(back.Cells) != len(rs.Cells) {
		t.Fatalf("cells %d, want %d", len(back.Cells), len(rs.Cells))
	}
}

func TestLoadDirRejectsTamperedFiles(t *testing.T) {
	rs := runSetOf(t, "orig", cellOf("e", "s", "b", "t", []int{1}, "i", map[int][]float64{1: {1}}))
	dir := t.TempDir()
	if err := WriteDir(rs, dir); err != nil {
		t.Fatal(err)
	}
	var recordPath string
	_ = filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			recordPath = p
		}
		return nil
	})
	// A renamed record no longer matches its content address.
	moved := filepath.Join(filepath.Dir(recordPath), strings.Repeat("ab", 32))
	if err := os.Rename(recordPath, moved); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDir(dir); err == nil || !strings.Contains(err.Error(), "does not match file name") {
		t.Errorf("renamed record accepted: %v", err)
	}
	// Corrupt bytes fail the store codec.
	if err := os.WriteFile(moved, []byte("not a record"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDir(dir); err == nil || !errors.Is(err, store.ErrCorrupt) {
		t.Errorf("corrupt record accepted: %v", err)
	}
	// An empty directory is not a run set.
	if _, err := LoadDir(t.TempDir()); err == nil {
		t.Error("empty directory accepted as a run set")
	}
}

// TestWriteDirRefusesUnsafeTargets pins the export guards: an existing
// regular file must never be replaced (a typo'd -o would destroy it), a
// non-empty directory must never be mixed into, and an interrupted
// export leaves no stage directory behind a successful retry.
func TestWriteDirRefusesUnsafeTargets(t *testing.T) {
	rs := runSetOf(t, "rs", cellOf("e", "s", "b", "t", []int{1}, "i", map[int][]float64{1: {1}}))
	dir := t.TempDir()

	// Target is an existing regular file.
	file := filepath.Join(dir, "README.md")
	if err := os.WriteFile(file, []byte("precious"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteDir(rs, file); err == nil || !strings.Contains(err.Error(), "not a directory") {
		t.Errorf("export onto a file: %v", err)
	}
	if data, err := os.ReadFile(file); err != nil || string(data) != "precious" {
		t.Fatalf("export destroyed the target file: %q, %v", data, err)
	}

	// Fresh target: works, and leaves no stage directory.
	target := filepath.Join(dir, "base")
	if err := WriteDir(rs, target); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(target + ".fex-export-stage"); err == nil {
		t.Error("stage directory left behind")
	}

	// Re-export over the now-populated target is refused.
	if err := WriteDir(rs, target); err == nil || !strings.Contains(err.Error(), "not empty") {
		t.Errorf("re-export over populated target: %v", err)
	}
	// An existing but EMPTY directory target is fine.
	empty := filepath.Join(dir, "empty")
	if err := os.MkdirAll(empty, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteDir(rs, empty); err != nil {
		t.Errorf("export into empty existing directory: %v", err)
	}
}

func TestCompareVariableInputCellsGroupByInputClass(t *testing.T) {
	// The variable-input runner labels each sub-measurement with the input
	// class ("b:small"), as the real cells do.
	mkCell := func(v1, v2 float64) Cell {
		payload := "" +
			fmt.Sprintf("RUN|suite=s|bench=b:small|type=t|threads=1|rep=0|input_class=1|wall_ns=%g\n", v1) +
			fmt.Sprintf("RUN|suite=s|bench=b:small|type=t|threads=1|rep=1|input_class=1|wall_ns=%g\n", v1) +
			fmt.Sprintf("RUN|suite=s|bench=b:native|type=t|threads=1|rep=0|input_class=2|wall_ns=%g\n", v2) +
			fmt.Sprintf("RUN|suite=s|bench=b:native|type=t|threads=1|rep=1|input_class=2|wall_ns=%g\n", v2)
		return Cell{
			Fingerprint: store.Fingerprint{
				Experiment: "e", Suite: "s", Benchmark: "b", BuildType: "t",
				Threads: []int{1}, Reps: "2", Dims: "inputs=1,2", ConfigHash: "h",
			},
			Payload: []byte(payload),
		}
	}
	base := runSetOf(t, "base", mkCell(100, 200))
	cand := runSetOf(t, "cand", mkCell(100, 400)) // class 2 regresses
	report, err := Compare(base, cand, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Deltas) != 2 {
		t.Fatalf("deltas %d, want one per input class", len(report.Deltas))
	}
	if report.Deltas[0].InputClass == nil || *report.Deltas[0].InputClass != 1 ||
		report.Deltas[0].Verdict != VerdictNoChange {
		t.Errorf("class 1 delta: %+v", report.Deltas[0])
	}
	if report.Deltas[1].InputClass == nil || *report.Deltas[1].InputClass != 2 ||
		report.Deltas[1].Verdict != VerdictRegression {
		t.Errorf("class 2 delta: %+v", report.Deltas[1])
	}
}

// TestCompareListsCellsWithoutMetric joins a suite cell with a cell
// whose records carry other metrics (RIPE's attack counts): the first
// yields a delta, the second is listed, not an error. A cell where only
// some records carry the metric stays an error.
func TestCompareListsCellsWithoutMetric(t *testing.T) {
	ripe := Cell{
		Fingerprint: store.Fingerprint{Experiment: "ripe", Suite: "security", Benchmark: "ripe", BuildType: "t",
			Threads: []int{1}, Reps: "1", ConfigHash: "h"},
		Payload: []byte("RUN|suite=security|bench=ripe|type=t|threads=1|rep=0|successful=3|failed=5\n"),
	}
	suite := cellOf("e", "s", "b", "t", []int{1}, "i", map[int][]float64{1: {1, 2}})
	rs := runSetOf(t, "a", ripe, suite)
	report, err := Compare(rs, rs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Deltas) != 1 || len(report.WithoutMetric) != 1 || report.WithoutMetric[0].Benchmark != "ripe" {
		t.Fatalf("%d deltas, without metric %+v", len(report.Deltas), report.WithoutMetric)
	}
	text, err := report.AppendText(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(text), "no wall_ns: ripe/security/ripe [t]") {
		t.Errorf("text report does not list the cell without wall_ns:\n%s", text)
	}
	mixed := suite
	mixed.Payload = append([]byte("RUN|suite=s|bench=b|type=t|threads=1|rep=2|cycles=1\n"), suite.Payload...)
	if _, err := Compare(rs, runSetOf(t, "b", ripe, mixed), Options{}); err == nil {
		t.Error("cell with the metric on only some records accepted")
	}
}

func TestCompareErrors(t *testing.T) {
	good := cellOf("e", "s", "b", "t", []int{1}, "i", map[int][]float64{1: {1, 2}})
	base := runSetOf(t, "base", good)

	// Metric absent from the records.
	if _, err := Compare(base, runSetOf(t, "cand", good), Options{Metric: "no_such"}); err == nil {
		t.Error("missing metric accepted")
	}
	// Alpha out of range.
	if _, err := Compare(base, runSetOf(t, "cand", good), Options{Alpha: 2}); err == nil {
		t.Error("alpha 2 accepted")
	}
	// Payload contradicting its fingerprint.
	lying := good
	lying.Payload = []byte("RUN|suite=s|bench=OTHER|type=t|threads=1|rep=0|wall_ns=1\n")
	if _, err := Compare(base, runSetOf(t, "cand", lying), Options{}); err == nil {
		t.Error("payload/fingerprint mismatch accepted")
	}
	// Unparsable payload.
	broken := good
	broken.Payload = []byte("garbage\n")
	if _, err := Compare(base, runSetOf(t, "cand", broken), Options{}); err == nil {
		t.Error("unparsable payload accepted")
	}
	// Thread-group mismatch between the sides.
	narrower := cellOf("e", "s", "b", "t", []int{1}, "i", map[int][]float64{1: {1, 2}})
	narrower.Payload = []byte("RUN|suite=s|bench=b|type=t|threads=7|rep=0|wall_ns=1\nRUN|suite=s|bench=b|type=t|threads=7|rep=1|wall_ns=2\n")
	if _, err := Compare(base, runSetOf(t, "cand", narrower), Options{}); err == nil {
		t.Error("mismatched sample groups accepted")
	}
}

func TestChartSVG(t *testing.T) {
	base := runSetOf(t, "base", cellOf("e", "s", "b", "t", []int{1}, "i", map[int][]float64{1: {100, 100}}))
	cand := runSetOf(t, "cand", cellOf("e", "s", "b", "t", []int{1}, "i", map[int][]float64{1: {50, 50}}))
	report, err := Compare(base, cand, Options{})
	if err != nil {
		t.Fatal(err)
	}
	svg, err := report.ChartSVG()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg, "<svg") || !strings.Contains(svg, "speedup vs baseline") {
		t.Error("chart is not the expected SVG")
	}
	empty := &Report{Schema: ReportSchemaVersion, Metric: "wall_ns", Alpha: 0.05}
	if _, err := empty.ChartSVG(); err == nil {
		t.Error("empty report charted")
	}
}
