package diff

import (
	"math"
	"strings"
	"testing"

	"fex/internal/store"
	"fex/internal/vfs"
)

// TestFromStoreMatchesDirExport pins that a run set loaded straight from
// a live result store is content-identical to the same cells round-
// tripped through a directory export.
func TestFromStoreMatchesDirExport(t *testing.T) {
	cells := []Cell{
		cellOf("e", "s", "b1", "t", []int{1}, "i", map[int][]float64{1: {1, 2}}),
		cellOf("e", "s", "b2", "t", []int{1}, "i", map[int][]float64{1: {3, 4}}),
	}
	st := store.New(vfs.New(), "/fex/store")
	for _, c := range cells {
		if err := st.Put(c.Fingerprint, c.Payload); err != nil {
			t.Fatal(err)
		}
	}
	fromStore, err := FromStore(st, "state")
	if err != nil {
		t.Fatal(err)
	}
	if fromStore.Source != "state" || len(fromStore.Cells) != 2 {
		t.Fatalf("run set: %q, %d cells", fromStore.Source, len(fromStore.Cells))
	}
	dir := t.TempDir()
	if err := WriteDir(fromStore, dir); err != nil {
		t.Fatal(err)
	}
	fromDir, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if fromDir.Digest() != fromStore.Digest() {
		t.Error("store-loaded and dir-loaded run sets differ")
	}
	// An empty store is not a comparable run set but loads cleanly.
	empty, err := FromStore(store.New(vfs.New(), "/fex/store"), "empty")
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.Cells) != 0 {
		t.Error("empty store produced cells")
	}
}

// TestGateResultRendering covers the CI-facing verdict strings and the
// public regression-percentage accessor.
func TestGateResultRendering(t *testing.T) {
	base := runSetOf(t, "base",
		cellOf("e", "s", "ok", "t", []int{1}, "i", map[int][]float64{1: {100, 100.1, 99.9, 100}}),
		cellOf("e", "s", "bad", "t", []int{1}, "i", map[int][]float64{1: {100, 100.1, 99.9, 100}}),
		cellOf("e", "s", "gone", "t", []int{1}, "i", map[int][]float64{1: {1, 1}}),
	)
	cand := runSetOf(t, "cand",
		cellOf("e", "s", "ok", "t", []int{1}, "i", map[int][]float64{1: {100, 100.1, 99.9, 100}}),
		cellOf("e", "s", "bad", "t", []int{1}, "i", map[int][]float64{1: {150, 150.1, 149.9, 150}}),
	)
	report, err := Compare(base, cand, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fail := report.Gate(0)
	if fail.OK() {
		t.Fatal("gate missed the regression")
	}
	s := fail.String()
	if !strings.Contains(s, "FAIL") || !strings.Contains(s, "s/bad [t] m1") || !strings.Contains(s, "+50.00%") {
		t.Errorf("failure rendering: %s", s)
	}
	if pct := fail.Regressions[0].regressionPct(false); math.Abs(pct-50) > 0.01 {
		t.Errorf("regressionPct %v, want ~50", pct)
	}
	pass := report.Gate(60)
	if !pass.OK() {
		t.Fatal("60% gate failed")
	}
	ps := pass.String()
	if !strings.Contains(ps, "OK") || !strings.Contains(ps, "1 baseline cells unmatched") {
		t.Errorf("pass rendering must mention the coverage gap: %s", ps)
	}
}

// TestRunSetOrderingAndKeyString pins the canonical delta order — keys
// sort field by field — and the key rendering used in listings.
func TestRunSetOrderingAndKeyString(t *testing.T) {
	samples := map[int][]float64{1: {1, 1}}
	cells := []Cell{
		cellOf("e2", "s", "b", "t", []int{1}, "i", samples),
		cellOf("e1", "z", "b", "t", []int{1}, "i", samples),
		cellOf("e1", "s", "b", "u", []int{1}, "i", samples),
		cellOf("e1", "s", "b", "t", []int{1}, "z", samples),
		cellOf("e1", "s", "b", "t", []int{1}, "i", samples),
		cellOf("e1", "s", "a", "t", []int{1}, "i", samples),
	}
	rs := runSetOf(t, "rs", cells...)
	report, err := Compare(rs, rs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range report.Deltas {
		got = append(got, d.Key.String())
	}
	want := []string{
		"e1/s/a [t] m=1 i=i",
		"e1/s/b [t] m=1 i=i",
		"e1/s/b [t] m=1 i=z",
		"e1/s/b [u] m=1 i=i",
		"e1/z/b [t] m=1 i=i",
		"e2/s/b [t] m=1 i=i",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("delta order:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	withDims := KeyOf(store.Fingerprint{Experiment: "e", Suite: "s", Benchmark: "b", BuildType: "t", Threads: []int{1, 2}, Dims: "inputs=1,2"})
	if s := withDims.String(); !strings.Contains(s, "m=1,2") || !strings.Contains(s, "dims=inputs=1,2") {
		t.Errorf("key rendering: %s", s)
	}
}

// TestClampFinite pins the JSON-safety clamp of the infinite t statistic
// a zero-variance exact difference produces.
func TestClampFinite(t *testing.T) {
	base := runSetOf(t, "base", cellOf("e", "s", "b", "t", []int{1}, "i", map[int][]float64{1: {100, 100}}))
	cand := runSetOf(t, "cand", cellOf("e", "s", "b", "t", []int{1}, "i", map[int][]float64{1: {200, 200}}))
	report, err := Compare(base, cand, Options{})
	if err != nil {
		t.Fatal(err)
	}
	test := report.Deltas[0].Stats.Test
	if test.P != 0 {
		t.Errorf("zero-variance exact difference: p=%v, want 0", test.P)
	}
	if math.IsInf(test.T, 0) || math.Abs(test.T) != math.MaxFloat64 {
		t.Errorf("t statistic %v not clamped to ±MaxFloat64", test.T)
	}
	// The clamped report must encode (json.Marshal rejects Inf).
	if _, err := EncodeReport(report); err != nil {
		t.Errorf("report with clamped t does not encode: %v", err)
	}
	// The reverse direction clamps to the other side.
	reversed, err := Compare(cand, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rt := reversed.Deltas[0].Stats.Test.T; math.Abs(rt) != math.MaxFloat64 || rt == test.T {
		t.Errorf("reversed t statistic %v not clamped to the opposite extreme of %v", rt, test.T)
	}
}
