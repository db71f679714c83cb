package table

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func mustTable(t *testing.T, names []string, kinds []Kind, rows ...[]any) *Table {
	t.Helper()
	b, err := NewBuilder(names, kinds)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := b.Append(r...); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := b.Table()
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func sample(t *testing.T) *Table {
	return mustTable(t,
		[]string{"bench", "type", "cycles"},
		[]Kind{String, String, Float},
		[]any{"fft", "gcc", 100.0},
		[]any{"fft", "clang", 200.0},
		[]any{"lu", "gcc", 50.0},
		[]any{"lu", "clang", 55.0},
	)
}

func TestBuilderSchemaValidation(t *testing.T) {
	if _, err := NewBuilder([]string{"a"}, []Kind{String, Float}); err == nil {
		t.Error("expected error for mismatched schema lengths")
	}
	if _, err := NewBuilder([]string{"a", "a"}, []Kind{String, String}); err == nil {
		t.Error("expected error for duplicate columns")
	}
}

func TestBuilderKindMismatch(t *testing.T) {
	b, _ := NewBuilder([]string{"n"}, []Kind{Float})
	if err := b.Append("not a float"); !errors.Is(err, ErrKindMismatch) {
		t.Errorf("got %v", err)
	}
	if err := b.Append(); err == nil {
		t.Error("expected error for wrong arity")
	}
}

func TestBuilderAcceptsInts(t *testing.T) {
	b, _ := NewBuilder([]string{"n"}, []Kind{Float})
	if err := b.Append(42); err != nil {
		t.Fatal(err)
	}
	tbl, _ := b.Table()
	v, _ := tbl.Floats("n")
	if v[0] != 42 {
		t.Errorf("got %v", v[0])
	}
}

func TestNumRowsCols(t *testing.T) {
	tbl := sample(t)
	if tbl.NumRows() != 4 || len(tbl.Names()) != 3 {
		t.Errorf("rows=%d cols=%d", tbl.NumRows(), len(tbl.Names()))
	}
}

func TestColAccessors(t *testing.T) {
	tbl := sample(t)
	if _, err := tbl.Col("missing"); !errors.Is(err, ErrNoColumn) {
		t.Errorf("got %v", err)
	}
	if _, err := tbl.Strings("cycles"); !errors.Is(err, ErrKindMismatch) {
		t.Errorf("got %v", err)
	}
	if _, err := tbl.Floats("bench"); !errors.Is(err, ErrKindMismatch) {
		t.Errorf("got %v", err)
	}
	s, err := tbl.Strings("bench")
	if err != nil || len(s) != 4 {
		t.Errorf("Strings: %v %v", s, err)
	}
}

func TestReturnedSlicesAreCopies(t *testing.T) {
	tbl := sample(t)
	s, _ := tbl.Strings("bench")
	s[0] = "mutated"
	again, _ := tbl.Strings("bench")
	if again[0] != "fft" {
		t.Error("accessor returned aliased storage")
	}
}

func TestCSVRoundtrip(t *testing.T) {
	tbl := sample(t)
	csv := tbl.CSVString()
	parsed, err := ReadCSV(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	if parsed.CSVString() != csv {
		t.Errorf("roundtrip mismatch:\n%s\nvs\n%s", parsed.CSVString(), csv)
	}
}

// TestReadCSVDefaultsToString checks kind inference: a column is Float
// only when every cell parses as a float.
func TestReadCSVDefaultsToString(t *testing.T) {
	tbl, err := ReadCSV(strings.NewReader("a,b,c\nx,1,2\n3,2.5e3,-Inf\n"))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]Kind{"a": String, "b": Float, "c": Float} {
		if c, err := tbl.Col(name); err != nil || c.Kind != want {
			t.Errorf("column %q: kind %v, %v; want %v", name, c.Kind, err, want)
		}
	}
	if b, _ := tbl.Floats("b"); b[0] != 1 || b[1] != 2500 {
		t.Errorf("b = %v", b)
	}
}

// TestReadCSVBadFloat checks that one cell that is not a float makes its
// column String, every cell kept as written.
func TestReadCSVBadFloat(t *testing.T) {
	tbl, err := ReadCSV(strings.NewReader("a\n1\nnotanumber\n 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := tbl.Strings("a")
	if err != nil || strings.Join(got, "|") != "1|notanumber| 2" {
		t.Errorf("a = %q, %v", got, err)
	}
}

func TestReadCSVEmpty(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Error("expected error for empty csv")
	}
}

func TestNewRejectsDuplicates(t *testing.T) {
	if _, err := New(Column{Name: "a", Kind: Float}, Column{Name: "a", Kind: Float}); err == nil {
		t.Error("expected duplicate column error")
	}
}

func TestNewRejectsLengthMismatch(t *testing.T) {
	_, err := New(
		Column{Name: "a", Kind: Float, Floats: []float64{1}},
		Column{Name: "b", Kind: Float, Floats: []float64{1, 2}},
	)
	if !errors.Is(err, ErrLengthMismatch) {
		t.Errorf("got %v", err)
	}
}

func TestStringRendering(t *testing.T) {
	out := sample(t).String()
	if !strings.Contains(out, "bench") || !strings.Contains(out, "fft") {
		t.Errorf("render missing content:\n%s", out)
	}
}

func TestQuickCSVRoundtrip(t *testing.T) {
	prop := func(vals []float64, tags []bool) bool {
		n := len(vals)
		if n == 0 || n > 50 {
			return true
		}
		b, _ := NewBuilder([]string{"tag", "val"}, []Kind{String, Float})
		for i, v := range vals {
			if v != v || v > 1e300 || v < -1e300 { // NaN/overflow: CSV float formatting edge
				return true
			}
			tag := "a"
			if i < len(tags) && tags[i] {
				tag = "b"
			}
			if err := b.Append(tag, v); err != nil {
				return false
			}
		}
		tbl, err := b.Table()
		if err != nil {
			return false
		}
		parsed, err := ReadCSV(strings.NewReader(tbl.CSVString()))
		if err != nil {
			return false
		}
		return parsed.CSVString() == tbl.CSVString()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
