package table

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadCSV checks that ReadCSV never panics and that whatever it
// accepts renders to CSV that reads back, kinds inferred again, and
// renders to the same bytes. The seeds are the examples' golden CSVs,
// which AppendCSV wrote, so each must also read back to its own bytes.
func FuzzReadCSV(f *testing.F) {
	corpus := [][]byte{
		[]byte("a,b\nx,1\n"),
		[]byte("a\n\"\"\n"),
		[]byte("n,s\nNaN,\" lead\"\n+Inf,\"q\"\"uote\"\n1e400,\"multi\nline\"\n"),
	}
	goldens, err := filepath.Glob("../../examples/*/testdata/golden/*.csv")
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range goldens {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		tbl, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		if got := tbl.AppendCSV(nil); !bytes.Equal(got, data) {
			f.Errorf("%s does not read back to its own bytes:\n%s", path, got)
		}
		corpus = append(corpus, data)
	}
	for _, data := range corpus {
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tbl, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		out := tbl.AppendCSV(nil)
		again, err := ReadCSV(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("rendered CSV does not read back: %v\n%q", err, out)
		}
		if out2 := again.AppendCSV(nil); !bytes.Equal(out2, out) {
			t.Fatalf("render is not stable:\n%q\nvs\n%q", out, out2)
		}
	})
}
