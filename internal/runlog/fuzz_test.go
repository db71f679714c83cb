package runlog

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// reserialize writes a parsed log back out through the Writer API.
func reserialize(t *testing.T, lg *Log) string {
	t.Helper()
	var sb strings.Builder
	w := NewWriter(&sb)
	if lg.Header.Experiment != "" {
		w.WriteHeader(lg.Header)
	}
	w.WriteEnv(lg.Environment)
	for _, m := range lg.Measurements {
		w.WriteMeasurement(m)
	}
	for _, n := range lg.Notes {
		w.WriteNote(n.Text)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// FuzzParseRoundTrip feeds arbitrary bytes to Parse. Whatever parses
// successfully must survive a serialize→reparse round trip with identical
// structured content — the property the cluster tier depends on when it
// ships shard logs across hosts and re-parses them on the coordinator.
// Records the parser rejects must fail with an error, never panic.
func FuzzParseRoundTrip(f *testing.F) {
	f.Add("HDR|experiment=splash|types=gcc_native,clang_native|benchmarks=fft,lu|threads=1,2|reps=3|input=test|started=2017-06-26T12:00:00Z\n" +
		"ENV|LC_ALL=C\n" +
		"RUN|suite=splash|bench=fft|type=gcc_native|threads=2|rep=0|cycles=12345.5|wall_ns=99\n" +
		"NOTE|dry run splash/fft [gcc_native]\n")
	f.Add("RUN|suite=phoenix|bench=histogram|type=gcc_asan|threads=1|rep=4|max_rss=1e+09\n")
	f.Add("NOTE|skipped splash/lu [clang_native]\n")
	f.Add("ENV|PATH=/usr/bin|with|pipes\n")
	f.Add("HDR|experiment=x\nRUN|bench=y|type=z\n")
	f.Add("")
	f.Add("BOGUS|kind\n")
	f.Add("RUN|bench=a|type=b|metric=notanumber\n")
	f.Add("HDR|experiment=a|threads=1,,2\n")
	f.Add("RUN|bench=a|type=b|rep=-1|threads=0\n")

	f.Fuzz(func(t *testing.T, input string) {
		lg, err := Parse(strings.NewReader(input))
		if err != nil {
			return // rejected input: fine, as long as Parse didn't panic
		}
		text := reserialize(t, lg)
		lg2, err := Parse(strings.NewReader(text))
		if err != nil {
			t.Fatalf("reserialized log failed to parse: %v\n--- input ---\n%q\n--- reserialized ---\n%q", err, input, text)
		}
		// The reserialized form is canonical, so compare structured content,
		// not bytes: a second round trip must be a fixed point. NaN metric
		// values serialize stably but break DeepEqual (NaN != NaN); the
		// fixed-point check below still covers them.
		nan := false
		for _, m := range lg.Measurements {
			for i := 0; i < m.Values.Len(); i++ {
				if _, v := m.Values.At(i); v != v {
					nan = true
				}
			}
		}
		if !nan && !reflect.DeepEqual(lg.Measurements, lg2.Measurements) {
			t.Fatalf("measurements changed across round trip:\n%#v\nvs\n%#v", lg.Measurements, lg2.Measurements)
		}
		if !reflect.DeepEqual(lg.Notes, lg2.Notes) {
			t.Fatalf("notes changed across round trip:\n%#v\nvs\n%#v", lg.Notes, lg2.Notes)
		}
		if lg.Header.Experiment != lg2.Header.Experiment || lg.Header.Reps != lg2.Header.Reps {
			t.Fatalf("header changed across round trip: %#v vs %#v", lg.Header, lg2.Header)
		}
		text2 := reserialize(t, lg2)
		if text != text2 {
			t.Fatalf("canonical form is not a fixed point:\n%q\nvs\n%q", text, text2)
		}
	})
}

// sameLog reports whether two parsed logs hold the same records; NaN
// metric values compare equal to NaN.
func sameLog(a, b *Log) bool {
	if !reflect.DeepEqual(a.Header, b.Header) || !reflect.DeepEqual(a.Environment, b.Environment) ||
		!reflect.DeepEqual(a.Notes, b.Notes) || len(a.Measurements) != len(b.Measurements) {
		return false
	}
	for i, m := range a.Measurements {
		o := b.Measurements[i]
		if m.Suite != o.Suite || m.Benchmark != o.Benchmark || m.BuildType != o.BuildType ||
			m.Threads != o.Threads || m.Rep != o.Rep || m.Values.Len() != o.Values.Len() {
			return false
		}
		for j := 0; j < m.Values.Len(); j++ {
			n1, v1 := m.Values.At(j)
			n2, v2 := o.Values.At(j)
			if n1 != n2 || (v1 != v2 && !(math.IsNaN(v1) && math.IsNaN(v2))) {
				return false
			}
		}
	}
	return true
}

// rawShard returns a shard holding text without a parse.
func rawShard(text string) *Shard { return &Shard{text: text} }

// writeDirect re-emits one log line through the Writer's record methods,
// as a runner writing to the run log does. It reports false for a line
// those methods cannot produce (one that does not parse on its own).
func writeDirect(w *Writer, line string) bool {
	lg := &Log{}
	if line == "" || lg.parseLine(line) != nil {
		return false
	}
	switch {
	case lg.Header.Experiment != "":
		w.WriteHeader(lg.Header)
	case len(lg.Environment) == 1:
		w.WriteEnv(lg.Environment)
	case len(lg.Measurements) == 1:
		w.WriteMeasurement(lg.Measurements[0])
	default:
		w.WriteNote(lg.Notes[0].Text)
	}
	return true
}

// FuzzParseSegments checks the run writer's parsed view against Parse of
// the text the writer produced. The input log is cut at line boundaries
// into segments, and plan picks how each one reaches the writer: as a
// shard carrying its parse (ParseShard), as an unparsed shard, or
// written record by record; some shards are appended twice in a row (an
// in-run duplicate) and nil shards are interleaved. Whatever the mix,
// Log must return exactly what Parse returns for the final text,
// including the error and the line it names.
func FuzzParseSegments(f *testing.F) {
	corpus := []string{
		"HDR|experiment=splash|types=gcc_native,clang_native|benchmarks=fft,lu|threads=1,2|reps=3|input=test|started=2017-06-26T12:00:00Z\n" +
			"ENV|LC_ALL=C\n" +
			"RUN|suite=splash|bench=fft|type=gcc_native|threads=2|rep=0|cycles=12345.5|wall_ns=99\n" +
			"NOTE|dry run splash/fft [gcc_native]\n",
		"RUN|suite=phoenix|bench=histogram|type=gcc_asan|threads=1|rep=4|max_rss=1e+09\n",
		"ENV|PATH=/usr/bin|with|pipes\n\n\r\nNOTE|x\n",
		"HDR|experiment=x\nRUN|bench=y|type=z\nHDR|experiment=w|started=2017-06-26T12:00:00+02:00\n",
		"NOTE|ok\nBOGUS|kind\nNOTE|after\n",
		"RUN|bench=a|type=b|metric=NaN\nRUN|bench=a|type=b|metric=notanumber\n",
	}
	logs, err := filepath.Glob("../../examples/*/testdata/golden/*.log")
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range logs {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		corpus = append(corpus, string(data))
	}
	for i, text := range corpus {
		f.Add(text, []byte{0}) // one line at a time, each a parsed shard
		f.Add(text, []byte{byte(i), 0x00, 0x35, 0x1a, 0xff, 0x42, byte(7 * i)})
	}

	f.Fuzz(func(t *testing.T, input string, plan []byte) {
		if len(plan) == 0 {
			plan = []byte{0}
		}
		if input != "" && !strings.HasSuffix(input, "\n") {
			input += "\n" // every segment a writer produces ends in one
		}
		lines := strings.SplitAfter(input, "\n")
		var out strings.Builder
		w := NewRunWriter(&out)
		for k := 0; len(lines) > 0 && lines[0] != ""; k++ {
			b := plan[k%len(plan)]
			n := min(1+int(b%4), len(lines))
			seg := strings.Join(lines[:n], "")
			lines = lines[n:]
			if b&0x20 != 0 {
				if err := w.Append(nil); err != nil {
					t.Fatal(err)
				}
			}
			var shard *Shard
			switch (b >> 2) % 3 {
			case 0:
				shard, _ = ParseShard(seg) // nil when seg does not parse
			case 2:
				for _, line := range strings.SplitAfter(seg, "\n") {
					// A line no record method writes goes in as it is.
					if line != "" && !writeDirect(w, strings.TrimSuffix(line, "\n")) {
						if err := w.Append(rawShard(line)); err != nil {
							t.Fatal(err)
						}
					}
				}
				continue
			}
			if shard == nil {
				shard = rawShard(seg)
			}
			copies := 1 + int(b>>4&1)
			for c := 0; c < copies; c++ {
				if err := w.Append(shard); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		want, wantErr := Parse(strings.NewReader(out.String()))
		got, gotErr := w.Log()
		if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
			t.Fatalf("view error %v, Parse error %v\n--- text ---\n%q", gotErr, wantErr, out.String())
		}
		if wantErr == nil && !sameLog(got, want) {
			t.Fatalf("view differs from Parse of the final text:\n%#v\nvs\n%#v\n--- text ---\n%q", got, want, out.String())
		}
	})
}
