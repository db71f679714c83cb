package store

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// shardLine is one measurement line of a stored splash/lu cell, as
// `fex run -n splash -t gcc_native -b lu -i test` writes it, with its rep
// number as the format verb.
const shardLine = "RUN|suite=splash|bench=lu|type=gcc_native|threads=%d|rep=%d|branch_misses=0|checksum=1.748720998143758e+15|cycles=29597.92|instructions=22724|ipc=0.7677566531702228|wall_ns=11383\n"

// repShard returns the payload of a cell measured reps times at each
// thread count: one line per (thread count, repetition), as a run writes
// it.
func repShard(reps int, threads ...int) []byte {
	var sb strings.Builder
	for _, th := range threads {
		for rep := 0; rep < reps; rep++ {
			fmt.Fprintf(&sb, shardLine, th, rep)
		}
	}
	return []byte(sb.String())
}

// TestFoldRoundTrip stores payloads through the store's fold and reads
// them back through both the store-hit path and Decode: every payload
// comes back byte for byte, a payload folds exactly when it holds a run,
// and an unfolded record is byte for byte what Encode renders.
func TestFoldRoundTrip(t *testing.T) {
	c := NewCell(testFingerprint())
	for _, tc := range []struct {
		name    string
		payload string
		// runs is the payload's run table, "" when nothing folds.
		runs string
	}{
		{"empty", "", ""},
		{"one line", "RUN|x|rep=0|v=1\n", ""},
		{"no rep field", "RUN|x|v=1\nRUN|x|v=1\n", ""},
		{"rep at line start", "rep=0\nrep=1\n", ""},
		{"two reps", "RUN|x|rep=0|v=1\nRUN|x|rep=1|v=1\n", "0+1"},
		{"rep=9 to rep=10", "RUN|rep=8|v\nRUN|rep=9|v\nRUN|rep=10|v\nRUN|rep=11|v\n", "0+3"},
		{"rep ends the line", "a|rep=0\na|rep=1\na|rep=2\n", "0+2"},
		{"leading zero head", "a|rep=07|v\na|rep=8|v\n", "0+1"},
		{"leading zero follower", "a|rep=7|v\na|rep=08|v\n", ""},
		{"rep skips", "a|rep=0|v\na|rep=2|v\n", ""},
		{"rep repeats", "a|rep=0|v\na|rep=0|v\n", ""},
		{"value differs", "a|rep=0|v=1\na|rep=1|v=2\na|rep=2|v=2\n", "1+1"},
		{"missing final newline", "a|rep=0|v\na|rep=1|v\na|rep=2|v", "0+1"},
		{"only final line lacks newline", "a|rep=0|v\na|rep=1|v", ""},
		{"second rep field", "a|rep=x|rep=0\na|rep=x|rep=1\n", ""},
		{"18-digit rep", "a|rep=999999999999999998|v\na|rep=999999999999999999|v\n", "0+1"},
		{"19-digit rep", "a|rep=1000000000000000000|v\na|rep=1000000000000000001|v\n", ""},
		{"runs between literals", "NOTE|x\na|rep=0\na|rep=1\nNOTE|y\nb|rep=0\nb|rep=1\nb|rep=2\nNOTE|z", "1+1,3+2"},
		{"binary", "\x00|rep=0\xff\n\x00|rep=1\xff\n\n\n", "0+1"},
		{"-r 40, two thread counts", string(repShard(40, 1, 2)), "0+39,1+39"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			payload := []byte(tc.payload)
			stored := encodeStored(c.header, payload)
			var runs []string
			for _, r := range foldRuns(payload, nil) {
				runs = append(runs, fmt.Sprintf("%d+%d", r.line, r.more))
			}
			if got := strings.Join(runs, ","); got != tc.runs {
				t.Errorf("runs %q, want %q", got, tc.runs)
			}
			unfolded := Encode(Record{Fingerprint: c.Fingerprint, Payload: payload})
			if tc.runs == "" && !bytes.Equal(stored, unfolded) {
				t.Errorf("a payload without a run is not stored as Encode renders it:\n%q", stored)
			}
			if tc.runs != "" && !bytes.Contains(stored, []byte("\nFOLD|")) {
				t.Errorf("a payload with runs is not stored folded:\n%q", stored)
			}
			got, err := verifyRecord(stored, c)
			if err != nil || !bytes.Equal(got, payload) {
				t.Errorf("store hit: %q, %v; want %q", got, err, payload)
			}
			if _, ok := exactPayload(stored, c.header); !ok {
				t.Error("the stored record failed the byte comparison")
			}
			rec, err := Decode(stored)
			if err != nil || !bytes.Equal(rec.Payload, payload) {
				t.Fatalf("Decode: %q, %v; want %q", rec.Payload, err, payload)
			}
			if re := Encode(rec); !bytes.Equal(re, unfolded) {
				t.Errorf("Encode of the decoded record is not the unfolded record:\n%q", re)
			}
		})
	}
}

// TestDecodeRejectsNonCanonicalFold hands Decode and the store-hit path
// FOLD records that are not the store's fold of their payload: each must
// be ErrCorrupt on both paths, so every accepted record has one rendering.
func TestDecodeRejectsNonCanonicalFold(t *testing.T) {
	c := NewCell(testFingerprint())
	rec := func(tag, body string) []byte {
		return append(append(append([]byte(nil), c.header...), tag+"\n"...), body...)
	}
	fold := func(table, body string) []byte {
		return rec(fmt.Sprintf("FOLD|%d|%s", len(body), table), body)
	}
	run := "a|rep=0|v\n"
	for name, data := range map[string][]byte{
		"count zero":                 fold("0+0", run),
		"count with leading zero":    fold("0+01", run),
		"negative count":             fold("0+-1", run),
		"nothing folded":             fold("", run),
		"no run table":               rec(fmt.Sprintf("FOLD|%d", len(run)), run),
		"trailing comma":             fold("0+1,", run),
		"empty entry":                fold("0+1,,", run),
		"entry without count":        fold("0", run),
		"entries out of order":       fold("1+1,0+1", run+"b|rep=0|v\n"),
		"entries repeat a line":      fold("0+1,0+1", run),
		"entry past the body":        fold("1+1", run),
		"line without a rep":         fold("0+1", "a|v\n"),
		"head without newline":       fold("0+1", "a|rep=0|v"),
		"run left partly unfolded":   fold("0+1", run+"a|rep=2|v\n"),
		"run starts a line late":     fold("1+1", run+"a|rep=1|v\n"),
		"run cut short":              fold("0+1", "a|rep=0|v\nb|rep=0|v\nb|rep=1|v\n"),
		"two runs that are one":      fold("0+1,1+1", run+"a|rep=2|v\n"),
		"unfolds past the cap":       fold(fmt.Sprintf("0+%d", maxUnfolded), run),
		"count past the cap":         fold(fmt.Sprintf("0+%d", maxUnfolded+1), run),
		"body length past the input": rec("FOLD|99|0+1", run),
		"padded body length":         rec(fmt.Sprintf("FOLD|0%d|0+1", len(run)), run),
		"trailing bytes":             append(fold("0+1", run), 'x'),
	} {
		if _, err := Decode(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Decode returned %v, want ErrCorrupt\n%q", name, err, data)
		}
		if _, err := verifyRecord(data, c); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: verifyRecord returned %v, want ErrCorrupt", name, err)
		}
	}
	// The canonical fold of the same payloads decodes.
	for _, payload := range []string{run + "a|rep=1|v\n", run + "a|rep=1|v\na|rep=2|v\n"} {
		if _, err := Decode(encodeStored(c.header, []byte(payload))); err != nil {
			t.Errorf("canonical fold of %q: %v", payload, err)
		}
	}
}

// FuzzFoldCodec drives arbitrary payloads through the store's fold:
// every payload must come back byte for byte through the store-hit path
// and Decode, a payload is stored folded exactly when it holds a run and
// otherwise as Encode renders it, and the stored record is the fold of
// its decoded payload again. The seeds include a -r 40 shard, lines
// without a rep number, a rep=9 to rep=10 width change, a missing final
// newline and binary bytes.
func FuzzFoldCodec(f *testing.F) {
	f.Add(repShard(40, 1))
	f.Add(repShard(3, 1, 2, 4))
	f.Add([]byte("RUN|x|v=1\nRUN|x|v=1\nNOTE|client1: done\n"))
	f.Add([]byte("RUN|rep=9|v\nRUN|rep=10|v\nRUN|rep=11|v\n"))
	f.Add([]byte("a|rep=0|v\na|rep=1|v\na|rep=2|v"))
	f.Add([]byte("\x00|rep=0\xff\n\x00|rep=1\xff\n\xfe\n"))
	f.Add([]byte(""))
	c := NewCell(testFingerprint())
	f.Fuzz(func(t *testing.T, payload []byte) {
		stored := encodeStored(c.header, payload)
		got, err := verifyRecord(stored, c)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("store hit: %q, %v; want %q\nstored: %q", got, err, payload, stored)
		}
		rec, err := Decode(stored)
		if err != nil || !bytes.Equal(rec.Payload, payload) || !rec.Fingerprint.Equal(c.Fingerprint) {
			t.Fatalf("Decode: %q, %v; want %q\nstored: %q", rec.Payload, err, payload, stored)
		}
		folded := !bytes.Equal(stored, Encode(rec))
		if runs := foldRuns(payload, nil); folded != (len(runs) > 0) {
			t.Fatalf("stored folded=%t with %d runs:\n%q", folded, len(runs), stored)
		}
		if again := encodeStored(c.header, rec.Payload); !bytes.Equal(again, stored) {
			t.Fatalf("the fold of the decoded payload differs:\n%q\n%q", again, stored)
		}
	})
}
