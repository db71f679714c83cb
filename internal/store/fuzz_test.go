package store

import (
	"bytes"
	"strings"
	"testing"

	"fex/internal/vfs"
)

// FuzzFingerprintRoundTrip drives arbitrary field values through the
// record codec: every fingerprint must encode and decode back to itself
// (no field truncation, no aliasing across separators), and distinct
// fingerprints must produce distinct content addresses. The seed corpus
// covers the separator and quoting edge cases; CI replays it
// deterministically like the runlog fuzzer's.
func FuzzFingerprintRoundTrip(f *testing.F) {
	f.Add("phoenix", "phoenix", "histogram", "gcc_native", "3", "test", "perf-stat", "", "hash", 1, 2, []byte("RUN|x=1\n"))
	f.Add("a|b", "c\nd", "e=f", `g"h`, "auto:0.95,0.05:pilot=5:cap=64", "native", "time", "inputs=test,small", "", 4, 8, []byte{})
	f.Add("", "", "", "", "", "", "", "", "", 0, 0, []byte("payload"))
	f.Add("exp", "suite", "bench", "type", "2", "small", "perf-stat-mem", "F|dims|", "DATA|3", 16, 1, []byte("DATA|0\n"))
	f.Fuzz(func(t *testing.T, experiment, suite, bench, buildType, reps, input, tool, dims, confighash string, t1, t2 int, payload []byte) {
		fp := Fingerprint{
			Experiment: experiment,
			Suite:      suite,
			Benchmark:  bench,
			BuildType:  buildType,
			Threads:    []int{t1, t2},
			Reps:       reps,
			Input:      input,
			Tool:       tool,
			Dims:       dims,
			ConfigHash: confighash,
		}
		data := Encode(Record{Fingerprint: fp, Payload: payload})
		rec, err := Decode(data)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v\n%q", err, data)
		}
		if !rec.Fingerprint.Equal(fp) {
			t.Fatalf("fingerprint round-trip changed:\n%s\nvs\n%s", rec.Fingerprint.Canonical(), fp.Canonical())
		}
		if !bytes.Equal(rec.Payload, payload) {
			t.Fatalf("payload round-trip changed: %q vs %q", rec.Payload, payload)
		}
		if rec.Fingerprint.Key() != fp.Key() {
			t.Fatal("key changed across round-trip")
		}
		// Mutating any single field must change the content address.
		mutated := fp
		mutated.Benchmark += "x"
		if mutated.Key() == fp.Key() {
			t.Fatal("benchmark mutation kept the same key")
		}
	})
}

// FuzzStoreCodec hardens Decode against arbitrary store-file bytes: it
// must never panic, and anything it accepts must re-encode to the exact
// input bytes (strict canonical format — a property Put/Get rely on for
// tamper detection). The store-hit verification must agree with Decode
// followed by Equal on the same bytes — payload and error class — both
// against the fingerprint the bytes hold and against a fixed one. The
// seeds include a valid record's damaged variants: a flipped byte,
// swapped fields, threads written as 01, a cut DATA line and a foreign
// fingerprint.
func FuzzStoreCodec(f *testing.F) {
	f.Add([]byte(recordMagic + "\n"))
	f.Add(Encode(Record{Fingerprint: Fingerprint{Experiment: "e", Threads: []int{1}}, Payload: []byte("p")}))
	f.Add(Encode(Record{Fingerprint: Fingerprint{Suite: "s|t", Benchmark: "b\nc"}, Payload: nil}))
	f.Add([]byte("FEXSTORE|1\nF|experiment|\"x\"\nDATA|0\n"))
	f.Add([]byte("FEXSTORE|1\nF|experiment|\"x\"\nF|suite|\"\"\nF|bench|\"\"\nF|type|\"\"\nF|threads|\nF|reps|\"\"\nF|input|\"\"\nF|tool|\"\"\nF|dims|\"\"\nF|confighash|\"\"\nDATA|0\n"))
	valid := Encode(Record{Fingerprint: testFingerprint(), Payload: []byte("RUN|cycles=1\n")})
	flipped := append([]byte(nil), valid...)
	flipped[len(recordMagic)+5] ^= 0x20
	f.Add(flipped)
	f.Add([]byte(strings.Replace(string(valid), "F|suite|\"phoenix\"\nF|bench|\"histogram\"", "F|bench|\"histogram\"\nF|suite|\"phoenix\"", 1)))
	f.Add([]byte(strings.Replace(string(valid), "F|threads|1,2,4", "F|threads|01,2,4", 1)))
	f.Add(valid[:bytes.Index(valid, []byte("DATA|"))+3])
	foreign := testFingerprint()
	foreign.Experiment = "splash"
	f.Add(Encode(Record{Fingerprint: foreign, Payload: []byte("RUN|cycles=1\n")}))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := Decode(data)
		fps := []Fingerprint{testFingerprint()}
		if err == nil {
			fps = append(fps, rec.Fingerprint)
		}
		for _, fp := range fps {
			got, verr := verifyRecord(data, NewCell(fp))
			want, werr := decodeAndCompare(data, fp)
			if errClass(verr) != errClass(werr) || !bytes.Equal(got, want) {
				t.Fatalf("verifyRecord against %s: %q, %v; reference %q, %v", fp.Canonical(), got, verr, want, werr)
			}
		}
		if err != nil {
			return
		}
		re := Encode(rec)
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted record does not re-encode to its input bytes:\n in: %q\nout: %q", data, re)
		}
		rec2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoding of accepted record no longer decodes: %v", err)
		}
		if !rec2.Fingerprint.Equal(rec.Fingerprint) || !bytes.Equal(rec2.Payload, rec.Payload) {
			t.Fatal("decode/encode/decode is not idempotent")
		}
	})
}

// FuzzIndexCodec hardens the index snapshot codec and, transitively, the
// replay path behind it: decodeIndex must never panic, anything it accepts
// must re-encode to the exact input bytes (the same strict-identity
// property the record codec holds), and — the load-bearing guarantee — a
// store whose index file holds arbitrary fuzzer bytes must either serve
// the correct payloads (after a self-heal rescan) or miss, never replay a
// wrong record.
func FuzzIndexCodec(f *testing.F) {
	seedEntries := map[string]indexEntry{}
	for _, fp := range []Fingerprint{
		{Experiment: "e", Threads: []int{1}},
		{Experiment: "e2", Suite: "s", Benchmark: "b", Threads: []int{1, 2}},
	} {
		key := fp.Key()
		data := Encode(Record{Fingerprint: fp, Payload: []byte("p")})
		seedEntries[key] = looseEntry(key, data)
	}
	f.Add(encodeIndex(0, nil))
	f.Add(encodeIndex(3, seedEntries))
	f.Add([]byte("FEXINDEX|1|gen=0|n=0\n"))
	f.Add([]byte("FEXINDEX|1|gen=0|n=0\nSUM|0000000000000000000000000000000000000000000000000000000000000000\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		gen, entries, err := decodeIndex(data)
		if err == nil {
			re := encodeIndex(gen, entries)
			if !bytes.Equal(re, data) {
				t.Fatalf("accepted index does not re-encode to its input bytes:\n in: %q\nout: %q", data, re)
			}
		}

		// Integration: plant the fuzzed bytes as a live store's index file.
		// Whatever they decode to, lookups must return the true payloads or
		// miss — never a wrong replay.
		fsys := vfs.New()
		s := New(fsys, "/fex/store")
		fpA, fpB := testFingerprint(), testFingerprint()
		fpB.Benchmark = "other"
		if err := s.Put(fpA, []byte("payload-a")); err != nil {
			t.Fatal(err)
		}
		if err := s.Put(fpB, []byte("payload-b")); err != nil {
			t.Fatal(err)
		}
		if err := fsys.WriteFile("/fex/store/"+indexFile, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cold := New(fsys, "/fex/store")
		results, err := cold.BulkGet([]Fingerprint{fpA, fpB})
		if err != nil {
			t.Fatalf("bulkget over fuzzed index: %v", err)
		}
		for i, want := range []string{"payload-a", "payload-b"} {
			r := results[i]
			if r.Present && r.Err == nil && string(r.Payload) != want {
				t.Fatalf("fuzzed index caused wrong replay: record %d returned %q, want %q", i, r.Payload, want)
			}
		}
	})
}
