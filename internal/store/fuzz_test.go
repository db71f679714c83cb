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
// must never panic, and anything it accepts must render back to the exact
// input bytes — through Encode for a DATA record, through the store's
// fold for a FOLD record (strict canonical format — a property Put/Get
// rely on for tamper detection). The store-hit verification must agree
// with Decode followed by Equal on the same bytes — payload and error
// class — both against the fingerprint the bytes hold and against a fixed
// one. The seeds include a valid record's damaged variants: a flipped
// byte, swapped fields, threads written as 01, a cut DATA line and a
// foreign fingerprint; and a folded record with a zero count, a run left
// partly unfolded and nothing folded.
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
	header := NewCell(testFingerprint()).header
	f.Add(encodeStored(header, []byte("RUN|rep=0|cycles=1\nRUN|rep=1|cycles=1\nRUN|rep=2|cycles=1\n")))
	f.Add(append(append([]byte(nil), header...), "FOLD|19|0+0\nRUN|rep=0|cycles=1\n"...))
	f.Add(append(append([]byte(nil), header...), "FOLD|38|0+1\nRUN|rep=0|cycles=1\nRUN|rep=2|cycles=1\n"...))
	f.Add(append(append([]byte(nil), header...), "FOLD|19|\nRUN|rep=0|cycles=1\n"...))
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
			re = encodeStored(rec.Fingerprint.appendHeader(nil), rec.Payload)
		}
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

// FuzzIndexCodec hardens the upgrade of a legacy store, the one reader
// left of the earlier layout's index, journal and packs: the fuzzed bytes
// are planted as one of them — the index, the journal, or the pack of
// the shard holding the first record — beside two record files, and the
// upgrade must not panic or fail, must leave only shard directories, and
// every lookup afterwards must return its record's true payload or miss.
// A record in a planted pack never replaces a record file of its key.
func FuzzIndexCodec(f *testing.F) {
	fpA, fpB := testFingerprint(), testFingerprint()
	fpB.Benchmark = "other"
	other := fpA
	other.Experiment = "third"
	forged := Encode(Record{Fingerprint: fpA, Payload: []byte("forged")})
	f.Add(uint8(0), []byte("FEXINDEX|1|gen=3|n=1\n"+fpA.Key()+"|pack/"+fpA.Key()[:2]+".pack|0|9|"+strings.Repeat("0", 64)+"\nSUM|"+strings.Repeat("0", 64)+"\n"))
	f.Add(uint8(1), []byte(fpA.Key()+"|"+fpA.Key()[:2]+"/"+fpA.Key()+"|9223372036854775807|1|"+strings.Repeat("a", 64)+"\n"+fpB.Key()+"|-|0|0|-\n"))
	f.Add(uint8(2), append(forged, Encode(Record{Fingerprint: other, Payload: []byte("p")})...))
	f.Add(uint8(2), forged[:len(forged)-3])
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		fsys := vfs.New()
		s := New(fsys, "/fex/store")
		if err := s.Put(fpA, []byte("payload-a")); err != nil {
			t.Fatal(err)
		}
		if err := s.Put(fpB, []byte("payload-b")); err != nil {
			t.Fatal(err)
		}
		planted := [...]string{"index", "journal", "pack/" + fpA.Key()[:2] + ".pack"}[which%3]
		if err := fsys.WriteFile("/fex/store/"+planted, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := s.Upgrade(); err != nil {
			t.Fatalf("upgrade over a fuzzed %s: %v", planted, err)
		}
		for _, name := range legacyEntries {
			if fsys.Exists("/fex/store/" + name) {
				t.Fatalf("%s survived the upgrade", name)
			}
		}
		results, err := s.BulkGet([]Fingerprint{fpA, fpB})
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range []string{"payload-a", "payload-b"} {
			if r := results[i]; r.Err != nil || (r.Present && string(r.Payload) != want) {
				t.Fatalf("fuzzed %s: record %d returned %q, %v; want %q or a miss", planted, i, r.Payload, r.Err, want)
			}
		}
	})
}
