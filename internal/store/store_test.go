package store

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"fex/internal/vfs"
)

func testFingerprint() Fingerprint {
	return Fingerprint{
		Experiment: "phoenix",
		Suite:      "phoenix",
		Benchmark:  "histogram",
		BuildType:  "gcc_native",
		Threads:    []int{1, 2, 4},
		Reps:       "3",
		Input:      "test",
		Tool:       "perf-stat",
		ConfigHash: "abc123",
	}
}

func TestFingerprintKeyDistinguishesFields(t *testing.T) {
	base := testFingerprint()
	mutations := []func(*Fingerprint){
		func(fp *Fingerprint) { fp.Experiment = "splash" },
		func(fp *Fingerprint) { fp.Suite = "splash" },
		func(fp *Fingerprint) { fp.Benchmark = "word_count" },
		func(fp *Fingerprint) { fp.BuildType = "gcc_asan" },
		func(fp *Fingerprint) { fp.Threads = []int{1, 2} },
		func(fp *Fingerprint) { fp.Threads = []int{1, 24} },
		func(fp *Fingerprint) { fp.Reps = "4" },
		func(fp *Fingerprint) { fp.Reps = "auto:0.95,0.05:pilot=5:cap=64" },
		func(fp *Fingerprint) { fp.Input = "native" },
		func(fp *Fingerprint) { fp.Tool = "time" },
		func(fp *Fingerprint) { fp.Dims = "inputs=test,small" },
		func(fp *Fingerprint) { fp.ConfigHash = "abc124" },
	}
	seen := map[string]int{base.Key(): -1}
	for i, mutate := range mutations {
		fp := testFingerprint()
		mutate(&fp)
		key := fp.Key()
		if prev, dup := seen[key]; dup {
			t.Errorf("mutation %d collides with %d: key %s", i, prev, key)
		}
		seen[key] = i
	}
	if got := testFingerprint().Key(); got != testFingerprint().Key() {
		t.Error("Key is not deterministic")
	}
}

// TestFingerprintCanonicalInjective pins the quoting property: field
// values that would concatenate identically under naive joining must not
// alias.
func TestFingerprintCanonicalInjective(t *testing.T) {
	a := Fingerprint{Experiment: "ab", Suite: "c"}
	b := Fingerprint{Experiment: "a", Suite: "bc"}
	if a.Canonical() == b.Canonical() {
		t.Fatal("canonical strings alias across field boundaries")
	}
	c := Fingerprint{Experiment: "x\ny", Suite: "z"}
	d := Fingerprint{Experiment: "x", Suite: "y\nz"}
	if c.Canonical() == d.Canonical() {
		t.Fatal("canonical strings alias across embedded newlines")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	payloads := [][]byte{
		nil,
		[]byte("RUN|suite=phoenix|bench=histogram|type=gcc_native|threads=1|rep=0|cycles=42\n"),
		[]byte("raw\x00bytes\nwith|separators\nDATA|7\n"),
	}
	for i, payload := range payloads {
		rec := Record{Fingerprint: testFingerprint(), Payload: payload}
		got, err := Decode(Encode(rec))
		if err != nil {
			t.Fatalf("payload %d: %v", i, err)
		}
		if !got.Fingerprint.Equal(rec.Fingerprint) {
			t.Errorf("payload %d: fingerprint changed:\n%s\nvs\n%s", i, got.Fingerprint.Canonical(), rec.Fingerprint.Canonical())
		}
		if string(got.Payload) != string(payload) {
			t.Errorf("payload %d: payload changed: %q vs %q", i, got.Payload, payload)
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	valid := Encode(Record{Fingerprint: testFingerprint(), Payload: []byte("hello\n")})
	cases := map[string][]byte{
		"empty":             nil,
		"bad magic":         []byte("NOTASTORE|1\n"),
		"truncated":         valid[:len(valid)/2],
		"extra payload":     append(append([]byte{}, valid...), 'x'),
		"field order":       []byte(strings.Replace(string(valid), "F|suite|", "F|zzite|", 1)),
		"unquoted field":    []byte(strings.Replace(string(valid), `F|experiment|"phoenix"`, `F|experiment|phoenix`, 1)),
		"bad threads":       []byte(strings.Replace(string(valid), "F|threads|1,2,4", "F|threads|1,x,4", 1)),
		"noncanon threads":  []byte(strings.Replace(string(valid), "F|threads|1,2,4", "F|threads|01,2,4", 1)),
		"bad data length":   []byte(strings.Replace(string(valid), "DATA|6", "DATA|7", 1)),
		"negative length":   []byte(strings.Replace(string(valid), "DATA|6", "DATA|-1", 1)),
		"missing data line": []byte(strings.Replace(string(valid), "DATA|6\nhello\n", "", 1)),
	}
	for name, data := range cases {
		if _, err := Decode(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
}

func newTestStore(t *testing.T) (*Store, *vfs.FS) {
	t.Helper()
	fsys := vfs.New()
	return New(fsys, "/fex/store"), fsys
}

func TestStorePutGet(t *testing.T) {
	s, _ := newTestStore(t)
	fp := testFingerprint()

	if _, present, err := s.Get(fp); err != nil || present {
		t.Fatalf("empty store: present=%t err=%v", present, err)
	}
	payload := []byte("RUN|bench=histogram|type=gcc_native|cycles=1\n")
	if err := s.Put(fp, payload); err != nil {
		t.Fatal(err)
	}
	got, present, err := s.Get(fp)
	if err != nil || !present {
		t.Fatalf("present=%t err=%v", present, err)
	}
	if string(got) != string(payload) {
		t.Errorf("payload %q, want %q", got, payload)
	}

	// Overwrite wins.
	if err := s.Put(fp, []byte("newer\n")); err != nil {
		t.Fatal(err)
	}
	got, _, _ = s.Get(fp)
	if string(got) != "newer\n" {
		t.Errorf("overwrite lost: %q", got)
	}

	// A different fingerprint misses.
	other := testFingerprint()
	other.BuildType = "gcc_asan"
	if _, present, _ := s.Get(other); present {
		t.Error("distinct fingerprint hit the stored record")
	}
}

func TestStoreDetectsTampering(t *testing.T) {
	s, fsys := newTestStore(t)
	fp := testFingerprint()
	if err := s.Put(fp, []byte("payload\n")); err != nil {
		t.Fatal(err)
	}
	path := s.path(fp.Key())

	// A record for a different fingerprint planted at fp's address must be
	// rejected, not replayed.
	other := testFingerprint()
	other.ConfigHash = "different"
	if err := fsys.WriteFile(path, Encode(Record{Fingerprint: other, Payload: []byte("wrong\n")}), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, present, err := s.Get(fp); !present || !errors.Is(err, ErrMismatch) {
		t.Errorf("planted record: present=%t err=%v, want ErrMismatch", present, err)
	}

	// Garbage at the address is corrupt, not a hit.
	if err := fsys.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, present, err := s.Get(fp); !present || !errors.Is(err, ErrCorrupt) {
		t.Errorf("garbage record: present=%t err=%v, want ErrCorrupt", present, err)
	}
}

// TestStoreStatsCompactClean pins the footprint through the removal
// paths: Stats counts every stored record, a compaction that drops one
// counts one fewer, and Clean empties the store, which keeps working.
func TestStoreStatsCompactClean(t *testing.T) {
	s, fsys := newTestStore(t)
	var fps []Fingerprint
	for i := 0; i < 5; i++ {
		fp := testFingerprint()
		fp.Benchmark = fmt.Sprintf("bench%d", i)
		fps = append(fps, fp)
		if err := s.Put(fp, []byte(strings.Repeat("x", i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if keys := storedKeys(t, s); len(keys) != 5 {
		t.Fatalf("%d keys, want 5", len(keys))
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 5 || st.Bytes == 0 {
		t.Errorf("stats %+v", st)
	}

	drop := func(fp Fingerprint) bool { return !fp.Equal(fps[0]) }
	for i := 0; i < 2; i++ {
		if _, err := s.Compact(drop); err != nil {
			t.Fatal(err)
		}
		if st, _ := s.Stats(); st.Records != 4 {
			t.Fatalf("compaction %d: %d records, want 4", i, st.Records)
		}
	}

	if err := s.Clean(); err != nil {
		t.Fatal(err)
	}
	if keys := storedKeys(t, s); len(keys) != 0 {
		t.Errorf("%d keys after clean", len(keys))
	}
	if st, _ := s.Stats(); st.Records != 0 || st.Bytes != 0 {
		t.Errorf("stats after clean %+v", st)
	}
	if fsys.IsDir("/fex/store") {
		t.Error("store root survived Clean")
	}
	// The store keeps working after Clean.
	if err := s.Put(fps[1], []byte("again")); err != nil {
		t.Fatal(err)
	}
}

// TestStoreNoStagingLeftovers asserts Put is exactly one vfs operation
// and writes nothing but the record file, and that a stray file under the
// root never shows up as a key.
func TestStoreNoStagingLeftovers(t *testing.T) {
	s, fsys := newTestStore(t)
	fp := testFingerprint()
	before := fsys.Ops()
	if err := s.Put(fp, []byte("p")); err != nil {
		t.Fatal(err)
	}
	if ops := fsys.Ops() - before; ops != 1 {
		t.Errorf("put took %d vfs ops, want 1", ops)
	}
	var paths []string
	if err := fsys.Walk("/fex/store", func(st vfs.Stat) error {
		if !st.IsDir {
			paths = append(paths, st.Path)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{"/fex/store/" + fp.Key()[:2] + "/" + fp.Key()}
	if fmt.Sprint(paths) != fmt.Sprint(want) {
		t.Errorf("files after put: %v, want %v", paths, want)
	}
	if err := fsys.WriteFile("/fex/store/tmp/stranded", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if keys := storedKeys(t, New(fsys, "/fex/store")); len(keys) != 1 {
		t.Errorf("keys %v include a stray file", keys)
	}
}

// TestStoreConcurrentPuts races Puts on one store under -race, next to
// lookups and compactions, which take no lock or the writers' lock:
// distinct keys all land, concurrent Puts of the same key resolve to one
// complete record, never a torn one, and every lookup meanwhile sees a
// miss or a whole record.
func TestStoreConcurrentPuts(t *testing.T) {
	s, fsys := newTestStore(t)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Compact(nil); err != nil {
				t.Errorf("compact: %v", err)
			}
			for j := 0; j < 8; j++ {
				res, _ := s.BulkGet([]Fingerprint{testFingerprint()})
				if r := res[0]; r.Err != nil || (r.Present && (!strings.HasPrefix(string(r.Payload), "same") || len(r.Payload) != len("same00"))) {
					t.Errorf("lookup during puts: %+v", r)
				}
			}
		}()
	}
	for i := 0; i < 16; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			fp := testFingerprint()
			fp.Benchmark = fmt.Sprintf("bench%d", i)
			if err := s.Put(fp, []byte(fp.Benchmark)); err != nil {
				t.Errorf("put %d: %v", i, err)
			}
		}(i)
		go func(i int) {
			defer wg.Done()
			if err := s.Put(testFingerprint(), []byte(fmt.Sprintf("same%02d", i))); err != nil {
				t.Errorf("same-key put %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if keys := storedKeys(t, s); len(keys) != 17 {
		t.Errorf("%d keys, want 17", len(keys))
	}
	// The same-key winner is whole: both this store and a reopened one
	// return it.
	for _, st := range []*Store{s, New(fsys, "/fex/store")} {
		payload, present, err := st.Get(testFingerprint())
		if err != nil || !present || !strings.HasPrefix(string(payload), "same") || len(payload) != len("same00") {
			t.Fatalf("same-key record: %q present=%t err=%v", payload, present, err)
		}
		res, err := st.BulkGet([]Fingerprint{testFingerprint()})
		if err != nil || !res[0].Present || string(res[0].Payload) != string(payload) {
			t.Fatalf("bulk same-key record: %+v err=%v, want %q", res, err, payload)
		}
	}
}

// storedKeys lists the content addresses of the store's record files,
// sorted.
func storedKeys(t *testing.T, s *Store) []string {
	t.Helper()
	files, err := s.recordFiles()
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(files))
	for i, f := range files {
		keys[i] = f.Name
	}
	return keys
}

// fpN returns a distinct fingerprint per index, for tests that need many
// cells.
func fpN(i int) Fingerprint {
	fp := testFingerprint()
	fp.Benchmark = fmt.Sprintf("bench%03d", i)
	return fp
}

// TestDecodeRejectsNonCanonicalForms pins the strict decode/encode
// identity: semantically equivalent but non-canonical renderings (padded
// DATA lengths, alternative quotings) are corruption, not records.
func TestDecodeRejectsNonCanonicalForms(t *testing.T) {
	valid := string(Encode(Record{Fingerprint: testFingerprint(), Payload: []byte("hello\n")}))
	cases := map[string]string{
		"padded data length": strings.Replace(valid, "DATA|6", "DATA|06", 1),
		"signed data length": strings.Replace(valid, "DATA|6", "DATA|+6", 1),
		"hex-escaped quote":  strings.Replace(valid, `F|experiment|"phoenix"`, `F|experiment|"\x70hoenix"`, 1),
	}
	for name, data := range cases {
		if data == valid {
			t.Fatalf("%s: mutation did not apply", name)
		}
		if _, err := Decode([]byte(data)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
}

// TestStoreRecords pins the bulk read behind cross-run analysis: Records
// returns every stored cell in sorted key order, verified against its
// content address, and surfaces corruption or misfiled records as errors
// rather than leaking them into a comparison.
func TestStoreRecords(t *testing.T) {
	s, fsys := newTestStore(t)
	if recs, err := s.Records(); err != nil || len(recs) != 0 {
		t.Fatalf("empty store: %d records, err=%v", len(recs), err)
	}
	fps := make([]Fingerprint, 3)
	for i := range fps {
		fps[i] = testFingerprint()
		fps[i].Benchmark = fmt.Sprintf("bench%d", i)
		if err := s.Put(fps[i], []byte(fmt.Sprintf("payload%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := s.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("records %d, want 3", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i-1].Fingerprint.Key() >= recs[i].Fingerprint.Key() {
			t.Error("records not sorted by content address")
		}
	}
	seen := map[string]bool{}
	for _, r := range recs {
		seen[r.Fingerprint.Benchmark+"/"+string(r.Payload)] = true
	}
	for i := range fps {
		if !seen[fmt.Sprintf("bench%d/payload%d", i, i)] {
			t.Errorf("record %d missing or mangled", i)
		}
	}

	// In-place corruption surfaces as ErrCorrupt.
	key := fps[0].Key()
	path := "/fex/store/" + key[:2] + "/" + key
	if err := fsys.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Records(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("corrupt record: %v", err)
	}

	// A record filed under the wrong key surfaces as ErrMismatch.
	other := Encode(Record{Fingerprint: fps[1], Payload: []byte("payload1")})
	if err := fsys.WriteFile(path, other, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Records(); !errors.Is(err, ErrMismatch) {
		t.Errorf("misfiled record: %v", err)
	}
}

// TestPutCleansStagingOnCommitFailure is the failed-write fault-injection
// test: when the record file cannot be written, the Put fails and no key
// appears — in this store or in one reopened over the same files.
func TestPutCleansStagingOnCommitFailure(t *testing.T) {
	fp := testFingerprint()
	key := fp.Key()
	for _, tc := range []struct {
		name  string
		squat func(fsys *vfs.FS) error
	}{
		// A directory squats on the record's final path.
		{"dir on record", func(fsys *vfs.FS) error { return fsys.MkdirAll("/fex/store/" + key[:2] + "/" + key) }},
		// A file squats on the shard directory's path.
		{"file on shard", func(fsys *vfs.FS) error {
			return fsys.WriteFile("/fex/store/"+key[:2], []byte("squatter"), 0o644)
		}},
	} {
		s, fsys := newTestStore(t)
		if err := tc.squat(fsys); err != nil {
			t.Fatal(err)
		}
		if err := s.Put(fp, []byte("p")); err == nil {
			t.Fatalf("%s: put succeeded", tc.name)
		}
		for _, st := range []*Store{s, New(fsys, "/fex/store")} {
			if keys := storedKeys(t, st); len(keys) != 0 {
				t.Errorf("%s: keys after failed put: %v", tc.name, keys)
			}
		}
	}
}

// TestBulkGetMirrorsGetSemantics pins the corrupt/mismatch fallback: a
// tampered record surfaces through BulkGet exactly as through Get.
func TestBulkGetMirrorsGetSemantics(t *testing.T) {
	s, fsys := newTestStore(t)
	good, bad := fpN(0), fpN(1)
	if err := s.Put(good, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(bad, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if err := fsys.WriteFile(s.path(bad.Key()), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := fpN(2)
	results, err := s.BulkGet([]Fingerprint{good, bad, missing})
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].Present || results[0].Err != nil || string(results[0].Payload) != "ok" {
		t.Errorf("good record: %+v", results[0])
	}
	if !results[1].Present || !errors.Is(results[1].Err, ErrCorrupt) {
		t.Errorf("tampered record: present=%t err=%v, want ErrCorrupt", results[1].Present, results[1].Err)
	}
	if results[2].Present || results[2].Err != nil {
		t.Errorf("missing record: %+v", results[2])
	}
}

// TestStatsFreshAndCleaned pins Stats across the store lifecycle: an
// unwritten root reports zero, a filled store reports its records, and
// Clean resets both (and the store keeps working afterwards).
func TestStatsFreshAndCleaned(t *testing.T) {
	fsys := vfs.New()
	s := New(fsys, "/fex/store")
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 0 || st.Bytes != 0 {
		t.Fatalf("fresh store stats %+v, want zeros", st)
	}
	if err := s.Put(fpN(1), []byte("payload")); err != nil {
		t.Fatal(err)
	}
	st, err = s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 1 || st.Bytes == 0 {
		t.Fatalf("filled store stats %+v, want 1 record and nonzero bytes", st)
	}
	if err := s.Clean(); err != nil {
		t.Fatal(err)
	}
	st, err = s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 0 || st.Bytes != 0 {
		t.Fatalf("cleaned store stats %+v, want zeros", st)
	}
}
