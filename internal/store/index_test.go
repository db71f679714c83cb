package store

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"fex/internal/vfs"
)

// fpN returns a distinct fingerprint per index, for tests that need many
// cells.
func fpN(i int) Fingerprint {
	fp := testFingerprint()
	fp.Benchmark = fmt.Sprintf("bench%03d", i)
	return fp
}

// TestPutCleansStagingOnCommitFailure is the failed-write fault-injection
// test: when the record file cannot be written mid-Put, the Put fails,
// nothing is journaled, and no key appears — in this store or in one
// reopened over the same files.
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
		if _, err := s.Stats(); err != nil { // load the index first
			t.Fatal(err)
		}
		if err := tc.squat(fsys); err != nil {
			t.Fatal(err)
		}
		if err := s.Put(fp, []byte("p")); err == nil {
			t.Fatalf("%s: put succeeded", tc.name)
		}
		if j, err := fsys.ReadFile("/fex/store/" + journalFile); err == nil && len(j) != 0 {
			t.Errorf("%s: failed put journaled %q", tc.name, j)
		}
		for _, st := range []*Store{s, New(fsys, "/fex/store")} {
			if keys := storedKeys(t, st); len(keys) != 0 {
				t.Errorf("%s: keys after failed put: %v", tc.name, keys)
			}
		}
	}
}

// TestIndexSelfHeals pins the acceptance criterion: a deliberately
// corrupted or deleted index rebuilds itself by rescan with no behavior
// change — every record still resolves, with identical payloads.
func TestIndexSelfHeals(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(fsys *vfs.FS) error
	}{
		{"deleted index", func(fsys *vfs.FS) error {
			if err := fsys.Remove("/fex/store/" + indexFile); err != nil {
				return err
			}
			return fsys.Remove("/fex/store/" + journalFile)
		}},
		{"corrupt index", func(fsys *vfs.FS) error {
			return fsys.WriteFile("/fex/store/"+indexFile, []byte("FEXINDEX|1|gen=9|n=0\ngarbage\n"), 0o644)
		}},
		{"corrupt journal", func(fsys *vfs.FS) error {
			return fsys.WriteFile("/fex/store/"+journalFile, []byte("not|a|journal|line\n"), 0o644)
		}},
		{"truncated journal", func(fsys *vfs.FS) error {
			data, err := fsys.ReadFile("/fex/store/" + journalFile)
			if err != nil {
				return err
			}
			return fsys.WriteFile("/fex/store/"+journalFile, data[:len(data)-3], 0o644)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fsys := vfs.New()
			a := New(fsys, "/fex/store")
			const n = 8
			for i := 0; i < n; i++ {
				if err := a.Put(fpN(i), []byte(fmt.Sprintf("payload%03d", i))); err != nil {
					t.Fatal(err)
				}
			}
			// Compact half the stores so healing covers packs too.
			if strings.HasPrefix(tc.name, "corrupt index") || strings.HasPrefix(tc.name, "deleted") {
				if _, err := a.Compact(nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := tc.damage(fsys); err != nil {
				t.Fatal(err)
			}
			b := New(fsys, "/fex/store")
			fps := make([]Fingerprint, n)
			for i := range fps {
				fps[i] = fpN(i)
			}
			results, err := b.BulkGet(fps)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range results {
				if !r.Present || r.Err != nil {
					t.Fatalf("%s: record %d lost: present=%t err=%v", tc.name, i, r.Present, r.Err)
				}
				if want := fmt.Sprintf("payload%03d", i); string(r.Payload) != want {
					t.Errorf("%s: record %d payload %q, want %q", tc.name, i, r.Payload, want)
				}
			}
			// The heal persisted: the snapshot on disk parses again.
			data, err := fsys.ReadFile("/fex/store/" + indexFile)
			if err != nil {
				t.Fatalf("no snapshot after self-heal: %v", err)
			}
			if _, entries, err := decodeIndex(data); err != nil || len(entries) != n {
				t.Errorf("healed snapshot: %d entries, err=%v", len(entries), err)
			}
		})
	}
}

// TestLegacyStoreGainsIndex pins migration: a store written by the
// pre-index layout (record files only, no index, no journal) is adopted by
// a rescan on first use.
func TestLegacyStoreGainsIndex(t *testing.T) {
	fsys := vfs.New()
	const n = 6
	for i := 0; i < n; i++ {
		fp := fpN(i)
		key := fp.Key()
		data := Encode(Record{Fingerprint: fp, Payload: []byte("legacy")})
		if err := fsys.WriteFile("/fex/store/"+key[:2]+"/"+key, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := New(fsys, "/fex/store")
	if keys := storedKeys(t, s); len(keys) != n {
		t.Fatalf("legacy store: %d keys, want %d", len(keys), n)
	}
	for i := 0; i < n; i++ {
		if payload, present, err := s.Get(fpN(i)); !present || err != nil || string(payload) != "legacy" {
			t.Fatalf("legacy record %d: %q present=%t err=%v", i, payload, present, err)
		}
	}
	if !fsys.Exists("/fex/store/" + indexFile) {
		t.Error("migration did not persist an index snapshot")
	}
}

// TestCompactPrunesShardDir pins that the store's one removal path
// leaves no husks for Walk to traverse: a compaction that drops records
// removes their loose files and emptied shard directories, a pack whose
// records were all dropped, and the pack directory once it is empty.
func TestCompactPrunesShardDir(t *testing.T) {
	s, fsys := newTestStore(t)
	a, b := fpN(1), fpN(2)
	if a.Key()[:2] == b.Key()[:2] {
		t.Fatal("fingerprints landed in the same shard; adjust fpN seeds")
	}
	for _, fp := range []Fingerprint{a, b} {
		if err := s.Put(fp, []byte(fp.Benchmark)); err != nil {
			t.Fatal(err)
		}
	}
	shardA, shardB := "/fex/store/"+a.Key()[:2], "/fex/store/"+b.Key()[:2]
	if !fsys.IsDir(shardA) || !fsys.IsDir(shardB) {
		t.Fatal("shard dirs missing after put")
	}
	cs, err := s.Compact(func(fp Fingerprint) bool { return fp.Equal(b) })
	if err != nil {
		t.Fatal(err)
	}
	if cs.Kept != 1 || cs.Dropped != 1 || cs.Packs != 1 {
		t.Fatalf("compact stats %+v, want 1 kept, 1 dropped, 1 pack", cs)
	}
	if fsys.Exists(shardA) || fsys.Exists(shardB) {
		t.Error("loose shard dir survived compaction")
	}
	if fsys.Exists("/fex/store/" + packDir + "/" + a.Key()[:2] + ".pack") {
		t.Error("dropped record got a pack")
	}
	if !fsys.Exists("/fex/store/" + packDir + "/" + b.Key()[:2] + ".pack") {
		t.Error("kept record's pack missing")
	}
	if _, err := s.Compact(func(Fingerprint) bool { return false }); err != nil {
		t.Fatal(err)
	}
	if fsys.Exists("/fex/store/" + packDir) {
		t.Error("empty pack dir survived compaction")
	}
	if keys := storedKeys(t, s); len(keys) != 0 {
		t.Errorf("keys after dropping every record: %v", keys)
	}
}

// TestCompactDropsAndPacks exercises the full GC path: a keep predicate
// evicts records, the survivors move into pack files, loose files and
// empty dirs disappear, and every surviving record still resolves
// identically via Get, BulkGet, and Records.
func TestCompactDropsAndPacks(t *testing.T) {
	s, fsys := newTestStore(t)
	const n = 10
	for i := 0; i < n; i++ {
		if err := s.Put(fpN(i), []byte(fmt.Sprintf("payload%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Evict odd-numbered benchmarks.
	cs, err := s.Compact(func(fp Fingerprint) bool {
		var i int
		fmt.Sscanf(fp.Benchmark, "bench%d", &i)
		return i%2 == 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if cs.Kept != 5 || cs.Dropped != 5 {
		t.Fatalf("compact stats %+v, want 5 kept / 5 dropped", cs)
	}
	if cs.Packs == 0 || cs.Packs > 5 {
		t.Errorf("compact wrote %d packs", cs.Packs)
	}
	// Loose shard dirs are gone; only index state and packs remain.
	entries, err := fsys.ReadDir("/fex/store")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir && len(e.Name) == 2 {
			t.Errorf("loose shard dir %s survived compaction", e.Name)
		}
	}
	for i := 0; i < n; i++ {
		payload, present, err := s.Get(fpN(i))
		if i%2 == 1 {
			if present {
				t.Errorf("dropped record %d still present", i)
			}
			continue
		}
		if !present || err != nil || string(payload) != fmt.Sprintf("payload%03d", i) {
			t.Errorf("kept record %d: %q present=%t err=%v", i, payload, present, err)
		}
	}
	recs, err := s.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Errorf("Records after compact: %d, want 5", len(recs))
	}
	// A fresh instance reads the packed layout cold.
	c := New(fsys, "/fex/store")
	if payload, present, err := c.Get(fpN(0)); !present || err != nil || string(payload) != "payload000" {
		t.Errorf("cold read of packed record: %q present=%t err=%v", payload, present, err)
	}
	// Dropping a packed record rewrites its pack and keeps the rest.
	if _, err := c.Compact(func(fp Fingerprint) bool { return !fp.Equal(fpN(0)) }); err != nil {
		t.Fatal(err)
	}
	if _, present, _ := c.Get(fpN(0)); present {
		t.Error("packed record still present after it was dropped")
	}
	if _, present, err := c.Get(fpN(2)); !present || err != nil {
		t.Errorf("pack rewrite lost a sibling record: present=%t err=%v", present, err)
	}
	// Writes after compaction land loose and win over the packed copy.
	if err := c.Put(fpN(2), []byte("newer")); err != nil {
		t.Fatal(err)
	}
	if payload, _, _ := c.Get(fpN(2)); string(payload) != "newer" {
		t.Errorf("loose overwrite lost to packed copy: %q", payload)
	}
	if _, err := c.Compact(nil); err != nil {
		t.Fatal(err)
	}
	if payload, _, _ := c.Get(fpN(2)); string(payload) != "newer" {
		t.Errorf("recompaction resurrected stale record: %q", payload)
	}
	// A key with a packed copy and a newer loose one stays dropped once a
	// compaction drops it: neither copy comes back on a later compaction
	// or in a reopened store.
	if err := c.Put(fpN(4), []byte("loose")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Compact(func(fp Fingerprint) bool { return !fp.Equal(fpN(4)) }); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Compact(nil); err != nil {
		t.Fatal(err)
	}
	for _, st := range []*Store{c, New(fsys, "/fex/store")} {
		if payload, present, _ := st.Get(fpN(4)); present {
			t.Errorf("dropped record came back: %q", payload)
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

// TestIndexCodecRoundTrip pins the snapshot codec identity and its strict
// rejections, complementing the fuzz target.
func TestIndexCodecRoundTrip(t *testing.T) {
	entries := map[string]indexEntry{}
	for i := 0; i < 5; i++ {
		fp := fpN(i)
		key := fp.Key()
		data := Encode(Record{Fingerprint: fp, Payload: []byte("p")})
		entries[key] = looseEntry(key, data)
	}
	data := encodeIndex(7, entries)
	gen, got, err := decodeIndex(data)
	if err != nil {
		t.Fatalf("decode of own encoding: %v", err)
	}
	if gen != 7 || len(got) != len(entries) {
		t.Fatalf("gen=%d entries=%d", gen, len(got))
	}
	for k, e := range entries {
		if got[k] != e {
			t.Errorf("entry %s changed across round-trip", k)
		}
	}
	// Any single-byte flip in the body must be rejected (the trailer
	// digest catches it).
	for _, i := range []int{0, len(data) / 2, len(data) - 70} {
		mut := append([]byte{}, data...)
		mut[i] ^= 1
		if _, _, err := decodeIndex(mut); err == nil {
			t.Errorf("flip at %d accepted", i)
		}
	}
	if _, _, err := decodeIndex(data[:len(data)-1]); err == nil {
		t.Error("truncated snapshot accepted")
	}
	if _, _, err := decodeIndex(nil); err == nil {
		t.Error("empty snapshot accepted")
	}
}

// TestJournalTombstoneLoads pins that a journal of an older state, where
// a deleted key's entry line is followed by a tombstone line and its
// record file is gone, loads as that key deleted: the key misses, Stats
// counts no record for it, and loading runs no self-heal rescan.
func TestJournalTombstoneLoads(t *testing.T) {
	fsys := vfs.New()
	a := New(fsys, "/fex/store")
	kept, gone := fpN(0), fpN(1)
	for _, fp := range []Fingerprint{kept, gone} {
		if err := a.Put(fp, []byte(fp.Benchmark)); err != nil {
			t.Fatal(err)
		}
	}
	key := gone.Key()
	if err := fsys.Remove("/fex/store/" + key[:2] + "/" + key); err != nil {
		t.Fatal(err)
	}
	if _, err := fsys.Append("/fex/store/"+journalFile, []byte(tombstoneLine(key)+"\n")); err != nil {
		t.Fatal(err)
	}
	b := New(fsys, "/fex/store")
	noRescan := func(when string) {
		t.Helper()
		if fsys.Exists("/fex/store/"+indexFile) || b.gen != 0 {
			t.Fatalf("%s: loading the tombstoned journal ran a rescan (gen %d)", when, b.gen)
		}
	}
	st, err := b.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 1 {
		t.Errorf("Stats counts %d records, want 1", st.Records)
	}
	noRescan("after Stats")
	if payload, present, err := b.Get(gone); err != nil || present {
		t.Errorf("tombstoned key: payload %q present=%t err=%v, want a miss", payload, present, err)
	}
	if payload, present, err := b.Get(kept); err != nil || !present || string(payload) != kept.Benchmark {
		t.Errorf("kept key: payload %q present=%t err=%v", payload, present, err)
	}
	noRescan("after Get")
}
