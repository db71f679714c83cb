package store

import (
	"fmt"
	"testing"
)

// TestCompactPrunesShardDir pins that the store's one removal path
// leaves no husks for Walk to traverse: a compaction that drops records
// removes their files and the shard directories it emptied, and keeps
// the shard directory of a record it keeps.
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
	if cs.Kept != 1 || cs.Dropped != 1 || cs.Bytes != int64(len(Encode(Record{Fingerprint: a, Payload: []byte(a.Benchmark)}))) {
		t.Fatalf("compact stats %+v, want 1 kept, 1 dropped and the dropped record's bytes", cs)
	}
	if fsys.Exists(shardA) {
		t.Error("emptied shard dir survived compaction")
	}
	if !fsys.IsDir(shardB) {
		t.Error("kept record's shard dir removed")
	}
	if _, err := s.Compact(func(Fingerprint) bool { return false }); err != nil {
		t.Fatal(err)
	}
	if entries, err := fsys.ReadDir("/fex/store"); err != nil || len(entries) != 0 {
		t.Errorf("store root after dropping every record: %v, %v", entries, err)
	}
	if keys := storedKeys(t, s); len(keys) != 0 {
		t.Errorf("keys after dropping every record: %v", keys)
	}
}

// TestCompactDropsStaleRecords exercises the full GC path: a keep
// predicate evicts records, every surviving record still resolves
// identically via Get and Records on this store and on a reopened one, a
// record put after a compaction lands as any other, a dropped key stays
// dropped, and a file that is not a record it addresses is left for
// lookups to report.
func TestCompactDropsStaleRecords(t *testing.T) {
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
	if cs.Kept != 5 || cs.Dropped != 5 || cs.Bytes <= 0 {
		t.Fatalf("compact stats %+v, want 5 kept / 5 dropped and bytes reclaimed", cs)
	}
	for _, st := range []*Store{s, New(fsys, "/fex/store")} {
		for i := 0; i < n; i++ {
			payload, present, err := st.Get(fpN(i))
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
		recs, err := st.Records()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 5 {
			t.Errorf("Records after compact: %d, want 5", len(recs))
		}
	}
	// Writes after compaction overwrite as before, and a second
	// compaction keeps them.
	if err := s.Put(fpN(2), []byte("newer")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compact(nil); err != nil {
		t.Fatal(err)
	}
	if payload, _, _ := s.Get(fpN(2)); string(payload) != "newer" {
		t.Errorf("recompaction lost an overwrite: %q", payload)
	}
	// A dropped key stays dropped, in this store and a reopened one.
	if _, err := s.Compact(func(fp Fingerprint) bool { return !fp.Equal(fpN(4)) }); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compact(nil); err != nil {
		t.Fatal(err)
	}
	for _, st := range []*Store{s, New(fsys, "/fex/store")} {
		if payload, present, _ := st.Get(fpN(4)); present {
			t.Errorf("dropped record came back: %q", payload)
		}
	}
	// Garbage at a key's address is neither kept nor dropped: it stays,
	// and Get reports it as corrupt.
	if err := fsys.WriteFile(s.path(fpN(0).Key()), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	cs, err = s.Compact(func(Fingerprint) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if cs.Kept != 0 || cs.Dropped != 3 {
		t.Errorf("compact over garbage: %+v, want 0 kept / 3 dropped", cs)
	}
	if _, present, err := s.Get(fpN(0)); !present || err == nil {
		t.Errorf("garbage record after compact: present=%t err=%v, want a corrupt hit", present, err)
	}
}
