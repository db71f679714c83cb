package store

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"fex/internal/vfs"
)

// damagePack picks one pack file of a compacted store and rewrites it
// through fn, returning the pack's path.
func damagePack(t *testing.T, fsys *vfs.FS, root string, fn func([]byte) []byte) string {
	t.Helper()
	dir := root + "/" + packDir
	packs, err := fsys.ReadDir(dir)
	if err != nil || len(packs) == 0 {
		t.Fatalf("no pack files to damage: %v", err)
	}
	p := dir + "/" + packs[0].Name
	data, err := fsys.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := fsys.WriteFile(p, fn(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestGetHealsDamagedPack drives the per-key read path over packs whose
// bytes no longer match the index: a truncated pack (bounds check fails)
// and a corrupted pack header (digest and decode fail). Either way every
// Get must come back clean — a hit for records still readable, a miss for
// the destroyed ones — after the self-heal rescan, never an error or a
// wrong payload.
func TestGetHealsDamagedPack(t *testing.T) {
	for name, damage := range map[string]func([]byte) []byte{
		"truncated": func(d []byte) []byte { return d[:len(d)/2] },
		"corrupted": func(d []byte) []byte { d[0] ^= 0xff; return d },
	} {
		t.Run(name, func(t *testing.T) {
			fsys := vfs.New()
			s := New(fsys, "/fex/store")
			const n = 8
			for i := 0; i < n; i++ {
				if err := s.Put(fpN(i), []byte("payload")); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := s.Compact(nil); err != nil {
				t.Fatal(err)
			}
			damagePack(t, fsys, "/fex/store", damage)
			cold := New(fsys, "/fex/store")
			hits := 0
			for i := 0; i < n; i++ {
				payload, present, err := cold.Get(fpN(i))
				if err != nil {
					t.Fatalf("get %d over damaged pack: %v", i, err)
				}
				if present {
					hits++
					if string(payload) != "payload" {
						t.Fatalf("get %d returned wrong payload %q", i, payload)
					}
				}
			}
			if hits >= n {
				t.Fatal("damaging a pack lost no records — damage did not land")
			}
			// The healed index must also serve Records and Keys cleanly.
			recs, err := cold.Records()
			if err != nil {
				t.Fatalf("records after heal: %v", err)
			}
			if len(recs) != hits {
				t.Fatalf("records found %d cells, per-key gets found %d", len(recs), hits)
			}
			// Re-measuring (re-Put) restores the lost cells.
			for i := 0; i < n; i++ {
				if err := cold.Put(fpN(i), []byte("payload")); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < n; i++ {
				if _, present, err := cold.Get(fpN(i)); err != nil || !present {
					t.Fatalf("record %d after re-put: present=%t err=%v", i, present, err)
				}
			}
		})
	}
}

// TestRecordsHealsMissingPack covers the bulk-read self-heal: an index
// that promises a pack file the filesystem no longer holds must trigger
// one rescan and then return the surviving records.
func TestRecordsHealsMissingPack(t *testing.T) {
	fsys := vfs.New()
	s := New(fsys, "/fex/store")
	const n = 6
	for i := 0; i < n; i++ {
		if err := s.Put(fpN(i), []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Compact(nil); err != nil {
		t.Fatal(err)
	}
	gone := damagePack(t, fsys, "/fex/store", func([]byte) []byte { return nil })
	if err := fsys.Remove(gone); err != nil {
		t.Fatal(err)
	}
	cold := New(fsys, "/fex/store")
	recs, err := cold.Records()
	if err != nil {
		t.Fatalf("records over missing pack: %v", err)
	}
	if len(recs) >= n || len(recs) == 0 {
		t.Fatalf("got %d records, want a nonzero subset of %d", len(recs), n)
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

// TestParseEntryRejectsMalformedLines sweeps the strict entry grammar:
// every deviation a corrupted snapshot or journal could produce must be a
// parse error (which callers answer with a rescan), never a misdirected
// entry.
func TestParseEntryRejectsMalformedLines(t *testing.T) {
	key := fpN(0).Key()
	if _, _, err := parseEntry(entryLine(key, looseEntry(key, []byte("payload")))); err != nil {
		t.Fatalf("canonical entry rejected: %v", err)
	}
	if _, _, err := parseEntry(tombstoneLine(key)); err != nil {
		t.Fatalf("canonical tombstone rejected: %v", err)
	}
	sum := sumHex([]byte("payload"))
	for name, line := range map[string]string{
		"too few fields":      key + "|" + key[:2] + "/" + key + "|0|7",
		"short key":           key[:10] + "|" + key[:2] + "/" + key + "|0|7|" + sum,
		"uppercase key":       strings.ToUpper(key) + "|" + key[:2] + "/" + key + "|0|7|" + sum,
		"foreign file":        key + "|zz/other|0|7|" + sum,
		"wrong shard":         key + "|" + "zz/" + key + "|0|7|" + sum,
		"negative offset":     key + "|" + packDir + "/" + key[:2] + ".pack|-1|7|" + sum,
		"non-canonical int":   key + "|" + key[:2] + "/" + key + "|007|7|" + sum,
		"bad length":          key + "|" + key[:2] + "/" + key + "|0|x|" + sum,
		"short digest":        key + "|" + key[:2] + "/" + key + "|0|7|abc123",
		"malformed tombstone": key + "|-|1|0|-",
	} {
		if _, _, err := parseEntry(line); err == nil {
			t.Errorf("%s: parseEntry accepted %q", name, line)
		}
	}
}

// TestDecodeIndexRejectsStructuralDamage covers the snapshot-level
// checks: a valid trailer is not enough — the header, entry count, order,
// and tombstone-freeness must all hold.
func TestDecodeIndexRejectsStructuralDamage(t *testing.T) {
	key := fpN(0).Key()
	entry := entryLine(key, looseEntry(key, []byte("p")))
	reseal := func(body string) []byte {
		data := []byte(body)
		h := sha256.Sum256(data)
		return append(data, []byte("SUM|"+hex.EncodeToString(h[:])+"\n")...)
	}
	for name, body := range map[string]string{
		"bad magic":        "FEXINDEX|9|gen=0|n=0\n",
		"bad gen":          "FEXINDEX|1|gen=x|n=0\n",
		"negative gen":     "FEXINDEX|1|gen=-1|n=0\n",
		"bad count":        "FEXINDEX|1|gen=0|n=x\n",
		"count mismatch":   "FEXINDEX|1|gen=0|n=2\n" + entry + "\n",
		"duplicate keys":   "FEXINDEX|1|gen=0|n=2\n" + entry + "\n" + entry + "\n",
		"tombstone inside": "FEXINDEX|1|gen=0|n=1\n" + tombstoneLine(key) + "\n",
	} {
		if _, _, err := decodeIndex(reseal(body)); err == nil {
			t.Errorf("%s: decodeIndex accepted the snapshot", name)
		}
	}
	if _, _, err := decodeIndex(reseal("FEXINDEX|1|gen=7|n=1\n" + entry + "\n")); err != nil {
		t.Errorf("canonical snapshot rejected: %v", err)
	}
}
