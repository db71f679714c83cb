package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"testing"

	"fex/internal/vfs"
)

// writeLegacy writes the store root /fex/store in the earlier layout.
// The packed records go into pack/<ab>.pack, each shard's records back
// to back in key order; the loose records get their own files; and the
// index and journal files list them all as that layout did (one
// key|file|offset|length|sha256 line each).
func writeLegacy(t testing.TB, fsys *vfs.FS, packed, loose []Record) {
	t.Helper()
	var lines []string
	entry := func(key, file string, off int, raw []byte) {
		sum := sha256.Sum256(raw)
		lines = append(lines, key+"|"+file+"|"+strconv.Itoa(off)+"|"+strconv.Itoa(len(raw))+"|"+hex.EncodeToString(sum[:])+"\n")
	}
	sort.Slice(packed, func(i, j int) bool { return packed[i].Fingerprint.Key() < packed[j].Fingerprint.Key() })
	packs := map[string][]byte{}
	for _, r := range packed {
		key, raw := r.Fingerprint.Key(), Encode(r)
		entry(key, "pack/"+key[:2]+".pack", len(packs[key[:2]]), raw)
		packs[key[:2]] = append(packs[key[:2]], raw...)
	}
	for shard, data := range packs {
		if err := fsys.WriteFile("/fex/store/pack/"+shard+".pack", data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	index := fmt.Sprintf("FEXINDEX|1|gen=1|n=%d\n", len(lines))
	for _, l := range lines {
		index += l
	}
	lines = nil
	for _, r := range loose {
		key, raw := r.Fingerprint.Key(), Encode(r)
		entry(key, key[:2]+"/"+key, 0, raw)
		if err := fsys.WriteFile("/fex/store/"+key[:2]+"/"+key, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	journal := ""
	for _, l := range lines {
		journal += l
	}
	if err := fsys.WriteFile("/fex/store/index", []byte(index), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fsys.WriteFile("/fex/store/journal", []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}
}

// payloadRecords returns records for fpN(i), i in [from, to), each with
// payload "payload<i>".
func payloadRecords(from, to int) []Record {
	var out []Record
	for i := from; i < to; i++ {
		out = append(out, Record{Fingerprint: fpN(i), Payload: []byte(fmt.Sprintf("payload%03d", i))})
	}
	return out
}

// assertCurrentLayout fails unless the store root holds only shard
// directories of record files.
func assertCurrentLayout(t *testing.T, fsys *vfs.FS) {
	t.Helper()
	entries, err := fsys.ReadDir("/fex/store")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir || len(e.Name) != 2 {
			t.Errorf("store root holds %s after the upgrade", e.Name)
		}
	}
}

// TestIndexSelfHeals pins that no damage to a legacy store's index or
// journal costs a record: the upgrade reads the packs and record files
// themselves, so with the index deleted, corrupt, or the journal corrupt
// or cut, every record resolves with its payload afterwards, a loose
// record wins over a packed copy of its key, and only shard directories
// are left.
func TestIndexSelfHeals(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(fsys *vfs.FS) error
	}{
		{"deleted index", func(fsys *vfs.FS) error {
			if err := fsys.Remove("/fex/store/index"); err != nil {
				return err
			}
			return fsys.Remove("/fex/store/journal")
		}},
		{"corrupt index", func(fsys *vfs.FS) error {
			return fsys.WriteFile("/fex/store/index", []byte("FEXINDEX|1|gen=9|n=0\ngarbage\n"), 0o644)
		}},
		{"corrupt journal", func(fsys *vfs.FS) error {
			return fsys.WriteFile("/fex/store/journal", []byte("not|a|journal|line\n"), 0o644)
		}},
		{"truncated journal", func(fsys *vfs.FS) error {
			data, err := fsys.ReadFile("/fex/store/journal")
			if err != nil {
				return err
			}
			return fsys.WriteFile("/fex/store/journal", data[:len(data)-3], 0o644)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 8
			fsys := vfs.New()
			// Records 0–4 packed, 4–7 loose: record 4 has a stale packed
			// copy and a newer loose one.
			stale := payloadRecords(0, 5)
			stale[4].Payload = []byte("stale")
			writeLegacy(t, fsys, stale, payloadRecords(4, n))
			if err := tc.damage(fsys); err != nil {
				t.Fatal(err)
			}
			s := New(fsys, "/fex/store")
			if err := s.Upgrade(); err != nil {
				t.Fatal(err)
			}
			assertCurrentLayout(t, fsys)
			fps := make([]Fingerprint, n)
			for i := range fps {
				fps[i] = fpN(i)
			}
			results, err := s.BulkGet(fps)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range results {
				if !r.Present || r.Err != nil {
					t.Fatalf("record %d lost: present=%t err=%v", i, r.Present, r.Err)
				}
				if want := fmt.Sprintf("payload%03d", i); string(r.Payload) != want {
					t.Errorf("record %d payload %q, want %q", i, r.Payload, want)
				}
			}
			if recs, err := s.Records(); err != nil || len(recs) != n {
				t.Errorf("Records after upgrade: %d, %v; want %d", len(recs), err, n)
			}
			// A second upgrade finds nothing to do.
			before := fsys.Ops()
			if err := s.Upgrade(); err != nil {
				t.Fatal(err)
			}
			if ops := fsys.Ops() - before; ops != 1 {
				t.Errorf("upgrading a current root took %d vfs ops, want 1", ops)
			}
		})
	}
}

// damagePack rewrites the first pack file of a legacy store through fn.
func damagePack(t *testing.T, fsys *vfs.FS, fn func([]byte) []byte) string {
	t.Helper()
	packs, err := fsys.ReadDir("/fex/store/pack")
	if err != nil || len(packs) == 0 {
		t.Fatalf("no pack files to damage: %v", err)
	}
	p := "/fex/store/pack/" + packs[0].Name
	data, err := fsys.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := fsys.WriteFile(p, fn(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestGetHealsDamagedPack upgrades a legacy store one of whose packs was
// damaged: cut in half, or with its first byte flipped. A pack's records
// end where it stops decoding, so every Get afterwards comes back clean
// — a hit with the true payload for each record still readable, a miss
// for the destroyed ones, never an error — and re-measuring (a re-Put)
// restores the lost cells.
func TestGetHealsDamagedPack(t *testing.T) {
	for name, damage := range map[string]func([]byte) []byte{
		"truncated": func(d []byte) []byte { return d[:len(d)/2] },
		"corrupted": func(d []byte) []byte { d[0] ^= 0xff; return d },
	} {
		t.Run(name, func(t *testing.T) {
			const n = 8
			fsys := vfs.New()
			writeLegacy(t, fsys, payloadRecords(0, n), nil)
			damagePack(t, fsys, damage)
			s := New(fsys, "/fex/store")
			if err := s.Upgrade(); err != nil {
				t.Fatal(err)
			}
			hits := 0
			for i := 0; i < n; i++ {
				payload, present, err := s.Get(fpN(i))
				if err != nil {
					t.Fatalf("get %d after a damaged pack: %v", i, err)
				}
				if present {
					hits++
					if want := fmt.Sprintf("payload%03d", i); string(payload) != want {
						t.Fatalf("get %d returned %q, want %q", i, payload, want)
					}
				}
			}
			if hits >= n || hits == 0 {
				t.Fatalf("%d of %d records survived damage to one pack, want a nonzero subset", hits, n)
			}
			recs, err := s.Records()
			if err != nil {
				t.Fatalf("records after upgrade: %v", err)
			}
			if len(recs) != hits {
				t.Fatalf("records found %d cells, per-key gets found %d", len(recs), hits)
			}
			for i := 0; i < n; i++ {
				if err := s.Put(fpN(i), []byte("again")); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < n; i++ {
				if _, present, err := s.Get(fpN(i)); err != nil || !present {
					t.Fatalf("record %d after re-put: present=%t err=%v", i, present, err)
				}
			}
		})
	}
}

// TestRecordsHealsMissingPack upgrades a legacy store whose index names
// a pack the filesystem no longer holds: Records afterwards returns the
// records of the packs that remain.
func TestRecordsHealsMissingPack(t *testing.T) {
	const n = 6
	fsys := vfs.New()
	writeLegacy(t, fsys, payloadRecords(0, n), nil)
	gone := damagePack(t, fsys, func([]byte) []byte { return nil })
	if err := fsys.Remove(gone); err != nil {
		t.Fatal(err)
	}
	s := New(fsys, "/fex/store")
	if err := s.Upgrade(); err != nil {
		t.Fatal(err)
	}
	recs, err := s.Records()
	if err != nil {
		t.Fatalf("records over a missing pack: %v", err)
	}
	if len(recs) >= n || len(recs) == 0 {
		t.Fatalf("got %d records, want a nonzero subset of %d", len(recs), n)
	}
}

// TestJournalTombstoneLoads pins that a legacy journal in which a deleted
// key's entry line is followed by a tombstone, its record file gone,
// upgrades as that key deleted: the key misses, Stats counts no record
// for it, and the journal is removed.
func TestJournalTombstoneLoads(t *testing.T) {
	fsys := vfs.New()
	kept, gone := fpN(0), fpN(1)
	writeLegacy(t, fsys, nil, []Record{{Fingerprint: kept, Payload: []byte("kept")}, {Fingerprint: gone, Payload: []byte("gone")}})
	key := gone.Key()
	if err := fsys.Remove("/fex/store/" + key[:2] + "/" + key); err != nil {
		t.Fatal(err)
	}
	journal, err := fsys.ReadFile("/fex/store/journal")
	if err != nil {
		t.Fatal(err)
	}
	journal = append(journal, key+"|-|0|0|-\n"...)
	if err := fsys.WriteFile("/fex/store/journal", journal, 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(fsys, "/fex/store")
	if err := s.Upgrade(); err != nil {
		t.Fatal(err)
	}
	if fsys.Exists("/fex/store/journal") {
		t.Error("journal survived the upgrade")
	}
	if st, err := s.Stats(); err != nil || st.Records != 1 {
		t.Errorf("Stats %+v, %v; want 1 record", st, err)
	}
	if payload, present, err := s.Get(gone); err != nil || present {
		t.Errorf("tombstoned key: payload %q present=%t err=%v, want a miss", payload, present, err)
	}
	if payload, present, err := s.Get(kept); err != nil || !present || string(payload) != "kept" {
		t.Errorf("kept key: payload %q present=%t err=%v", payload, present, err)
	}
}

// TestIndexEntryOutOfRangeHeals upgrades legacy stores whose journal
// carries entries with offsets near the int64 limit, for a loose record
// and for a pack that does not exist: the upgrade reads no offsets, so
// it neither panics nor serves bytes from them, and lookups afterwards
// serve the record file's true payload.
func TestIndexEntryOutOfRangeHeals(t *testing.T) {
	fp := fpN(0)
	key := fp.Key()
	for _, line := range []string{
		key + "|" + key[:2] + "/" + key + "|9223372036854775807|1|",
		key + "|" + key[:2] + "/" + key + "|1|9223372036854775807|",
		key + "|pack/" + key[:2] + ".pack|9223372036854775807|9223372036854775807|",
	} {
		fsys := vfs.New()
		writeLegacy(t, fsys, nil, []Record{{Fingerprint: fp, Payload: []byte("payload")}})
		journal, err := fsys.ReadFile("/fex/store/journal")
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256([]byte("x"))
		journal = append(journal, line+hex.EncodeToString(sum[:])+"\n"...)
		if err := fsys.WriteFile("/fex/store/journal", journal, 0o644); err != nil {
			t.Fatal(err)
		}
		s := New(fsys, "/fex/store")
		if err := s.Upgrade(); err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		res, err := s.BulkGet([]Fingerprint{fp})
		if err != nil || !res[0].Present || res[0].Err != nil || string(res[0].Payload) != "payload" {
			t.Fatalf("%s: bulk %+v err=%v", line, res, err)
		}
		if payload, present, err := s.Get(fp); err != nil || !present || string(payload) != "payload" {
			t.Fatalf("%s: get %q present=%t err=%v", line, payload, present, err)
		}
	}
}
