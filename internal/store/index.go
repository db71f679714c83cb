package store

// Index layer: the store keeps a persistent index mapping each fingerprint
// key to the exact byte range holding its record, so planning a resumed
// run reads a handful of files instead of probing one path per cell.
//
// On-disk state under the store root:
//
//	<ab>/<key>      loose record files, written by Put
//	pack/<ab>.pack  packed shards: records concatenated in key order,
//	                written only by Compact
//	index           index snapshot: header, sorted entry lines, integrity
//	                trailer
//	journal         entry lines appended since the snapshot (one per
//	                Put; vfs.Append keeps each line atomic)
//
// The Store owning the root is its only writer, and its mutex serializes
// every write: Put writes a whole record file and appends one journal
// line; maintenance (Compact, a self-heal rescan) rewrites the snapshot
// and empties the journal. The in-memory index is
// loaded once and kept current by the store's own writes. It is still a
// cache over the record files: a missing or corrupt snapshot, an
// unparseable journal, or an entry whose bytes fail verification all fall
// back to the files themselves and trigger a rescan — a damaged index can
// cost time, never a wrong replay.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"fex/internal/vfs"
)

const (
	indexMagic  = "FEXINDEX|1"
	indexFile   = "index"
	journalFile = "journal"
	packDir     = "pack"
	// tombstone marks a deleted key in the journal (never in a snapshot).
	// Nothing writes tombstones any more; journals of older states that
	// hold them still load.
	tombstone = "-"
	// entryLen bounds the length of an index or journal line: a key, a
	// loose file name, two offsets of at most 19 digits, a digest, four
	// separators and the newline.
	entryLen = 64 + 1 + (3 + 64) + 1 + 19 + 1 + 19 + 1 + 64 + 1
)

// indexEntry locates one record's bytes relative to the store root.
type indexEntry struct {
	// file is "ab/<key>" for a loose record or "pack/ab.pack" for a packed
	// one, where ab is the key's shard prefix.
	file string
	// off and length delimit the encoded record inside file.
	off    int64
	length int64
	// sum is the hex SHA-256 of those record bytes, so a stale entry is
	// detected before its payload can be replayed.
	sum string
}

// packed reports whether the entry's record lives in a pack file.
func (e indexEntry) packed() bool { return strings.HasPrefix(e.file, packDir+"/") }

// slice returns the entry's byte range of data, the bytes of its file,
// and false when the range lies outside them.
func (e indexEntry) slice(data []byte) ([]byte, bool) {
	if e.off < 0 || e.length < 0 || e.length > int64(len(data)) || e.off > int64(len(data))-e.length {
		return nil, false
	}
	return data[e.off : e.off+e.length], true
}

func (s *Store) indexPath() string   { return s.root + "/" + indexFile }
func (s *Store) journalPath() string { return s.root + "/" + journalFile }

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func sumHex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// looseEntry builds the index entry for a loose record file holding data.
func looseEntry(key string, data []byte) indexEntry {
	return indexEntry{
		file:   key[:2] + "/" + key,
		off:    0,
		length: int64(len(data)),
		sum:    sumHex(data),
	}
}

// appendEntry appends one index/journal line to b:
// key|file|off|length|sum and a newline.
func appendEntry(b []byte, key string, e indexEntry) []byte {
	b = append(b, key...)
	b = append(b, '|')
	b = append(b, e.file...)
	b = append(b, '|')
	b = strconv.AppendInt(b, e.off, 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, e.length, 10)
	b = append(b, '|')
	b = append(b, e.sum...)
	return append(b, '\n')
}

// parseEntry parses one index/journal line. It is strict — five fields,
// hex keys and sums, canonical decimal offsets, and a file path fully
// determined by the key — so any in-place corruption surfaces as a parse
// error (and therefore a rescan) rather than a misdirected lookup.
func parseEntry(line string) (string, indexEntry, error) {
	f := strings.Split(line, "|")
	if len(f) != 5 {
		return "", indexEntry{}, fmt.Errorf("index entry has %d fields, want 5", len(f))
	}
	key := f[0]
	if len(key) != 64 || !isLowerHex(key) {
		return "", indexEntry{}, fmt.Errorf("bad index key %q", key)
	}
	e := indexEntry{file: f[1], sum: f[4]}
	if e.file == tombstone {
		if f[2] != "0" || f[3] != "0" || e.sum != tombstone {
			return "", indexEntry{}, fmt.Errorf("malformed tombstone for %s", key)
		}
		return key, e, nil
	}
	switch e.file {
	case key[:2] + "/" + key: // loose record
	case packDir + "/" + key[:2] + ".pack": // packed record
	default:
		return "", indexEntry{}, fmt.Errorf("index entry for %s names foreign file %q", key, e.file)
	}
	for i, dst := range []*int64{&e.off, &e.length} {
		v, err := strconv.ParseInt(f[2+i], 10, 64)
		if err != nil || v < 0 || strconv.FormatInt(v, 10) != f[2+i] {
			return "", indexEntry{}, fmt.Errorf("bad index offset %q", f[2+i])
		}
		*dst = v
	}
	if len(e.sum) != 64 || !isLowerHex(e.sum) {
		return "", indexEntry{}, fmt.Errorf("bad index digest %q", e.sum)
	}
	return key, e, nil
}

// encodeIndex renders an index snapshot: a header carrying the generation
// counter and entry count, the entries sorted by key, and an integrity
// trailer digesting everything above it.
func encodeIndex(gen int64, entries map[string]indexEntry) []byte {
	keys := make([]string, 0, len(entries))
	for k := range entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	const trailerLen = len("SUM|") + 2*sha256.Size + 1
	b := make([]byte, 0, 64+len(entries)*entryLen+trailerLen)
	b = append(b, indexMagic+"|gen="...)
	b = strconv.AppendInt(b, gen, 10)
	b = append(b, "|n="...)
	b = strconv.AppendInt(b, int64(len(entries)), 10)
	b = append(b, '\n')
	for _, k := range keys {
		b = appendEntry(b, k, entries[k])
	}
	sum := sha256.Sum256(b)
	b = append(b, "SUM|"...)
	b = hex.AppendEncode(b, sum[:])
	return append(b, '\n')
}

// decodeIndex parses a snapshot produced by encodeIndex. Any deviation —
// bad trailer, bad header, entry count mismatch, out-of-order or duplicate
// keys, tombstones — is an error; the caller answers every error with a
// rescan, so decodeIndex never needs to guess.
func decodeIndex(data []byte) (int64, map[string]indexEntry, error) {
	const trailerLen = len("SUM|") + 64 + 1
	if len(data) < trailerLen || data[len(data)-1] != '\n' {
		return 0, nil, errors.New("index truncated")
	}
	body := data[:len(data)-trailerLen]
	trailer := string(data[len(data)-trailerLen : len(data)-1])
	if sum := sha256.Sum256(body); trailer != "SUM|"+hex.EncodeToString(sum[:]) {
		return 0, nil, errors.New("index integrity trailer mismatch")
	}
	if len(body) == 0 || body[len(body)-1] != '\n' {
		return 0, nil, errors.New("index body truncated")
	}
	lines := strings.Split(string(body[:len(body)-1]), "\n")
	head := strings.Split(lines[0], "|")
	if len(head) != 4 || head[0]+"|"+head[1] != indexMagic {
		return 0, nil, fmt.Errorf("bad index header %q", lines[0])
	}
	genStr := strings.TrimPrefix(head[2], "gen=")
	gen, err := strconv.ParseInt(genStr, 10, 64)
	if genStr == head[2] || err != nil || gen < 0 || strconv.FormatInt(gen, 10) != genStr {
		return 0, nil, fmt.Errorf("bad index generation %q", head[2])
	}
	nStr := strings.TrimPrefix(head[3], "n=")
	n, err := strconv.Atoi(nStr)
	if nStr == head[3] || err != nil || n < 0 || strconv.Itoa(n) != nStr {
		return 0, nil, fmt.Errorf("bad index entry count %q", head[3])
	}
	if len(lines)-1 != n {
		return 0, nil, fmt.Errorf("index header says %d entries, found %d", n, len(lines)-1)
	}
	entries := make(map[string]indexEntry, n)
	prev := ""
	for _, l := range lines[1:] {
		key, e, err := parseEntry(l)
		if err != nil {
			return 0, nil, err
		}
		if e.file == tombstone {
			return 0, nil, fmt.Errorf("tombstone for %s in snapshot", key)
		}
		if key <= prev {
			return 0, nil, fmt.Errorf("index entries out of order at %s", key)
		}
		prev = key
		entries[key] = e
	}
	return gen, entries, nil
}

// applyJournal replays journal bytes onto entries. The journal is written
// by atomic whole-line appends, so a partial final line means corruption,
// not an in-flight write.
func applyJournal(entries map[string]indexEntry, data []byte) error {
	for len(data) > 0 {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			return errors.New("journal truncated mid-line")
		}
		key, e, err := parseEntry(string(data[:i]))
		if err != nil {
			return err
		}
		if e.file == tombstone {
			delete(entries, key)
		} else {
			entries[key] = e
		}
		data = data[i+1:]
	}
	return nil
}

// loadLocked (re)builds the in-memory index from the snapshot and journal
// files. A missing snapshot with a journal is normal (no maintenance has
// run yet); a snapshot or journal that fails to parse, or record files
// with no index state at all (a store written before the index existed),
// trigger a self-heal rescan.
func (s *Store) loadLocked() error {
	iData, err := s.fsys.ReadFile(s.indexPath())
	haveSnap := err == nil
	if err != nil && !errors.Is(err, vfs.ErrNotExist) {
		return fmt.Errorf("store: index: %w", err)
	}
	jData, err := s.fsys.ReadFile(s.journalPath())
	haveJournal := err == nil
	if err != nil && !errors.Is(err, vfs.ErrNotExist) {
		return fmt.Errorf("store: journal: %w", err)
	}
	var gen int64
	entries := map[string]indexEntry{}
	if haveSnap {
		gen, entries, err = decodeIndex(iData)
		if err != nil {
			return s.rescanLocked()
		}
	}
	if haveJournal {
		if err := applyJournal(entries, jData); err != nil {
			return s.rescanLocked()
		}
	}
	if !haveSnap && !haveJournal && s.hasRecordFiles() {
		return s.rescanLocked()
	}
	s.gen = gen
	s.entries = entries
	s.loaded = true
	return nil
}

// hasRecordFiles reports whether the root holds record files (shard dirs
// or packs) — the legacy-layout test deciding whether a store with no
// index state needs a rescan or is simply empty.
func (s *Store) hasRecordFiles() bool {
	if !s.fsys.IsDir(s.root) {
		return false
	}
	dirs, err := s.fsys.ReadDir(s.root)
	if err != nil {
		return false
	}
	for _, d := range dirs {
		if d.IsDir && (d.Name == packDir || (len(d.Name) == 2 && isLowerHex(d.Name))) {
			return true
		}
	}
	return false
}

// scanRec is one record discovered by scanFiles.
type scanRec struct {
	fp    Fingerprint
	raw   []byte // full encoded record bytes
	entry indexEntry
}

// scanFiles reads every decodable, correctly-filed record under the root:
// loose shard files first, then packs, with a loose record shadowing a
// packed one for the same key (the loose file is always the newer write).
// Undecodable or misfiled files are skipped — they are exactly the files
// the per-key Get path must keep surfacing as ErrCorrupt/ErrMismatch.
func (s *Store) scanFiles() (map[string]scanRec, error) {
	recs := map[string]scanRec{}
	if !s.fsys.IsDir(s.root) {
		return recs, nil
	}
	dirs, err := s.fsys.ReadDir(s.root)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, d := range dirs {
		if !d.IsDir || len(d.Name) != 2 || !isLowerHex(d.Name) {
			continue
		}
		files, err := s.fsys.ReadDir(s.root + "/" + d.Name)
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		for _, f := range files {
			if f.IsDir || len(f.Name) != 64 || !isLowerHex(f.Name) || f.Name[:2] != d.Name {
				continue
			}
			data, err := s.fsys.ReadFile(s.root + "/" + d.Name + "/" + f.Name)
			if err != nil {
				continue
			}
			rec, err := Decode(data)
			if err != nil || rec.Fingerprint.Key() != f.Name {
				continue
			}
			recs[f.Name] = scanRec{fp: rec.Fingerprint, raw: data, entry: looseEntry(f.Name, data)}
		}
	}
	if s.fsys.IsDir(s.root + "/" + packDir) {
		packs, err := s.fsys.ReadDir(s.root + "/" + packDir)
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		for _, p := range packs {
			if p.IsDir || !strings.HasSuffix(p.Name, ".pack") {
				continue
			}
			shard := strings.TrimSuffix(p.Name, ".pack")
			if len(shard) != 2 || !isLowerHex(shard) {
				continue
			}
			data, err := s.fsys.ReadFile(s.root + "/" + packDir + "/" + p.Name)
			if err != nil {
				continue
			}
			for off := 0; off < len(data); {
				rec, n, err := decodeNext(data[off:])
				if err != nil {
					break // corrupt tail: keep the records before it
				}
				key := rec.Fingerprint.Key()
				if key[:2] == shard {
					if _, exists := recs[key]; !exists {
						raw := data[off : off+n]
						recs[key] = scanRec{fp: rec.Fingerprint, raw: raw, entry: indexEntry{
							file:   packDir + "/" + p.Name,
							off:    int64(off),
							length: int64(n),
							sum:    sumHex(raw),
						}}
					}
				}
				off += n
			}
		}
	}
	return recs, nil
}

// rescanLocked rebuilds the index from the record files themselves — the
// self-heal path behind every index disagreement — and persists it.
func (s *Store) rescanLocked() error {
	recs, err := s.scanFiles()
	if err != nil {
		return err
	}
	entries := make(map[string]indexEntry, len(recs))
	for key, r := range recs {
		entries[key] = r.entry
	}
	s.entries = entries
	s.gen++
	s.loaded = true
	return s.persistLocked()
}

// persistLocked writes the in-memory index as a fresh snapshot and resets
// the journal. Callers hold s.mu.
func (s *Store) persistLocked() error {
	if err := s.fsys.WriteFile(s.indexPath(), encodeIndex(s.gen, s.entries), 0o644); err != nil {
		return fmt.Errorf("store: index: %w", err)
	}
	if err := s.fsys.WriteFile(s.journalPath(), nil, 0o644); err != nil {
		return fmt.Errorf("store: journal: %w", err)
	}
	return nil
}
