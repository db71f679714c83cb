package store

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"fex/internal/vfs"
)

// Storage layout: one file per cell under root, sharded by the first key
// byte pair (root/ab/abcdef...) so directory listings stay shallow.
const recordMagic = "FEXSTORE|1"

// Common errors, matchable with errors.Is.
var (
	// ErrCorrupt reports a store file that does not decode as a record.
	ErrCorrupt = errors.New("store: corrupt record")
	// ErrMismatch reports a record whose embedded fingerprint differs from
	// the one whose key addressed it — a content-address collision or a
	// tampered file. The caller must not replay such a record.
	ErrMismatch = errors.New("store: fingerprint mismatch")
)

// Record is one persisted cell: its full fingerprint (kept verbatim so
// lookups verify the content address instead of trusting it) and the cell's
// run-log shard bytes.
type Record struct {
	Fingerprint Fingerprint
	Payload     []byte
}

// Encode renders the record in the store's on-disk format: a magic line,
// one F|name|quoted-value line per fingerprint field, a DATA line carrying
// the payload byte count, then the payload verbatim.
func Encode(r Record) []byte {
	var sb strings.Builder
	sb.WriteString(recordMagic)
	sb.WriteByte('\n')
	for _, f := range r.Fingerprint.fields() {
		sb.WriteString("F|")
		sb.WriteString(f[0])
		sb.WriteByte('|')
		if f[0] == "threads" {
			sb.WriteString(f[1]) // digits and commas only; no quoting needed
		} else {
			sb.WriteString(strconv.Quote(f[1]))
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "DATA|%d\n", len(r.Payload))
	sb.Write(r.Payload)
	return []byte(sb.String())
}

// Decode parses a record previously produced by Encode. It is strict: the
// magic, the field set, the field order, and the payload length must all
// match exactly, so Decode∘Encode is the identity and any in-place
// corruption surfaces as ErrCorrupt rather than a silently skewed replay.
func Decode(data []byte) (Record, error) {
	r, n, err := decodeNext(data)
	if err != nil {
		return Record{}, err
	}
	if n != len(data) {
		return Record{}, fmt.Errorf("%w: %d trailing bytes after payload", ErrCorrupt, len(data)-n)
	}
	return r, nil
}

// decodeNext parses one record from the head of data and returns how many
// bytes it consumed — the streaming form of Decode that lets pack files
// hold records back to back. It shares Decode's strictness for everything
// inside the record; only trailing bytes are the caller's business.
func decodeNext(data []byte) (Record, int, error) {
	var r Record
	rest := string(data)
	line := func() (string, bool) {
		i := strings.IndexByte(rest, '\n')
		if i < 0 {
			return "", false
		}
		l := rest[:i]
		rest = rest[i+1:]
		return l, true
	}
	if l, ok := line(); !ok || l != recordMagic {
		return r, 0, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	want := Fingerprint{}.fields()
	values := make([]string, len(want))
	for i, f := range want {
		l, ok := line()
		if !ok {
			return r, 0, fmt.Errorf("%w: truncated fingerprint", ErrCorrupt)
		}
		prefix := "F|" + f[0] + "|"
		if !strings.HasPrefix(l, prefix) {
			return r, 0, fmt.Errorf("%w: expected field %q, got %q", ErrCorrupt, f[0], l)
		}
		raw := l[len(prefix):]
		if f[0] == "threads" {
			values[i] = raw
			continue
		}
		v, err := strconv.Unquote(raw)
		if err != nil {
			return r, 0, fmt.Errorf("%w: field %q: %v", ErrCorrupt, f[0], err)
		}
		// Reject non-canonical quotings ("\x41" for "A"): Encode emits
		// exactly strconv.Quote, and Decode must accept nothing else for
		// the decode/encode identity to hold.
		if strconv.Quote(v) != raw {
			return r, 0, fmt.Errorf("%w: non-canonical quoting of field %q", ErrCorrupt, f[0])
		}
		values[i] = v
	}
	fp := Fingerprint{
		Experiment: values[0],
		Suite:      values[1],
		Benchmark:  values[2],
		BuildType:  values[3],
		Reps:       values[5],
		Input:      values[6],
		Tool:       values[7],
		Dims:       values[8],
		ConfigHash: values[9],
	}
	if values[4] != "" {
		for _, s := range strings.Split(values[4], ",") {
			n, err := strconv.Atoi(s)
			if err != nil {
				return r, 0, fmt.Errorf("%w: bad thread count %q", ErrCorrupt, s)
			}
			fp.Threads = append(fp.Threads, n)
		}
	}
	// Reject non-canonical thread renderings ("01", "+2") so a decoded
	// record re-encodes to the exact input bytes.
	if got := fp.fields()[4][1]; got != values[4] {
		return r, 0, fmt.Errorf("%w: non-canonical thread list %q", ErrCorrupt, values[4])
	}
	l, ok := line()
	if !ok || !strings.HasPrefix(l, "DATA|") {
		return r, 0, fmt.Errorf("%w: missing DATA header", ErrCorrupt)
	}
	lenStr := l[len("DATA|"):]
	n, err := strconv.Atoi(lenStr)
	if err != nil || n < 0 || strconv.Itoa(n) != lenStr {
		return r, 0, fmt.Errorf("%w: bad DATA length %q", ErrCorrupt, l)
	}
	if len(rest) < n {
		return r, 0, fmt.Errorf("%w: payload is %d bytes, DATA header says %d", ErrCorrupt, len(rest), n)
	}
	r.Fingerprint = fp
	r.Payload = []byte(rest[:n])
	return r, len(data) - (len(rest) - n), nil
}

// Store is a content-addressed result store over a vfs filesystem — the
// same in-memory container filesystem that holds logs, CSVs, and plots, so
// SaveState/LoadState persistence (the CLI's --state file) carries the
// store across invocations for free.
//
// A Store is the single owner of its root: one mutex guards both its
// in-memory index and every write to the files under root, and no other
// writer touches them. Goroutines share one Store, never two Stores over
// one root. A --state file is loaded and saved whole, so two processes
// never share a root either: whichever saves last wins. After the files
// are replaced wholesale (Fex.LoadState), Reload drops the index so the
// next operation rebuilds it from them (see index.go).
type Store struct {
	fsys *vfs.FS
	root string

	mu      sync.Mutex
	loaded  bool                  // entries reflect snapshot+journal
	gen     int64                 // snapshot generation counter
	entries map[string]indexEntry // key → record location
}

// New returns a store rooted at root inside fsys.
func New(fsys *vfs.FS, root string) *Store {
	return &Store{fsys: fsys, root: root}
}

// Reload drops the in-memory index, so the next operation rebuilds it from
// the snapshot and journal under root — the call to make after those files
// were replaced behind the store's back.
func (s *Store) Reload() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.loaded = false
	s.entries = nil
}

// path returns the record file for a key, sharded by its first byte pair.
func (s *Store) path(key string) string {
	return s.root + "/" + key[:2] + "/" + key
}

// Put persists one cell under its fingerprint's content address: one
// whole-file write of the record, then one journal append announcing it.
// Both run under the store's lock, and vfs.WriteFile replaces the file
// whole under the filesystem's lock, so no reader and no saved state sees
// a torn record. Re-putting an existing fingerprint overwrites it (same
// key, same context — the newer measurement batch wins). A record whose
// write fails is not journaled.
func (s *Store) Put(fp Fingerprint, payload []byte) error {
	key := fp.Key()
	data := Encode(Record{Fingerprint: fp, Payload: payload})
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.fsys.WriteFile(s.path(key), data, 0o644); err != nil {
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	e := looseEntry(key, data)
	if _, err := s.fsys.Append(s.journalPath(), []byte(formatEntry(key, e))); err != nil {
		return fmt.Errorf("store: journal %s: %w", key, err)
	}
	if s.loaded {
		s.entries[key] = e
	}
	return nil
}

// Get looks a fingerprint up and returns the stored cell payload. The
// second return value reports whether the cell was present. A present
// record whose embedded fingerprint does not match fp (a content-address
// collision or tampering) returns ErrMismatch; a file that does not decode
// returns ErrCorrupt. Callers treat both as "re-measure".
//
// The index fast path only serves records that live inside pack files; a
// loose record is read from its own file exactly as before the index
// existed, so tampering semantics are unchanged. An index entry that
// promises a record Get cannot read triggers one self-heal rescan before
// the miss is final.
func (s *Store) Get(fp Fingerprint) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.ensureLoadedLocked(); err != nil {
		return nil, false, err
	}
	return s.getLocked(fp, true)
}

// getLocked is Get with the index loaded. Callers hold s.mu.
func (s *Store) getLocked(fp Fingerprint, retry bool) ([]byte, bool, error) {
	key := fp.Key()
	e, indexed := s.entries[key]
	if indexed && e.file == packDir+"/"+key[:2]+".pack" {
		if payload, perr := s.readPacked(fp, key, e); perr == nil {
			return payload, true, nil
		}
		// The pack disagrees with the index; fall through to the loose
		// probe and, failing that, the rescan below.
	}
	data, rerr := s.fsys.ReadFile(s.path(key))
	if rerr == nil {
		rec, derr := Decode(data)
		if derr != nil {
			return nil, true, derr
		}
		if !rec.Fingerprint.Equal(fp) {
			return nil, true, fmt.Errorf("%w: key %s", ErrMismatch, key)
		}
		return rec.Payload, true, nil
	}
	if !errors.Is(rerr, vfs.ErrNotExist) {
		return nil, false, fmt.Errorf("store: %w", rerr)
	}
	if indexed && retry {
		// The index promised a record nothing holds: self-heal and retry.
		if err := s.rescanLocked(); err != nil {
			return nil, false, err
		}
		return s.getLocked(fp, false)
	}
	return nil, false, nil
}

// readPacked reads one record out of a pack file via its index entry,
// verifying the byte range's digest and the embedded fingerprint before
// trusting it.
func (s *Store) readPacked(fp Fingerprint, key string, e indexEntry) ([]byte, error) {
	data, err := s.fsys.ReadFile(s.root + "/" + e.file)
	if err != nil {
		return nil, err
	}
	return verifySlice(data, key, e, fp)
}

// verifySlice extracts and verifies one record from a file's bytes using
// its index entry: bounds, digest, decode, and fingerprint must all agree
// before the payload is released for replay.
func verifySlice(data []byte, key string, e indexEntry, fp Fingerprint) ([]byte, error) {
	if e.off+e.length > int64(len(data)) || e.off < 0 {
		return nil, fmt.Errorf("%w: index entry for %s out of bounds", ErrCorrupt, key)
	}
	raw := data[e.off : e.off+e.length]
	if sumHex(raw) != e.sum {
		return nil, fmt.Errorf("%w: index digest mismatch for %s", ErrCorrupt, key)
	}
	rec, err := Decode(raw)
	if err != nil {
		return nil, err
	}
	if !rec.Fingerprint.Equal(fp) {
		return nil, fmt.Errorf("%w: key %s", ErrMismatch, key)
	}
	return rec.Payload, nil
}

// ensureLoadedLocked loads the index on first use. Callers hold s.mu.
func (s *Store) ensureLoadedLocked() error {
	if s.loaded {
		return nil
	}
	return s.loadLocked()
}

// Delete removes one fingerprint's record; deleting an absent record is
// not an error. The emptied shard directory is pruned so Walk-based
// consumers never traverse a growing set of husks, and the deletion is
// journaled so a reopened store does not resurrect it.
func (s *Store) Delete(fp Fingerprint) error {
	key := fp.Key()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.ensureLoadedLocked(); err != nil {
		return err
	}
	e, indexed := s.entries[key]
	if indexed && e.file == packDir+"/"+key[:2]+".pack" {
		return s.deletePackedLocked(key, e)
	}
	if err := s.removeLoose(key); err != nil {
		return err
	}
	if indexed {
		if _, err := s.fsys.Append(s.journalPath(), []byte(formatTombstone(key))); err != nil {
			return fmt.Errorf("store: journal %s: %w", key, err)
		}
		delete(s.entries, key)
	}
	return nil
}

// removeLoose deletes a loose record file and prunes its shard directory
// if that left it empty.
func (s *Store) removeLoose(key string) error {
	if err := s.fsys.Remove(s.path(key)); err != nil && !errors.Is(err, vfs.ErrNotExist) {
		return fmt.Errorf("store: %w", err)
	}
	s.pruneShardDir(key[:2])
	return nil
}

// pruneShardDir removes the shard directory when it is empty.
func (s *Store) pruneShardDir(shard string) {
	dir := s.root + "/" + shard
	if entries, err := s.fsys.ReadDir(dir); err == nil && len(entries) == 0 {
		_ = s.fsys.Remove(dir)
	}
}

// deletePackedLocked removes a record that lives inside a pack file: the
// pack is rewritten without the record (or removed outright when that
// empties it) and a fresh snapshot is persisted, since the surviving
// records' offsets shift. Callers hold s.mu.
func (s *Store) deletePackedLocked(key string, e indexEntry) error {
	packPath := s.root + "/" + e.file
	data, err := s.fsys.ReadFile(packPath)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var keep []byte
	for off := 0; off < len(data); {
		rec, n, derr := decodeNext(data[off:])
		if derr != nil {
			break
		}
		raw := data[off : off+n]
		if k := rec.Fingerprint.Key(); k != key {
			if cur, ok := s.entries[k]; ok && cur.file == e.file {
				s.entries[k] = indexEntry{file: e.file, off: int64(len(keep)), length: int64(n), sum: sumHex(raw)}
			}
			keep = append(keep, raw...)
		}
		off += n
	}
	delete(s.entries, key)
	if len(keep) == 0 {
		if err := s.fsys.Remove(packPath); err != nil && !errors.Is(err, vfs.ErrNotExist) {
			return fmt.Errorf("store: %w", err)
		}
	} else if err := s.fsys.WriteFile(packPath, keep, 0o644); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.gen++
	return s.persistLocked()
}

// Keys lists the stored content addresses, sorted.
func (s *Store) Keys() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.ensureLoadedLocked(); err != nil {
		return nil, err
	}
	keys := make([]string, 0, len(s.entries))
	for k := range s.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, nil
}

// Records decodes every stored cell, in sorted key order, reading each
// backing file once (one read per pack, not per record). Each record's
// embedded fingerprint is verified against the content address it was
// filed under, so a tampered or corrupt entry surfaces as an error (with
// ErrCorrupt / ErrMismatch in its chain) rather than leaking into a
// cross-run analysis.
func (s *Store) Records() ([]Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.ensureLoadedLocked(); err != nil {
		return nil, err
	}
	return s.recordsLocked(true)
}

// recordsLocked is Records with the index loaded. Callers hold s.mu.
func (s *Store) recordsLocked(retry bool) ([]Record, error) {
	keys := make([]string, 0, len(s.entries))
	for k := range s.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Record, 0, len(keys))
	cache := map[string][]byte{}
	for _, key := range keys {
		e := s.entries[key]
		data, cached := cache[e.file]
		if !cached {
			d, rerr := s.fsys.ReadFile(s.root + "/" + e.file)
			if rerr != nil {
				if errors.Is(rerr, vfs.ErrNotExist) && retry {
					// A file the index promised is gone: self-heal once.
					if herr := s.rescanLocked(); herr != nil {
						return nil, herr
					}
					return s.recordsLocked(false)
				}
				return nil, fmt.Errorf("store: %w", rerr)
			}
			data = d
			cache[e.file] = d
		}
		raw := data
		if e.file == packDir+"/"+key[:2]+".pack" {
			if e.off+e.length > int64(len(data)) {
				return nil, fmt.Errorf("store: record %s: %w: index entry out of bounds", key, ErrCorrupt)
			}
			raw = data[e.off : e.off+e.length]
		}
		rec, err := Decode(raw)
		if err != nil {
			return nil, fmt.Errorf("store: record %s: %w", key, err)
		}
		if rec.Fingerprint.Key() != key {
			return nil, fmt.Errorf("%w: record filed under %s has key %s", ErrMismatch, key, rec.Fingerprint.Key())
		}
		out = append(out, rec)
	}
	return out, nil
}

// Stats summarizes the store's footprint.
type Stats struct {
	// Records is the number of stored cells.
	Records int
	// Bytes is the total stored byte count.
	Bytes int64
}

// Stats returns the store's current footprint.
func (s *Store) Stats() (Stats, error) {
	keys, err := s.Keys()
	if err != nil {
		return Stats{}, err
	}
	var total int64
	if s.fsys.IsDir(s.root) {
		total, err = s.fsys.TotalSize(s.root)
		if err != nil {
			return Stats{}, fmt.Errorf("store: %w", err)
		}
	}
	return Stats{Records: len(keys), Bytes: total}, nil
}

// Clean evicts the entire store — the "fex clean" story. Entries are
// immutable and content-addressed, so there is no finer-grained eviction
// to reason about: stale entries are never replayed (their keys are never
// asked for again) and wholesale removal is always safe.
func (s *Store) Clean() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.fsys.RemoveAll(s.root); err != nil {
		return fmt.Errorf("store: clean: %w", err)
	}
	s.entries = map[string]indexEntry{}
	s.gen = 0
	s.loaded = true
	return nil
}
