package store

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"fex/internal/vfs"
)

// Storage layout: one file per cell under root, sharded by the first key
// byte pair (root/ab/abcdef...) so directory listings stay shallow.
const (
	recordMagic = "FEXSTORE|1"
	// dataTag opens the line carrying the payload's byte count; a record
	// whose payload the store folded carries a FOLD line instead (see
	// fold.go).
	dataTag = "DATA|"
)

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

// Encode renders the record in its canonical, unfolded form: a magic
// line, one F|name|quoted-value line per fingerprint field, a DATA line
// carrying the payload byte count, then the payload verbatim. This is
// what `fex export` writes and what RunSet digests hash. The store writes
// a payload with no repeated run the same way; one with a run it writes
// folded (see fold.go).
func Encode(r Record) []byte {
	var buf [512]byte
	return encode(r.Fingerprint.appendHeader(buf[:0]), r.Payload)
}

// encode renders a record from its fingerprint's header (appendHeader)
// and its payload, into one slice of exactly the record's size.
func encode(header, payload []byte) []byte {
	var num [20]byte
	n := strconv.AppendInt(num[:0], int64(len(payload)), 10)
	out := make([]byte, 0, len(header)+len(dataTag)+len(n)+1+len(payload))
	out = append(out, header...)
	out = append(out, dataTag...)
	out = append(out, n...)
	out = append(out, '\n')
	return append(out, payload...)
}

// Decode parses a record as Encode renders it or as the store writes it
// folded, and returns the unfolded payload. It is strict: the magic, the
// field set, the field order, the payload length and the fold must all be
// canonical, so every record it accepts renders back to its exact bytes
// (through Encode for a DATA record, through the store's fold for a FOLD
// record) and any in-place corruption surfaces as ErrCorrupt rather than a
// silently skewed replay.
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
// bytes it consumed — the streaming form of Decode that splits a legacy
// pack's records, held back to back (see Upgrade). It shares Decode's
// strictness for everything inside the record; only trailing bytes are
// the caller's business.
func decodeNext(data []byte) (Record, int, error) {
	var r Record
	rest := data
	line := func() ([]byte, bool) {
		i := bytes.IndexByte(rest, '\n')
		if i < 0 {
			return nil, false
		}
		l := rest[:i]
		rest = rest[i+1:]
		return l, true
	}
	if l, ok := line(); !ok || string(l) != recordMagic {
		return r, 0, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	var values [len(fieldNames)]string
	for i, name := range fieldNames {
		l, ok := line()
		if !ok {
			return r, 0, fmt.Errorf("%w: truncated fingerprint", ErrCorrupt)
		}
		if len(l) < len(name)+3 || string(l[:2]) != "F|" || string(l[2:2+len(name)]) != name || l[2+len(name)] != '|' {
			return r, 0, fmt.Errorf("%w: expected field %q, got %q", ErrCorrupt, name, l)
		}
		raw := string(l[len(name)+3:])
		if i == threadsField {
			values[i] = raw
			continue
		}
		v, err := strconv.Unquote(raw)
		if err != nil {
			return r, 0, fmt.Errorf("%w: field %q: %v", ErrCorrupt, name, err)
		}
		// Reject non-canonical quotings ("\x41" for "A"): Encode emits
		// exactly strconv.Quote, and Decode must accept nothing else for
		// the decode/encode identity to hold.
		if strconv.Quote(v) != raw {
			return r, 0, fmt.Errorf("%w: non-canonical quoting of field %q", ErrCorrupt, name)
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
	if threads := values[threadsField]; threads != "" {
		for _, s := range strings.Split(threads, ",") {
			n, err := strconv.Atoi(s)
			if err != nil {
				return r, 0, fmt.Errorf("%w: bad thread count %q", ErrCorrupt, s)
			}
			fp.Threads = append(fp.Threads, n)
		}
		// Reject non-canonical thread renderings ("01", "+2") so a
		// decoded record re-encodes to the exact input bytes.
		if string(appendThreads(nil, fp.Threads)) != threads {
			return r, 0, fmt.Errorf("%w: non-canonical thread list %q", ErrCorrupt, threads)
		}
	}
	payload, n, folded, err := decodePayload(rest)
	if err != nil {
		return r, 0, err
	}
	if !folded {
		payload = append([]byte(nil), payload...)
	}
	r.Fingerprint = fp
	r.Payload = payload
	return r, len(data) - len(rest) + n, nil
}

// verifyRecord checks that raw is c's record and returns its payload. A
// record that starts byte for byte with the header rendered for c's
// fingerprint passes once its DATA or FOLD line frames the rest; any
// other bytes go through Decode and Equal, which say what is wrong with
// them (ErrCorrupt or ErrMismatch). Since Decode accepts only canonical
// renderings, both paths accept the same records with the same payloads.
func verifyRecord(raw []byte, c Cell) ([]byte, error) {
	if payload, ok := exactPayload(raw, c.header); ok {
		return payload, nil
	}
	rec, err := Decode(raw)
	if err != nil {
		return nil, err
	}
	if !rec.Fingerprint.Equal(c.Fingerprint) {
		return nil, fmt.Errorf("%w: key %s", ErrMismatch, c.key)
	}
	return rec.Payload, nil
}

// exactPayload returns the payload of raw when raw is header, then a
// DATA or FOLD line and the bytes it frames, and nothing after them. A
// DATA payload is raw's own bytes, not a copy, with its capacity ending
// at its length, so appending to it cannot write into whatever follows
// it in raw; a FOLD payload is unfolded into a new slice.
func exactPayload(raw, header []byte) ([]byte, bool) {
	if !bytes.HasPrefix(raw, header) {
		return nil, false
	}
	rest := raw[len(header):]
	payload, n, _, err := decodePayload(rest)
	if err != nil || n != len(rest) {
		return nil, false
	}
	return payload[:len(payload):len(payload)], true
}

// Store is a content-addressed result store over a vfs filesystem — the
// same in-memory container filesystem that holds logs, CSVs, and plots, so
// SaveState/LoadState persistence (the CLI's --state file) carries the
// store across invocations for free.
//
// The layout is one encoded record per file at root/ab/<key>, sharded by
// the key's first byte pair so directory listings stay shallow, with
// nothing else beside the records: the layout `fex export` writes. Every
// lookup reads its key's file and verifies it, so what the files say is
// all there is to trust.
//
// A Store is the single owner of its root: its mutex orders every write
// under root (Put, Compact, Clean, Upgrade), and no other writer touches
// them. Each vfs call is atomic, so a lookup takes no lock: it sees a
// record whole or not at all. Goroutines share one Store, never two
// Stores over one root. A --state file is loaded and saved whole, so two
// processes never share a root either: whichever saves last wins.
type Store struct {
	fsys *vfs.FS
	root string
	mu   sync.Mutex // orders writes under root
}

// New returns a store rooted at root inside fsys.
func New(fsys *vfs.FS, root string) *Store {
	return &Store{fsys: fsys, root: root}
}

// path returns the record file for a key, sharded by its first byte pair.
func (s *Store) path(key string) string {
	return s.root + "/" + key[:2] + "/" + key
}

// isKey reports whether name has the form of a content address: 64 lower
// case hex digits.
func isKey(name string) bool {
	if len(name) != 64 {
		return false
	}
	for i := 0; i < len(name); i++ {
		if c := name[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Put persists one cell under its fingerprint's content address: one
// whole-file write of the record, folded when its payload repeats a
// line (see fold.go). vfs.WriteFile replaces the file whole
// under the filesystem's lock, so no reader and no saved state sees a
// torn record. Re-putting an existing fingerprint overwrites it (same
// key, same context — the newer measurement batch wins).
func (s *Store) Put(fp Fingerprint, payload []byte) error {
	return s.PutCell(NewCell(fp), payload)
}

// PutCell is Put for a fingerprint already rendered as a Cell.
func (s *Store) PutCell(c Cell, payload []byte) error {
	data := encodeStored(c.header, payload)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.fsys.WriteFile(s.path(c.key), data, 0o644); err != nil {
		return fmt.Errorf("store: put %s: %w", c.key, err)
	}
	return nil
}

// Get looks a fingerprint up and returns the stored cell payload. The
// second return value reports whether the cell was present. A present
// record whose embedded fingerprint does not match fp (a content-address
// collision or tampering) returns ErrMismatch; a file that does not decode
// returns ErrCorrupt. Callers treat both as "re-measure". The payload may
// share the stored file's bytes: callers must not modify it.
func (s *Store) Get(fp Fingerprint) ([]byte, bool, error) {
	return s.get(NewCell(fp))
}

// get reads c's record file and verifies it against c. The record is
// read without a copy (vfs.FS.ReadFileShared), so the payload may share
// the file's bytes and is read-only.
func (s *Store) get(c Cell) ([]byte, bool, error) {
	data, err := s.fsys.ReadFileShared(s.path(c.key))
	if errors.Is(err, vfs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("store: %w", err)
	}
	payload, err := verifyRecord(data, c)
	return payload, true, err
}

// recordFiles lists the record files under root in key order: the files
// named by a key inside that key's shard directory. Nothing else under
// root is a record.
func (s *Store) recordFiles() ([]vfs.Stat, error) {
	var files []vfs.Stat
	err := s.fsys.Walk(s.root, func(st vfs.Stat) error {
		if !st.IsDir && isKey(st.Name) && st.Path == s.path(st.Name) {
			files = append(files, st)
		}
		return nil
	})
	if err != nil && !errors.Is(err, vfs.ErrNotExist) {
		return nil, fmt.Errorf("store: %w", err)
	}
	return files, nil
}

// Records decodes every stored cell, in sorted key order. Each record's
// embedded fingerprint is verified against the content address it was
// filed under, so a tampered or corrupt entry surfaces as an error (with
// ErrCorrupt / ErrMismatch in its chain) rather than leaking into a
// cross-run analysis.
func (s *Store) Records() ([]Record, error) {
	files, err := s.recordFiles()
	if err != nil {
		return nil, err
	}
	out := make([]Record, 0, len(files))
	for _, f := range files {
		rec, err := s.readRecord(f)
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, nil
}

// readRecord reads and decodes the record file f (see recordFiles) and
// checks that the record is filed under its own key.
func (s *Store) readRecord(f vfs.Stat) (Record, error) {
	data, err := s.fsys.ReadFile(f.Path)
	if err != nil {
		return Record{}, fmt.Errorf("store: %w", err)
	}
	rec, err := Decode(data)
	if err != nil {
		return Record{}, fmt.Errorf("store: record %s: %w", f.Name, err)
	}
	if key := rec.Fingerprint.Key(); key != f.Name {
		return Record{}, fmt.Errorf("%w: record filed under %s has key %s", ErrMismatch, f.Name, key)
	}
	return rec, nil
}

// Stats summarizes the store's footprint.
type Stats struct {
	// Records is the number of stored cells.
	Records int
	// Bytes is the total stored byte count.
	Bytes int64
}

// Stats returns the store's current footprint: its record files and
// their total size.
func (s *Store) Stats() (Stats, error) {
	files, err := s.recordFiles()
	if err != nil {
		return Stats{}, err
	}
	st := Stats{Records: len(files)}
	for _, f := range files {
		st.Bytes += f.Size
	}
	return st, nil
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
	return nil
}
