package store

import (
	"sort"
)

// Result is one BulkGet resolution, mirroring Get's three return values:
// the payload when present and valid, Present reporting whether a record
// existed for the fingerprint, and Err carrying ErrCorrupt/ErrMismatch for
// present-but-unreplayable records.
type Result struct {
	Payload []byte
	Present bool
	Err     error
}

// BulkGet resolves a whole set of fingerprints in one store pass: the
// index is loaded at most once (never per key) and every backing file that
// holds a hit is read exactly once, however many records it serves — for
// a compacted store that is one read per pack shard, not one per cell.
// Results are positionally aligned with fps.
//
// BulkGet trusts the index for misses: a record file written behind the
// store's back (no journal entry) is reported absent, which the replay
// path answers by re-measuring — the safe direction. Any entry whose bytes
// fail verification falls back to the per-key Get path, so hits keep
// exactly Get's semantics; for arbitrary API-driven store states the two
// are equivalent (a property the test suite pins).
func (s *Store) BulkGet(fps []Fingerprint) ([]Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.ensureLoadedLocked(); err != nil {
		return nil, err
	}
	type want struct {
		i   int
		key string
		e   indexEntry
	}
	byFile := map[string][]want{}
	for i, fp := range fps {
		key := fp.Key()
		if e, ok := s.entries[key]; ok {
			byFile[e.file] = append(byFile[e.file], want{i: i, key: key, e: e})
		}
	}
	files := make([]string, 0, len(byFile))
	for f := range byFile {
		files = append(files, f)
	}
	sort.Strings(files)
	out := make([]Result, len(fps))
	for _, file := range files {
		data, err := s.fsys.ReadFile(s.root + "/" + file)
		for _, w := range byFile[file] {
			if err == nil {
				if payload, verr := verifySlice(data, w.key, w.e, fps[w.i]); verr == nil {
					out[w.i] = Result{Payload: payload, Present: true}
					continue
				}
			}
			// The index entry and its file disagree: resolve the key
			// through the per-key Get path.
			payload, present, gerr := s.getLocked(fps[w.i], true)
			out[w.i] = Result{Payload: payload, Present: present, Err: gerr}
		}
	}
	return out, nil
}
