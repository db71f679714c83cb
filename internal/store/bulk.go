package store

import (
	"slices"
	"strings"
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
	cells := make([]Cell, len(fps))
	for i, fp := range fps {
		cells[i] = NewCell(fp)
	}
	return s.BulkGetCells(cells)
}

// BulkGetCells is BulkGet for fingerprints already rendered as Cells.
func (s *Store) BulkGetCells(cells []Cell) ([]Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.ensureLoadedLocked(); err != nil {
		return nil, err
	}
	// Each hit, ordered by the file that holds it, so each file is read
	// once.
	type want struct {
		i int
		e indexEntry
	}
	hits := make([]want, 0, len(cells))
	for i := range cells {
		if e, ok := s.entries[cells[i].key]; ok {
			hits = append(hits, want{i: i, e: e})
		}
	}
	slices.SortStableFunc(hits, func(a, b want) int { return strings.Compare(a.e.file, b.e.file) })
	out := make([]Result, len(cells))
	var data []byte
	var err error
	for j, w := range hits {
		if j == 0 || w.e.file != hits[j-1].e.file {
			data, err = s.fsys.ReadFile(s.root + "/" + w.e.file)
		}
		if err == nil {
			if payload, verr := verifySlice(data, w.e, cells[w.i]); verr == nil {
				out[w.i] = Result{Payload: payload, Present: true}
				continue
			}
		}
		// The index entry and its file disagree: resolve the key
		// through the per-key Get path.
		payload, present, gerr := s.getLocked(cells[w.i], true)
		out[w.i] = Result{Payload: payload, Present: present, Err: gerr}
	}
	return out, nil
}
