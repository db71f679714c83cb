package store

import (
	"errors"
	"fmt"
)

// CompactStats summarizes one compaction.
type CompactStats struct {
	// Kept is the number of records retained.
	Kept int
	// Dropped is the number of records evicted by the keep predicate.
	Dropped int
	// Bytes is the size of the dropped records: the bytes reclaimed.
	Bytes int64
}

// Compact garbage-collects the store under the store's lock, so no Put
// interleaves: each record failing the keep predicate (nil keeps
// everything) has its file removed, and so does a shard directory left
// empty. A file that does not decode as the record its name addresses is
// not a record Compact can judge, and stays for lookups to report as
// ErrCorrupt or ErrMismatch.
func (s *Store) Compact(keep func(Fingerprint) bool) (CompactStats, error) {
	var cs CompactStats
	s.mu.Lock()
	defer s.mu.Unlock()
	files, err := s.recordFiles()
	if err != nil {
		return cs, err
	}
	for _, f := range files {
		rec, err := s.readRecord(f)
		switch {
		case errors.Is(err, ErrCorrupt), errors.Is(err, ErrMismatch):
			continue
		case err != nil:
			return cs, err
		}
		if keep == nil || keep(rec.Fingerprint) {
			cs.Kept++
			continue
		}
		if err := s.fsys.Remove(f.Path); err != nil {
			return cs, fmt.Errorf("store: %w", err)
		}
		cs.Dropped++
		cs.Bytes += f.Size
		shard := s.root + "/" + f.Name[:2]
		if left, err := s.fsys.ReadDir(shard); err == nil && len(left) == 0 {
			if err := s.fsys.Remove(shard); err != nil {
				return cs, fmt.Errorf("store: %w", err)
			}
		}
	}
	return cs, nil
}
