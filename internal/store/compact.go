package store

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"fex/internal/vfs"
)

// CompactStats summarizes one compaction.
type CompactStats struct {
	// Kept is the number of records retained (and packed).
	Kept int
	// Dropped is the number of records evicted by the keep predicate.
	Dropped int
	// Packs is the number of pack files the store holds afterwards.
	Packs int
	// Bytes is the store footprint change (bytes reclaimed; negative if
	// packing overhead exceeded what eviction freed).
	Bytes int64
}

// Compact garbage-collects and repacks the store under the store's lock,
// so no Put or lookup interleaves: records failing the keep predicate (nil
// keeps everything) are dropped, the survivors are packed into one pack
// file per shard — records concatenated in key order — the loose files and
// emptied shard directories are removed, and a fresh index snapshot is
// written. The scan reads the record files themselves, not the index being
// rebuilt, so Compact doubles as an authoritative self-heal.
func (s *Store) Compact(keep func(Fingerprint) bool) (CompactStats, error) {
	var cs CompactStats
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.fsys.IsDir(s.root) {
		return cs, nil
	}
	before, err := s.fsys.TotalSize(s.root)
	if err != nil {
		return cs, fmt.Errorf("store: %w", err)
	}
	recs, err := s.scanFiles()
	if err != nil {
		return cs, err
	}
	keys := make([]string, 0, len(recs))
	for k := range recs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	// Concatenate the surviving records per shard, in key order, recording
	// each record's future offset in its shard's pack.
	entries := make(map[string]indexEntry, len(recs))
	packs := map[string][]byte{}
	for _, key := range keys {
		r := recs[key]
		if keep != nil && !keep(r.fp) {
			cs.Dropped++
			continue
		}
		cs.Kept++
		shard := key[:2]
		entries[key] = indexEntry{
			file:   packDir + "/" + shard + ".pack",
			off:    int64(len(packs[shard])),
			length: int64(len(r.raw)),
			sum:    sumHex(r.raw),
		}
		packs[shard] = append(packs[shard], r.raw...)
	}
	// Write the packs, then drop every scanned loose file and prune
	// emptied shard dirs, then remove packs whose shard ended up empty.
	shards := make([]string, 0, len(packs))
	for shard := range packs {
		shards = append(shards, shard)
	}
	sort.Strings(shards)
	for _, shard := range shards {
		if err := s.fsys.WriteFile(s.root+"/"+packDir+"/"+shard+".pack", packs[shard], 0o644); err != nil {
			return cs, fmt.Errorf("store: write pack %s: %w", shard, err)
		}
	}
	for key, r := range recs {
		if !r.entry.packed() {
			if err := s.removeLoose(key); err != nil {
				return cs, err
			}
		}
	}
	if s.fsys.IsDir(s.root + "/" + packDir) {
		old, err := s.fsys.ReadDir(s.root + "/" + packDir)
		if err != nil {
			return cs, fmt.Errorf("store: %w", err)
		}
		for _, p := range old {
			shard := strings.TrimSuffix(p.Name, ".pack")
			if _, live := packs[shard]; !live {
				if err := s.fsys.Remove(s.root + "/" + packDir + "/" + p.Name); err != nil && !errors.Is(err, vfs.ErrNotExist) {
					return cs, fmt.Errorf("store: %w", err)
				}
			}
		}
		s.pruneShardDir(packDir)
	}
	s.entries = entries
	s.gen++
	s.loaded = true
	if err := s.persistLocked(); err != nil {
		return cs, err
	}
	cs.Packs = len(packs)
	after, err := s.fsys.TotalSize(s.root)
	if err != nil {
		return cs, fmt.Errorf("store: %w", err)
	}
	cs.Bytes = before - after
	return cs, nil
}
