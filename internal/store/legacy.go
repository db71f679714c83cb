package store

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"fex/internal/vfs"
)

// legacyEntries are what the store's earlier layout kept under its root
// beside the record files: a pack directory of <ab>.pack files, each the
// records of one shard concatenated in key order (written by Compact),
// an index snapshot and a journal of the puts since it.
var legacyEntries = [...]string{"pack", "index", "journal"}

// Upgrade brings a root written in the earlier layout to the current
// one. Each correctly filed record of each pack — one that decodes and
// whose key belongs to the pack's shard — is written out as its own
// file, unless its key already has one: a loose record was always the
// newer write. A pack's damaged tail ends its records. Then the pack
// directory, the index and the journal are removed. The journal is not
// replayed: its entries name files that the upgrade reads directly, and
// nothing that saved a state wrote its delete tombstones.
//
// A state file comes from outside the program, so Fex.LoadState runs
// Upgrade on every state it loads. On a root in the current layout, or
// none, it is one listing of the root and changes nothing.
func (s *Store) Upgrade() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries, err := s.fsys.ReadDir(s.root)
	if errors.Is(err, vfs.ErrNotExist) || errors.Is(err, vfs.ErrNotDir) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: upgrade: %w", err)
	}
	if !slices.ContainsFunc(entries, func(e vfs.Stat) bool { return slices.Contains(legacyEntries[:], e.Name) }) {
		return nil
	}
	dir := s.root + "/pack"
	packs, err := s.fsys.ReadDir(dir)
	if err != nil && !errors.Is(err, vfs.ErrNotExist) && !errors.Is(err, vfs.ErrNotDir) {
		return fmt.Errorf("store: upgrade: %w", err)
	}
	for _, p := range packs {
		shard, ok := strings.CutSuffix(p.Name, ".pack")
		if p.IsDir || !ok {
			continue
		}
		data, err := s.fsys.ReadFile(dir + "/" + p.Name)
		if err != nil {
			return fmt.Errorf("store: upgrade: %w", err)
		}
		for len(data) > 0 {
			rec, n, err := decodeNext(data)
			if err != nil {
				break
			}
			raw := data[:n]
			data = data[n:]
			key := rec.Fingerprint.Key()
			if key[:2] != shard || s.fsys.Exists(s.path(key)) {
				continue
			}
			if err := s.fsys.WriteFile(s.path(key), raw, 0o644); err != nil {
				return fmt.Errorf("store: upgrade %s: %w", key, err)
			}
		}
	}
	for _, name := range legacyEntries {
		if err := s.fsys.RemoveAll(s.root + "/" + name); err != nil {
			return fmt.Errorf("store: upgrade: %w", err)
		}
	}
	return nil
}
