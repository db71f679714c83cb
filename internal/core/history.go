package core

import (
	"cmp"
	"errors"
	"slices"
	"strconv"
	"strings"

	"fex/internal/vfs"
)

// keepRuns is how many run directories of each run ID family a loaded
// state keeps: LoadState removes the older ones, so a state that is
// loaded, run and saved again carries a bounded history.
const keepRuns = 32

// runNumber splits a run ID into its family, the prefix before its
// trailing decimal number ("run-" for framework IDs, "r-" for serve's),
// and that number. ok is false for an ID without a trailing number or
// whose number overflows uint64; such IDs belong to no family.
func runNumber(id string) (family string, n uint64, ok bool) {
	i := len(id)
	for i > 0 && id[i-1] >= '0' && id[i-1] <= '9' {
		i--
	}
	if i == len(id) {
		return "", 0, false
	}
	n, err := strconv.ParseUint(id[i:], 10, 64)
	if err != nil {
		return "", 0, false
	}
	return id[:i], n, true
}

// trimRunHistory keeps the newest keepRuns run directories of each family
// under RunsDir, the ones with the highest numbers, and removes the rest.
// The snapshot stores no modification times, so the number is the only
// age there is. It returns the highest number of each family.
func trimRunHistory(fsys *vfs.FS) (map[string]uint64, error) {
	entries, err := fsys.ReadDir(RunsDir)
	if errors.Is(err, vfs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	type numbered struct {
		name string
		n    uint64
	}
	families := make(map[string][]numbered)
	for _, e := range entries {
		if fam, n, ok := runNumber(e.Name); ok && e.IsDir {
			families[fam] = append(families[fam], numbered{e.Name, n})
		}
	}
	high := make(map[string]uint64, len(families))
	for fam, runs := range families {
		// Newest first; equal numbers ("run-7", "run-0007") by name, so
		// the cut does not depend on map order.
		slices.SortFunc(runs, func(a, b numbered) int {
			return cmp.Or(cmp.Compare(b.n, a.n), strings.Compare(a.name, b.name))
		})
		high[fam] = runs[0].n
		for _, r := range runs[min(len(runs), keepRuns):] {
			if err := fsys.RemoveAll(runDir(r.name)); err != nil {
				return nil, err
			}
		}
	}
	return high, nil
}

// LoadedRunHigh returns the highest number of a run ID of family ("run-",
// "r-") that the last LoadState carried in, or 0. Run ID allocators
// continue after it, so an ID whose directory LoadState removed is never
// handed out again.
func (fx *Fex) LoadedRunHigh(family string) uint64 {
	fx.historyMu.Lock()
	defer fx.historyMu.Unlock()
	return fx.loadedHigh[family]
}
