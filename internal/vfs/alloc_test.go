//go:build !race

// Allocation pins live behind !race: the race runtime adds bookkeeping
// allocations. Counts do not depend on the machine, so a regression
// shows as a changed count, not a timing; they can differ between Go
// toolchains, so each ceiling leaves a margin over the measured count.
package vfs

import (
	"fmt"
	"io"
	"testing"
)

// saveAllocs returns the allocations of one Save of a tree of dirs
// directories, nested two deep, each holding files small files.
func saveAllocs(t *testing.T, dirs, files int) float64 {
	t.Helper()
	f := New()
	for d := 0; d < dirs; d++ {
		for i := 0; i < files; i++ {
			p := fmt.Sprintf("/fex/d%02d/sub/f%03d", d, i)
			if err := f.WriteFile(p, []byte(p), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	return testing.AllocsPerRun(50, func() {
		if err := f.Save(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSaveAllocsPerDirectory pins that Save allocates with the tree's
// directories, not its entries: twenty times the files under the same
// directories costs only the few extra doublings of Save's two growing
// buffers, and the count stays below one allocation per directory plus a
// constant.
func TestSaveAllocsPerDirectory(t *testing.T) {
	const dirs = 8
	few := saveAllocs(t, dirs, 2)
	many := saveAllocs(t, dirs, 40)
	t.Logf("Save of %d dirs: %.0f allocations with 2 files each, %.0f with 40", dirs, few, many)
	if many > few+12 {
		t.Errorf("Save allocations grow with entries: %.0f with 2 files per directory, %.0f with 40", few, many)
	}
	if limit := float64(2*dirs + 20); many > limit {
		t.Errorf("Save of %d directories allocates %.0f times, want at most %.0f", dirs, many, limit)
	}
}

// TestReadFileAllocs pins path resolution at zero allocations: a ReadFile
// of a clean path walks its components in place, so the only allocation
// is the copy it returns.
func TestReadFileAllocs(t *testing.T) {
	f := New()
	const p = "/fex/store/ab/record"
	if err := f.WriteFile(p, []byte(p), 0o644); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := f.ReadFile(p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("ReadFile of a clean path allocates %.0f times, want 1 (the returned copy)", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		if _, err := f.ReadFileShared(p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ReadFileShared of a clean path allocates %.0f times, want 0", allocs)
	}
}
