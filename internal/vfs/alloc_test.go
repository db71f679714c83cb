//go:build !race

// Allocation pins live behind !race: the race runtime adds bookkeeping
// allocations. Counts do not depend on the machine, so a regression
// shows as a changed count, not a timing; they can differ between Go
// toolchains, so each ceiling leaves a margin over the measured count.
package vfs

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"testing"
)

// treeFS returns a tree of dirs directories, nested two deep, each
// holding files files of size bytes (at least their path, which they
// start with).
func treeFS(t *testing.T, dirs, files, size int) *FS {
	t.Helper()
	f := New()
	for d := 0; d < dirs; d++ {
		for i := 0; i < files; i++ {
			p := fmt.Sprintf("/fex/d%02d/sub/f%03d", d, i)
			data := make([]byte, max(size, len(p)))
			copy(data, p)
			if err := f.WriteFile(p, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	return f
}

// saveAllocs returns the allocations of one Save into w of a tree of
// dirs directories each holding files small files.
func saveAllocs(t *testing.T, w io.Writer, dirs, files int) float64 {
	t.Helper()
	f := treeFS(t, dirs, files, 0)
	return testing.AllocsPerRun(50, func() {
		if err := f.Save(w); err != nil {
			t.Fatal(err)
		}
	})
}

// reservingDiscard discards what it is written, like io.Discard, but
// can reserve room, like a *bytes.Buffer.
type reservingDiscard struct{}

func (reservingDiscard) Grow(int) {}

func (reservingDiscard) Write(p []byte) (int, error) { return len(p), nil }

// TestSaveAllocsPerDirectory pins that Save allocates with the tree's
// directories, not its entries: twenty times the files under the same
// directories costs only the few extra doublings of Save's two growing
// buffers, and the count stays below one allocation per directory plus a
// constant. A writer that can reserve room is written straight through,
// without the buffered writer and its buffer.
func TestSaveAllocsPerDirectory(t *testing.T) {
	const dirs = 8
	few := saveAllocs(t, io.Discard, dirs, 2)
	many := saveAllocs(t, io.Discard, dirs, 40)
	direct := saveAllocs(t, reservingDiscard{}, dirs, 40)
	t.Logf("Save of %d dirs: %.0f allocations with 2 files each, %.0f with 40, %.0f with 40 to a reserving writer", dirs, few, many, direct)
	if many > few+12 {
		t.Errorf("Save allocations grow with entries: %.0f with 2 files per directory, %.0f with 40", few, many)
	}
	if limit := float64(2*dirs + 20); many > limit {
		t.Errorf("Save of %d directories allocates %.0f times, want at most %.0f", dirs, many, limit)
	}
	if limit := many - 2; direct > limit {
		t.Errorf("Save to a reserving writer allocates %.0f times, want at most %.0f (no buffered writer)", direct, limit)
	}
}

// TestLoadAllocs pins that Load copies file bytes once, into the one
// buffer it reads the input into: per entry it allocates a bounded
// number of objects (the path, the node, a directory's map) and bytes
// far fewer than a file's, so the bytes allocated stay below the
// snapshot's size plus a per-entry overhead.
func TestLoadAllocs(t *testing.T) {
	const dirs, files, size = 8, 40, 2048
	f := treeFS(t, dirs, files, size)
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()
	entries := 1 + 2*dirs + dirs*files // /fex, each d and its sub, the files
	load := func() {
		if err := New().Load(bytes.NewReader(snap)); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, load)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 20
	for i := 0; i < runs; i++ {
		load()
	}
	runtime.ReadMemStats(&after)
	bytesPer := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("Load of %d entries, %d bytes: %.0f allocations, %.0f bytes", entries, len(snap), allocs, bytesPer)
	if limit := float64(3*entries + 20); allocs > limit {
		t.Errorf("Load of %d entries allocates %.0f times, want at most %.0f", entries, allocs, limit)
	}
	if limit := float64(len(snap) + 384*entries + 4096); bytesPer > limit {
		t.Errorf("Load of a %d-byte snapshot with %d entries allocates %.0f bytes, want at most %.0f", len(snap), entries, bytesPer, limit)
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
