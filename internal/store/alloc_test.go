//go:build !race

// Allocation pins live behind !race: the race runtime adds bookkeeping
// allocations. Counts do not depend on the machine, so a regression
// shows as a changed count, not a timing; they can differ between Go
// toolchains, so each ceiling leaves a margin over the measured count.
package store

import (
	"bytes"
	"testing"

	"fex/internal/runlog"
)

// replayCellAllocs is the allocation ceiling of replaying one stored cell:
// BulkGetCells of its rendered fingerprint (one uncopied file read and the
// byte comparison against its header) and ParseShard of the payload (one
// measurement record), whose string conversion is the record's only
// copy. The ceiling is the count measured with go1.24, so a second copy
// of the record fails it; a toolchain whose escape analysis or map
// runtime allocates differently may need it measured again.
const replayCellAllocs = 9

// replayFoldedCellAllocs is the allocation ceiling of replaying one
// stored cell of 40 repetitions, which the store keeps folded: the read
// unfolds the record into one new payload (one allocation more than
// reading it unfolded), and ParseShard makes the 40 measurements. It
// measured 133 with go1.24; the ceiling leaves a margin for other
// toolchains.
const replayFoldedCellAllocs = 140

// TestReplayCellAllocs pins the allocations of replaying one stored cell
// through BulkGetCells and ParseShard at or below replayCellAllocs.
func TestReplayCellAllocs(t *testing.T) {
	testReplayAllocs(t, []byte("RUN|suite=phoenix|bench=histogram|type=gcc_native|threads=1|rep=0|cycles=42|wall_ns=1000\n"), false, replayCellAllocs)
}

// TestReplayFoldedCellAllocs pins the allocations of replaying a folded
// 40-repetition cell at or below replayFoldedCellAllocs.
func TestReplayFoldedCellAllocs(t *testing.T) {
	testReplayAllocs(t, repShard(40, 1), true, replayFoldedCellAllocs)
}

// testReplayAllocs stores payload, checks that it is stored folded or
// not, and pins the allocations of replaying it.
func testReplayAllocs(t *testing.T, payload []byte, folded bool, ceiling int) {
	s, fsys := newTestStore(t)
	fp := testFingerprint()
	if err := s.Put(fp, payload); err != nil {
		t.Fatal(err)
	}
	cells := []Cell{NewCell(fp)}
	raw, err := fsys.ReadFile(s.path(cells[0].Key()))
	if err != nil {
		t.Fatal(err)
	}
	if got := bytes.Contains(raw, []byte("\n"+foldTag)); got != folded {
		t.Fatalf("record stored folded=%t, want %t", got, folded)
	}
	replay := func() {
		res := s.BulkGetCells(cells)
		if !res[0].Present || res[0].Err != nil {
			t.Fatalf("replay: %+v", res)
		}
		if _, err := runlog.ParseShard(string(res[0].Payload)); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(500, replay)
	t.Logf("one replayed cell: %.0f allocations", allocs)
	if allocs > float64(ceiling) {
		t.Errorf("replaying one stored cell allocates %.0f times, ceiling %d", allocs, ceiling)
	}
}
