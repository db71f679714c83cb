package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"fex/internal/core"
)

var errCut = errors.New("write cut")

// cutWriter passes through the first left bytes, then fails.
type cutWriter struct {
	w    io.Writer
	left int
}

func (c *cutWriter) Write(p []byte) (int, error) {
	if len(p) <= c.left {
		c.left -= len(p)
		return c.w.Write(p)
	}
	n, _ := c.w.Write(p[:c.left])
	c.left = 0
	return n, errCut
}

// resaved loads the state file at path into a fresh framework and
// returns that framework's own snapshot of it.
func resaved(t *testing.T, path string) []byte {
	t.Helper()
	fx, err := core.New(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := fx.LoadState(f); err != nil {
		t.Fatalf("load %s: %v", path, err)
	}
	var buf bytes.Buffer
	if err := fx.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWriteFileAtomicCutAtEveryByte is the CLI half of the crash-safety
// cut test: a state save through writeFileAtomic that fails after k
// bytes, for every k over a real snapshot, leaves the state file loading
// as the previous state with no temporary file behind, and the save that
// completes loads as the new state.
func TestWriteFileAtomicCutAtEveryByte(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fex.state")
	oldFx, err := core.New(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFileAtomic(path, oldFx.SaveState); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved(t, path), old) {
		t.Fatal("the old state does not load back as itself")
	}

	newFx, err := core.New(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newFx.Install("ripe"); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := newFx.SaveState(&snap); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(snap.Bytes(), old) {
		t.Fatal("old and new states are the same snapshot")
	}
	for k := 0; k < snap.Len(); k++ {
		err := writeFileAtomic(path, func(w io.Writer) error {
			return newFx.SaveState(&cutWriter{w: w, left: k})
		})
		if !errors.Is(err, errCut) {
			t.Fatalf("save cut after %d of %d bytes returned %v, want %v", k, snap.Len(), err, errCut)
		}
		if got := resaved(t, path); !bytes.Equal(got, old) {
			t.Fatalf("save cut after %d bytes: the state file no longer loads as the old state", k)
		}
		assertOnlyFile(t, dir, "fex.state")
	}

	if err := writeFileAtomic(path, newFx.SaveState); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved(t, path), snap.Bytes()) {
		t.Error("the completed save does not load as the new state")
	}
	assertOnlyFile(t, dir, "fex.state")
}
